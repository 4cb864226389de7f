"""The Fig. 3 design: a pipelined linear systolic array for matrix strings.

Computes ``M₀ ⊗ (M₁ ⊗ (… ⊗ (M_{P-2} ⊗ v)))`` — the monadic-serial DP
evaluation of eq. (8) — on ``m`` PEs connected in a line, where ``m`` is
the (uniform) interior stage width and ``v`` is the rightmost operand
(a column vector: the sink-side boundary).

Operation (paper Section 3.2):

* Phases alternate under the ODD control signal.  In an **ODD phase**
  (here ``Mode A``) the result vector is *stationary* in the per-PE
  accumulators ``A_i`` while the input vector shifts through the ``R_i``
  registers; PE ``i`` accumulates ``y_i = ⊕_j M[i, j] ⊗ x_j`` as the
  ``x_j`` stream marches past.  In an **EVEN phase** (``Mode B``) the
  roles swap: the input vector is stationary (MOVE latched it from the
  accumulators into the ``X_i`` registers at the phase boundary) and the
  *partial results* shift, each ``y_j`` visiting every PE and picking up
  ``M[j, i] ⊗ x_i`` — which is why the paper feeds matrix ``B``
  transposed, column ``i`` into ``P_i``.
* Control switching propagates with a one-cycle delay from ``P_i`` to
  ``P_{i+1}``, so phases overlap: the schedule length in the paper's
  iteration unit is ``m`` per matrix-vector product, ``(P-1)·m`` total,
  plus an ``m-1``-tick drain for the skew.
* A single-source graph's leftmost ``1 × m`` row is the same phase on
  ``rows = 1``: in Mode A the stream is "shifted into P₁", which alone
  holds a result; in Mode B one partial visits every PE.  A phase
  narrower than the array is the last, gets no MOVE, and its output is
  the scalar value (:func:`_string_value`).

The RTL backend runs on :class:`~repro.systolic.fabric.SystolicMachine`:
cycle-accurate within each phase (two-phase register semantics), phases
stitched with the exact data hand-offs of the overlapped schedule (MOVE
for A→B, the P_m→P_1 feedback stream for B→A), so computed values and
per-PE iteration counts match the hardware exactly.  The fast backend
evaluates the same string with whole-array semiring reductions (the
broadcast-then-reduce of :func:`~repro.semiring.matvec`, with the raw ⊗
of operands checked at entry), certifies the chain's stage vectors in one
pass, and reports the schedule's closed-form counters; the batch engine (:mod:`repro.exec.vectorized`) runs the same
kernel on a stack of same-shape strings.  ``backend="auto"`` cross-validates fast against
RTL on small instances.

The Fig. 4 broadcast array (:mod:`repro.systolic.broadcast_array`) shares
this module's front end (``_MatrixStringArray``), fast kernel and result
type; each design supplies only its rtl machine and closed-form counters.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Iterable, Sequence

import numpy as np

from .._readonly import fields_equal, read_only, restore_read_only, row_builder
from ..dp.certificate import certify_backward
from ..graphs import MultistageGraph, check_cost_layers
from ..graphs.multistage import _blocks_of
from ..semiring import MIN_PLUS, Semiring
from .fabric import (
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
    normalize_backend,
    run_with_backend,
)

__all__ = ["PipelinedArrayResult", "PipelinedMatrixStringArray", "StreamedRunResult", "run_stream"]


@dataclasses.dataclass(frozen=True)
class PipelinedArrayResult:
    """Output of a Fig. 3 or Fig. 4 run (``BroadcastArrayResult`` names
    the same type)."""

    #: What ``backend="auto"`` compares beside the report (:func:`.run_with_backend`).
    backend_fields: ClassVar[tuple[str, ...]] = ("value", "decisions")

    value: np.ndarray  # final vector (shape (m,)) or scalar (shape ())
    report: RunReport
    #: Fig. 4 with ``track_decisions``: per evaluated layer (sink side
    #: first), the winning next-stage vertex per PE — the matrix-string
    #: analogue of the Fig. 5 path registers.  ``None`` otherwise.
    decisions: tuple[np.ndarray, ...] | None = None
    #: (tick, pe, label) events when ``record_trace`` was requested.
    #: Fig. 3 ticks are overlapped ticks and its labels ``x<s>`` (moving
    #: input element) and ``y<s>`` (moving partial result) with the phase
    #: prefixed; Fig. 4 has no skew, so its ticks are the plain iteration
    #: numbers and its labels ``p<phase>:x<j>`` for the bus value consumed.
    trace: tuple[tuple[int, int, str], ...] = ()
    #: The full typed event stream from the machine's trace bus, when
    #: ``record_trace`` was requested.
    events: tuple[TraceEvent, ...] = ()
    #: Per-phase ``(x, y)`` boundary vectors (phase input as the array saw
    #: it, phase output as latched), captured when ``observe`` was
    #: requested — the data the ABFT detectors check.  Empty otherwise.
    phase_values: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    #: The fast kernel's certificate verdict
    #: (:func:`~repro.dp.certificate.certify_backward`), covering the
    #: decisions when tracked; ``None`` when the rtl machine ran, or the
    #: semiring has no arg-reduction.
    certified: bool | None = dataclasses.field(default=None, compare=False)

    __eq__ = fields_equal
    __setstate__ = restore_read_only

    def __post_init__(self) -> None:
        read_only((self.value, self.decisions, self.phase_values))


def _normalize_string(
    sr: Semiring, matrices: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Validate the matrix string; return (matrices, sink vector, width m)."""
    if len(matrices) < 2:
        raise SystolicError("need at least two operands (one matrix and the vector)")
    mats = [sr.asarray(m) for m in matrices]
    last = mats[-1]
    if last.ndim == 2:
        if last.shape[1] != 1:
            raise SystolicError(
                "rightmost operand must be a column vector (single-sink form); "
                f"got shape {last.shape}"
            )
        last = last[:, 0]
    if last.ndim != 1:
        raise SystolicError(f"rightmost operand must be a vector, got {last.shape}")
    m = last.size
    for idx, mat in enumerate(mats[:-1]):
        if mat.ndim != 2:
            raise SystolicError(f"operand {idx} must be 2-D, got shape {mat.shape}")
        if mat.shape[1] != m:
            raise SystolicError(
                f"operand {idx} has {mat.shape[1]} columns, expected width {m}"
            )
        if idx > 0 and mat.shape[0] != m:
            raise SystolicError(
                f"interior operand {idx} must be {m}x{m}, got {mat.shape}"
            )
    if mats[0].shape[0] not in (1, m):
        raise SystolicError(
            f"leftmost operand must have 1 or {m} rows, got {mats[0].shape}"
        )
    return mats[:-1], last, m


def _operands(blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """A graph's cost blocks without its last layer, the sink column: the
    operands left of the sink vector, as views."""
    *rest, last = blocks
    return [*rest, last[:-1]] if len(last) > 1 else rest


def _matvec_chain(
    sr: Semiring, blocks: Sequence[np.ndarray], vec: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``C_0 ⊗ (C_1 ⊗ (… ⊗ vec))``, right to left, over any leading axes:
    the Fig. 3 and Fig. 4 value, and the divide-and-conquer route's value
    in :func:`repro.core.solver.solve`.

    ``blocks`` are the operands as stacks of same-shape layers, each
    ``(n, …, rows, cols)`` with the leading axes ``…`` of ``vec``.
    Returns one ``(values, inputs)`` pair per block, the tables
    :func:`~repro.dp.certificate.certify_backward` checks: ``values[j]``
    is the stage vector layer ``j`` of the block produces, ``inputs[j]``
    the one it reads, so ``inputs`` of the last block ends with ``vec``
    and ``runs[0][0][0]`` is the value.  A square block writes its stage
    vectors into one preallocated ``(n + 1, …, rows)`` array, of which
    ``values`` and ``inputs`` are views; a non-square block is a single
    layer.  Each step is :func:`~repro.semiring.matvec`'s broadcast and
    reduction over the leading axes, ``add_reduce(mul(mat, x[..., None,
    :]), axis=-1)``, with the raw ⊗, so the operands must have passed
    :func:`~repro.graphs.check_cost_layers` and have matching shapes.
    """
    mul, reduce = sr.raw_mul, sr.add_reduce
    runs = []
    nxt = vec
    for block in reversed(blocks):
        rows = block.shape[-2]
        shape = (*nxt.shape[:-1], rows)
        if rows == block.shape[-1]:
            stages = np.empty((len(block) + 1, *shape), dtype=nxt.dtype)
            stages[-1] = nxt
            values, inputs = stages[:-1], stages[1:]
        else:
            values, inputs = np.empty((1, *shape), dtype=nxt.dtype), nxt[None]
        for mat, x, out in zip(block[::-1], inputs[::-1, ..., None, :], values[::-1]):
            reduce(mul(mat, x), axis=-1, out=out)
        runs.append((values, inputs))
        nxt = values[0]
    runs.reverse()
    return runs


def _string_value(sr: Semiring, out: Sequence[float], m: int) -> np.ndarray:
    """The string's value from its last phase's output ``out``: the
    scalar ``out[0]`` when the leftmost operand is narrower than the
    ``m``-PE array (the ``1 × m`` row of a single-source graph), the
    vector ``out`` otherwise.  Both rtl readouts and the fast kernel
    decide the shape here."""
    return sr.asarray(out[0] if len(out) < m else out)


def _fast_report(num_phases: int, rows: int, m: int) -> RunReport:
    """The overlapped schedule's closed-form counters on ``m`` PEs for a
    string of ``num_phases`` operands whose leftmost has ``rows`` rows:
    ``m`` iterations per phase, an ``m−1``-tick drain, one input word per
    matrix element plus the initial vector."""
    serial_ops = (num_phases - 1) * m * m + rows * m
    # Every earlier phase keeps each PE busy for m steps.  In the last,
    # PE i works m steps on a stationary result (Mode A) when i < rows,
    # and once per moving partial (Mode B).
    last_a = (num_phases - 1) % 2 == 0
    ops = tuple(
        (num_phases - 1) * m + (m * (i < rows) if last_a else rows) for i in range(m)
    )
    return RunReport(
        design=PipelinedMatrixStringArray.design_name,
        num_pes=m,
        iterations=num_phases * m,
        wall_ticks=num_phases * m + (m - 1),
        pe_busy_ticks=ops,
        pe_op_counts=ops,
        serial_ops=serial_ops,
        input_words=m + serial_ops,
        output_words=rows,
        broadcast_words=0,
        backend="fast",
    )


#: A phase's ARG registers from its candidates ``cand[i, j] = M[i, j] ⊗ x_j``
#: (Fig. 4's ``broadcast_array._arg_registers``).
ArgRegisters = Callable[[Semiring, np.ndarray], np.ndarray]


def _fast_kernel(
    sr: Semiring,
    blocks: Sequence[np.ndarray],
    vec: np.ndarray,
    fast_report: Callable[[int, int, int], RunReport] = _fast_report,
    arg_registers: ArgRegisters | None = None,
) -> list[PipelinedArrayResult]:
    """The fast backend of Fig. 3 and Fig. 4, on one string or on a stack
    of same-shape strings.

    ``blocks`` are the operands left of the sink vector ``vec``, one
    ``(n, ..., rows, m)`` stack per run of same-shape layers with ``vec``
    ``(..., m)``: no further axis for one string, a ``B`` axis after the
    layer axis for a stack, all checked at entry.  The right-to-left
    semiring mat-vec chain (:func:`_matvec_chain`) does the same
    operations on each string of a stack as on that string alone, so
    every result is bit-identical to running it alone, and
    :func:`~repro.dp.certificate.certify_backward` certifies its stage
    vectors when the semiring has an arg-reduction; each result keeps
    only the verdict, in ``certified``.  A leftmost ``1 × m`` row vector
    yields a scalar per string (:func:`_string_value`).
    ``fast_report(num_phases, rows, m)`` is the design's closed-form
    counters (Fig. 3's by default).

    With ``arg_registers`` (Fig. 4's decisions, one string only), each
    phase adds one raw ⊗ and one ``arg_registers`` call over the stage
    vector the chain kept, and the verdict also requires every decision
    to attain its stage value (the attainment half of
    :func:`~repro.dp.certificate.certify_forward`).  Returns one result
    per string, in row-major order of the leading axes, each built by
    :func:`~repro._readonly.row_builder` with its own read-only ``value``.
    """
    m = vec.shape[-1]
    runs = _matvec_chain(sr, blocks, vec)
    lead = vec.shape[:-1]
    # A non-selective ⊕ (plus-times) has no certificate: ``certified`` stays None.
    verdicts = (
        certify_backward(sr, blocks, vec, runs)
        if sr.add_argreduce is not None
        else np.full(lead, None)
    ).ravel().tolist()
    dec: tuple[np.ndarray, ...] | None = None
    if arg_registers is not None:
        decisions: list[np.ndarray] = []
        attained = True
        # Phase order: sink side first.
        for block, (values, inputs) in zip(reversed(blocks), reversed(runs)):
            for mat, x, v in zip(block[::-1], inputs[::-1], values[::-1]):
                cand = sr.raw_mul(mat, x)
                arg = arg_registers(sr, cand)
                won = np.take_along_axis(cand, arg[:, None], axis=1)[:, 0]
                attained = attained and bool(np.all(won == v))
                decisions.append(arg)
        verdicts = [bool(ok and attained) for ok in verdicts]
        dec = tuple(decisions)
        read_only(dec)
    rows = blocks[0].shape[-2]
    report = fast_report(sum(len(b) for b in blocks), rows, m)
    # ``__post_init__``'s invariant, for the whole column: each row owns a
    # read-only value (a copy, so a cached result does not keep the stack alive).
    column = [
        read_only(_string_value(sr, v, m))
        for v in runs[0][0][0].reshape(-1, rows).tolist()
    ]
    new_result = row_builder(PipelinedArrayResult)
    return [
        new_result(value=v, report=report, decisions=dec, certified=ok)
        for v, ok in zip(column, verdicts)
    ]


class _MatrixStringArray:
    """The front end Fig. 3 and Fig. 4 share: both evaluate the eq.-8
    matrix string right to left, in the same iterations on the same PEs,
    and differ only in how data moves.  A design supplies its
    ``design_name``, its rtl machine (``_run_rtl``) and its closed-form
    counters (``_fast_report``); the checks, the fast kernel
    (:func:`_fast_kernel`) and the backend dispatch live here."""

    design_name: ClassVar[str]
    #: The design's closed-form counters, ``(num_phases, rows, m) -> RunReport``.
    _fast_report: ClassVar[Callable[[int, int, int], RunReport]]
    #: The design's own ``run`` keywords (Fig. 4: ``track_decisions``).
    run_options: ClassVar[tuple[str, ...]] = ()
    #: The design's clocked machine, ``_run_rtl(mats, vec, m, **cycle)``;
    #: the keywords it does not read itself configure its SystolicMachine.
    _run_rtl: Callable[..., PipelinedArrayResult]
    #: Fig. 4's ``track_decisions`` hook: the backend given, the backend
    #: to run and the ARG-register pass for the fast kernel.
    _decision_pass: Callable[[str], tuple[str, ArgRegisters]]

    def __init__(self, semiring: Semiring = MIN_PLUS, backend: str = "rtl") -> None:
        self.sr = semiring
        self.backend = normalize_backend(backend)

    def run(
        self,
        matrices: list[np.ndarray],
        *,
        record_trace: bool = False,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool | None = None,
        strict: bool = False,
        **options: bool,
    ) -> PipelinedArrayResult:
        """Evaluate the matrix string right-to-left on the array.

        ``matrices[-1]`` must be the sink-side column vector; interior
        operands must be ``m × m``; ``matrices[0]`` may be a ``1 × m``
        row vector (single-source graph), in which case the result is a
        scalar formed in a single PE, exactly as in the paper's last
        three example iterations.  With ``record_trace`` the schedule's
        per-tick PE activity is captured for space-time rendering.

        ``backend`` overrides the array default: ``"rtl"`` simulates the
        clocked machine, ``"fast"`` computes the same values with
        whole-array semiring reductions, ``"auto"`` cross-validates fast
        against RTL on small instances.  ``sinks`` subscribe telemetry
        callables (e.g. :class:`~repro.telemetry.MetricsSink`) to the
        machine's event bus; ``injector`` attaches a fault injector
        (:mod:`repro.faults`) to its tick loop; ``observe`` captures the
        per-phase boundary vectors for the ABFT detectors; ``strict``
        turns on the hazard sanitizer (:mod:`repro.analysis.hazards`),
        whose violations raise ``HazardError``.  These cycle-level
        requests follow the rule of
        :func:`~repro.systolic.fabric.run_with_backend`.  ``options`` are
        the design's own keywords (:attr:`run_options`).

        The operands are checked once here
        (:func:`~repro.graphs.check_cost_layers`): NaN, the wrong
        infinity or an overflowing path sum raises ``GraphError``.
        """
        extra = sorted(set(options) - set(self.run_options))
        if extra:
            raise TypeError(
                f"{type(self).__name__}.run() got an unexpected keyword argument "
                f"{extra[0]!r}"
            )
        mats, vec, m = _normalize_string(self.sr, matrices)
        blocks = _blocks_of(self.sr, mats)
        check_cost_layers(self.sr, [*blocks, vec[None]], "matrices contain")
        return self._run_string(
            mats, vec, m, blocks, record_trace=record_trace,
            backend=backend, sinks=sinks, injector=injector, observe=observe,
            strict=strict, **options,
        )

    def run_graph(
        self,
        graph: MultistageGraph,
        *,
        record_trace: bool = False,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool | None = None,
        strict: bool = False,
    ) -> PipelinedArrayResult:
        """Evaluate a single-sink multistage graph (backward formulation).

        The graph's cost matrices are exactly the string of eq. (8); the
        result is ``f(source stage)`` — a scalar for single-source
        graphs, the vector of source costs otherwise.  The graph's costs
        are read-only and were checked when it was built, so they go to
        the array as they are, the fast kernel reading the graph's cost
        blocks: no copy and no second check.  The keywords are those of
        :meth:`run`.
        """
        return self._run_string(
            *self._graph_string(graph), record_trace=record_trace, backend=backend,
            sinks=sinks, injector=injector, observe=observe, strict=strict,
        )

    def _graph_string(
        self, graph: MultistageGraph
    ) -> tuple[list[np.ndarray], np.ndarray, int, list[np.ndarray]]:
        """``graph``'s cost string, normalized for :meth:`_run_string`."""
        if graph.semiring.name != self.sr.name:
            raise SystolicError("graph and array use different semirings")
        return (*_normalize_string(self.sr, graph.costs), _operands(graph.cost_blocks))

    def _run_string(
        self,
        mats: list[np.ndarray],
        vec: np.ndarray,
        m: int,
        blocks: Sequence[np.ndarray],
        *,
        backend: str | None,
        **cycle: Any,
    ) -> PipelinedArrayResult:
        """:meth:`run` on a normalized string whose costs are checked, as
        layers ``mats`` (rtl) and as ``blocks`` (fast); ``cycle`` holds its
        cycle-level keywords and the design's options, which reach the rtl
        machine as keywords."""
        resolved = normalize_backend(backend, self.backend)
        arg_registers = None
        if cycle.get("track_decisions"):
            resolved, arg_registers = self._decision_pass(resolved)
        work = sum(int(mm.shape[0]) * int(mm.shape[1]) for mm in mats)
        return run_with_backend(
            resolved,
            work=work,
            rtl=lambda **kw: self._run_rtl(mats, vec, m, **kw),
            fast=lambda: _fast_kernel(
                self.sr, blocks, vec, self._fast_report, arg_registers
            )[0],
            design=self.design_name,
            **cycle,
        )

    @staticmethod
    def _finish(
        machine: SystolicMachine,
        value: np.ndarray,
        mats: list[np.ndarray],
        phase_values: list[tuple[np.ndarray, np.ndarray]],
        decisions: tuple[np.ndarray, ...] | None = None,
    ) -> PipelinedArrayResult:
        """An rtl run's result: ``value`` leaves the array, and the report
        counts ``m`` iterations per phase and one serial op per element."""
        machine.write_output(int(np.asarray(value).size), label="out:f")
        report = machine.finalize(
            iterations=len(mats) * len(machine.pes),
            serial_ops=sum(int(a.shape[0]) * int(a.shape[1]) for a in mats),
        )
        return PipelinedArrayResult(
            value=value,
            report=report,
            decisions=decisions,
            trace=machine.legacy_trace(),
            events=machine.trace_events(),
            phase_values=tuple(phase_values),
        )


class PipelinedMatrixStringArray(_MatrixStringArray):
    """Simulator of the Fig. 3 pipelined systolic array.

    PE ``i`` executes local step ``s`` of phase ``p`` at overlapped tick
    ``p·m + i + s``; a traced run records that schedule.
    """

    design_name = "fig3-pipelined"
    _fast_report = staticmethod(_fast_report)

    # ------------------------------------------------------------------
    # RTL backend
    # ------------------------------------------------------------------
    def _run_rtl(
        self,
        mats: list[np.ndarray],
        vec: np.ndarray,
        m: int,
        *,
        observe: bool = False,
        **machine_kw: Any,
    ) -> PipelinedArrayResult:
        sr = self.sr
        machine = SystolicMachine(self.design_name, **machine_kw)
        pes = machine.add_pes(m)
        for pe in pes:
            pe.reg("R", sr.zero)  # moving input slot
            pe.reg("ACC", sr.zero)  # stationary result accumulator
            pe.reg("X", sr.zero)  # stationary input (after MOVE)
            pe.reg("Y", sr.zero)  # moving partial-result slot
        machine.read_input(m, label="in:v")  # the initial vector v enters serially

        moving: list[float] = [float(x) for x in vec]
        out = moving
        num_phases = len(mats)
        phase_values: list[tuple[np.ndarray, np.ndarray]] = []

        for phase in range(num_phases):
            mat = mats[num_phases - 1 - phase]  # right-to-left product order
            mode_a = phase % 2 == 0
            machine.begin_phase(f"p{phase}:{'A' if mode_a else 'B'}", start=phase * m)
            x_snap: np.ndarray | None = None
            if observe:
                # The phase input as the array actually holds it: the
                # moving stream in Mode A, the post-MOVE X registers in
                # Mode B (a fault there must show up in the checks).
                x_snap = sr.asarray(
                    moving if mode_a else [pe["X"].value for pe in pes]
                )
            if mode_a:
                out = self._phase_a(machine, mat, moving)
            else:
                out = self._phase_b(machine, mat)
            if observe and x_snap is not None:
                phase_values.append((x_snap, sr.asarray(out)))
            if not mode_a:
                moving = out
            elif len(out) == m:
                # MOVE: stationary result becomes the stationary input of
                # the next (Mode B) phase.  A control action, not a
                # compute iteration — no tick charged (paper Fig. 3(b)).
                # A narrower phase is the last: its result is the scalar.
                for i, pe in enumerate(pes):
                    pe["X"].set(out[i])
                machine.latch()

        # Pipeline drain for the skewed schedule.
        for _ in range(m - 1):
            machine.end_tick()

        if mode_a and len(out) == m:
            out = [pe["X"].value for pe in pes]  # what the last MOVE latched
        value = _string_value(sr, out, m)
        return self._finish(machine, value, mats, phase_values)

    # ------------------------------------------------------------------
    # Phase simulations (RTL)
    # ------------------------------------------------------------------
    def _phase_a(
        self,
        machine: SystolicMachine,
        mat: np.ndarray,
        moving: list[float],
    ) -> list[float]:
        """Mode A: input shifts through R, result stationary in ACC.

        PE ``i`` sees moving element ``x_s`` at local step ``s`` (global
        tick ``s + i`` inside the phase) and needs matrix element
        ``mat[i, s]`` then — the skewed feed the paper's Figure 3(a)
        depicts.  Tick ``t`` of the skew therefore drives only PEs
        ``max(0, t-m+1) … min(t, rows-1)``.  Only the first ``rows`` PEs
        hold a result: a leftmost ``1 × m`` row is P₁ alone, the stream
        "shifted into P₁" and passed on to no one.
        """
        sr = self.sr
        pes = machine.pes
        m = len(pes)
        if len(moving) != m:
            raise SystolicError(f"moving stream has {len(moving)} elements, expected {m}")
        rows = _rows(mat)
        n_rows = len(rows)
        shifts = n_rows == m
        for pe in pes[:n_rows]:
            pe["ACC"].set(sr.zero)
        machine.latch()
        add, mul = sr.scalar_ops
        for t in range(m + n_rows - 1):
            observed = machine.observed
            lo, hi = max(0, t - m + 1), min(t, n_rows - 1)
            for i in range(lo, hi + 1):
                pe = pes[i]
                s = t - i
                machine.enter_pe(i)
                x_in = moving[s] if i == 0 else pes[i - 1]["R"].value
                pe["ACC"].set(add(pe["ACC"].value, mul(rows[i][s], x_in)))
                if shifts:
                    pe["R"].set(x_in)
                machine.exit_pe()
                pe.count_op()
                if observed:
                    machine.emit(
                        "op", i, f"p{machine.phase}:x{s + 1}",
                        tick=machine.overlapped_tick(i, s),
                    )
            machine.stats.input_words += hi - lo + 1  # one matrix element per active PE
            machine.end_tick(advance=t < m)  # overlapped schedule: m ticks per phase
        return [pe["ACC"].value for pe in pes[:n_rows]]

    def _phase_b(
        self,
        machine: SystolicMachine,
        mat: np.ndarray,
    ) -> list[float]:
        """Mode B: input stationary in X, partial results shift through Y.

        Partial ``y_s`` enters P₁ at local step ``s`` and picks up
        ``mat[s, i] ⊗ x_i`` at PE ``i`` — the transposed feed (column
        ``i`` of the matrix into ``P_i``) of the paper.  The skew is the
        one of :meth:`_phase_a`, with ``rows`` partials: a leftmost
        ``1 × m`` row sends one partial through every PE.
        """
        sr = self.sr
        pes = machine.pes
        m = len(pes)
        rows = _rows(mat)
        n_rows = len(rows)
        out: list[float] = [sr.zero] * n_rows
        add, mul = sr.scalar_ops
        for t in range(m + n_rows - 1):
            observed = machine.observed
            lo, hi = max(0, t - n_rows + 1), min(t, m - 1)
            for i in range(lo, hi + 1):
                pe = pes[i]
                s = t - i
                machine.enter_pe(i)
                part_in = sr.zero if i == 0 else pes[i - 1]["Y"].value
                pe["Y"].set(add(part_in, mul(rows[s][i], pe["X"].value)))
                machine.exit_pe()
                pe.count_op()
                if observed:
                    machine.emit(
                        "op", i, f"p{machine.phase}:y{s + 1}",
                        tick=machine.overlapped_tick(i, s),
                    )
            machine.stats.input_words += hi - lo + 1
            machine.end_tick(advance=t < m)
            s_last = t - (m - 1)
            if 0 <= s_last < n_rows:
                out[s_last] = pes[m - 1]["Y"].value
        return out


def _rows(mat: np.ndarray) -> list[list[float]]:
    """A phase's matrix as nested Python floats, read once per phase:
    indexing a list is far cheaper per PE step than a NumPy scalar."""
    return mat.astype(float, copy=False).tolist()


@dataclasses.dataclass(frozen=True)
class StreamedRunResult:
    """Outcome of streaming several problem instances through the array."""

    values: tuple[np.ndarray, ...]
    total_iterations: int
    total_wall_ticks: int  # single fill/drain amortized over the stream
    per_instance_wall_ticks: float


def run_stream(
    array: PipelinedMatrixStringArray, graphs: list[MultistageGraph]
) -> StreamedRunResult:
    """Stream several same-shape instances back-to-back through one array.

    The paper notes "there is no delay between feeding successive input
    matrices into the systolic array"; the same property holds between
    *instances* of the same problem shape: the next instance's sink
    vector enters as the previous instance's result drains, so the
    ``m − 1``-tick fill/drain skew is paid once for the whole stream
    rather than once per instance.  The benchmarks use this to show the
    amortized per-instance time approaching the ideal ``(P−1)·m``.
    """
    if not graphs:
        raise SystolicError("need at least one instance")
    shape0 = graphs[0].stage_sizes
    for g in graphs[1:]:
        if g.stage_sizes != shape0:
            raise SystolicError("streamed instances must share one shape")
    values = []
    iterations = 0
    compute_ticks = 0
    m = 0
    for g in graphs:
        res = array.run_graph(g)
        values.append(np.asarray(res.value))
        iterations += res.report.iterations
        m = res.report.num_pes
        compute_ticks += res.report.wall_ticks - (m - 1)
    total_wall = compute_ticks + (m - 1)  # one shared fill/drain
    return StreamedRunResult(
        values=tuple(values),
        total_iterations=iterations,
        total_wall_ticks=total_wall,
        per_instance_wall_ticks=total_wall / len(graphs),
    )
