"""The Fig. 4 design: a linear systolic array with broadcasts.

Functionally identical to the Fig. 3 pipelined array (it evaluates the
same right-to-left matrix-vector string of eq. 8), but the moving vector
is *broadcast* to all PEs instead of shifted through them, which lets
every input matrix be fed in the same (untransposed) format:

* Each product takes ``m`` iterations.  At iteration ``j`` the bus
  carries ``x_j``; PE ``i`` accumulates ``y_i ⊕= M[i, j] ⊗ x_j`` into its
  stationary accumulator.
* At the phase boundary the MOVE signal gates the accumulators into the
  ``S_i`` registers; with FIRST = 0 the ``S`` values are then fed back
  onto the bus one per iteration (round-robin) as the next product's
  input — no transposition, no inter-PE shifting, and no fill/drain skew.

The final row-vector product (single-source graph) accumulates the
scalar result in ``P₁`` while the bus carries the fed-back vector, as in
the paper's last three example iterations.

The RTL backend runs on :class:`~repro.systolic.fabric.SystolicMachine`
and publishes ``op``/``broadcast``/``io`` events on its trace bus.  Only
it models how data moves, so the fast backend is the certified Fig. 3
mat-vec chain (:mod:`repro.systolic.pipelined_array`), plus one
arg-reduction per phase for the ARG registers, with this schedule's
closed-form counters.  Costs are checked once at entry, as on Fig. 3.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Iterable

import numpy as np

from .._readonly import read_only
from ..dp.certificate import certify_backward
from ..graphs import MultistageGraph, StagePath, check_cost_layers
from ..graphs.multistage import _blocks_of
from ..semiring import MIN_PLUS, Semiring
from . import pipelined_array
from .fabric import (
    ProcessingElement,
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
    normalize_backend,
    run_with_backend,
)
from .pipelined_array import _normalize_string, _operands

__all__ = ["BroadcastArrayResult", "BroadcastMatrixStringArray"]


@dataclasses.dataclass(frozen=True)
class BroadcastArrayResult:
    """Output of a broadcast-array run."""

    #: What ``backend="auto"`` compares beside the report (:func:`.run_with_backend`).
    backend_fields: ClassVar[tuple[str, ...]] = ("value", "decisions")

    value: np.ndarray  # final vector (shape (m,)) or scalar (shape ())
    report: RunReport
    #: With ``track_decisions``: per evaluated layer (sink side first),
    #: the winning next-stage vertex per PE — the matrix-string analogue
    #: of the Fig. 5 path registers.
    decisions: tuple[np.ndarray, ...] | None = None
    #: (tick, pe, label) cell events when ``record_trace`` was requested;
    #: there is no fill/drain skew, so ticks are the plain iteration
    #: numbers.  Labels are ``p<phase>:x<j>`` for the bus value consumed.
    trace: tuple[tuple[int, int, str], ...] = ()
    #: The full typed event stream from the machine's trace bus.
    events: tuple[TraceEvent, ...] = ()
    #: Per-phase ``(x, y)`` boundary vectors (bus source entering the
    #: phase, accumulators as latched at its end), captured when
    #: ``observe`` was requested — the ABFT detector inputs.
    phase_values: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    #: The fast kernel's certificate verdict, covering the decisions
    #: when tracked; ``None`` when the rtl machine ran, or the semiring
    #: has no arg-reduction.
    certified: bool | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        read_only((self.value, self.decisions, self.phase_values))


def _fast_report(num_phases: int, rows: int, m: int) -> RunReport:
    """The schedule's closed-form counters for ``num_phases`` operands
    whose leftmost has ``rows`` rows: ``m`` iterations per phase and no
    skew; P1 alone serves a leftmost row vector."""
    serial_ops = (num_phases - 1) * m * m + rows * m
    row_vector = rows == 1 and m > 1
    ops = [(num_phases - row_vector) * m] * m
    ops[0] += row_vector * m
    return RunReport(
        design=BroadcastMatrixStringArray.design_name,
        num_pes=m,
        iterations=num_phases * m,
        wall_ticks=num_phases * m,
        pe_busy_ticks=tuple(ops),
        pe_op_counts=tuple(ops),
        serial_ops=serial_ops,
        input_words=m + serial_ops,
        output_words=rows,
        broadcast_words=num_phases * m,
        backend="fast",
    )


def _arg_registers(sr: Semiring, cand: np.ndarray) -> np.ndarray:
    """A phase's ARG registers from its candidates ``cand[i, j] = M[i, j] ⊗ x_j``:
    per PE, the first broadcast index ``j`` attaining the accumulator."""
    return np.asarray(sr.add_argreduce(cand, axis=1), dtype=np.intp)


def _fast_kernel(
    sr: Semiring, blocks: list[np.ndarray], vec: np.ndarray, track_decisions: bool
) -> BroadcastArrayResult:
    """The fast backend: Fig. 3's mat-vec chain over the operand
    ``blocks``, certified by :func:`~repro.dp.certificate.certify_backward`.
    With ``track_decisions``, each phase adds one raw ⊗ and one
    arg-reduction over the stage vector the chain kept, and the verdict
    also requires every decision to attain its stage value (the
    attainment half of :func:`~repro.dp.certificate.certify_forward`)."""
    runs = pipelined_array._matvec_chain(sr, blocks, vec)
    certified = None
    if sr.add_argreduce is not None:
        certified = bool(certify_backward(sr, blocks, vec, runs))
    decisions: list[np.ndarray] = []
    if track_decisions:
        # Phase order: sink side first.
        for block, (values, inputs) in zip(reversed(blocks), reversed(runs)):
            for mat, x, v in zip(block[::-1], inputs[::-1], values[::-1]):
                cand = sr.raw_mul(mat, x)
                arg = _arg_registers(sr, cand)
                attained = np.take_along_axis(cand, arg[:, None], axis=1)[:, 0] == v
                certified = bool(certified and np.all(attained))
                decisions.append(arg)
    rows, m = blocks[0].shape[-2], vec.size
    value = runs[0][0][0].copy()  # not a view that keeps the stage stack alive
    if rows == 1 and m > 1:
        value = sr.asarray(float(value[0]))
    return BroadcastArrayResult(
        value=value,
        report=_fast_report(sum(len(b) for b in blocks), rows, m),
        decisions=tuple(decisions) if track_decisions else None,
        certified=certified,
    )


class BroadcastMatrixStringArray:
    """Simulator of the Fig. 4 broadcast systolic array."""

    design_name = "fig4-broadcast"

    def __init__(self, semiring: Semiring = MIN_PLUS, backend: str = "rtl") -> None:
        self.sr = semiring
        self.backend = normalize_backend(backend)

    def run(
        self,
        matrices: list[np.ndarray],
        *,
        track_decisions: bool = False,
        record_trace: bool = False,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool | None = None,
        strict: bool = False,
    ) -> BroadcastArrayResult:
        """Evaluate the matrix string right-to-left on the array.

        Same operand contract as the Fig. 3 array: ``matrices[-1]`` is the
        sink-side column vector, interior operands are ``m × m``, and the
        leftmost operand may be a ``1 × m`` row vector yielding a scalar.

        With ``track_decisions``, each PE carries an ``ARG`` register
        recording the broadcast index ``j`` that last improved its
        accumulator — one extra register per PE, exactly the Fig. 5
        path-register idea transplanted — and the per-phase decision
        vectors come back for traceback (:meth:`run_graph_with_path`).

        ``backend`` selects RTL simulation, the vectorized fast path, or
        ``"auto"`` cross-validation.  ``record_trace``, ``sinks``,
        ``injector``, ``observe`` and ``strict`` are cycle-level requests
        with the same meaning as on the Fig. 3 array; they follow the
        rule of :func:`~repro.systolic.fabric.run_with_backend`.

        The operands are checked once here
        (:func:`~repro.graphs.check_cost_layers`): NaN, the wrong
        infinity or an overflowing path sum raises ``GraphError``.
        """
        mats, vec, m = _normalize_string(self.sr, matrices)
        check_cost_layers(self.sr, [*mats, vec], "matrices contain")
        return self._run_string(
            mats, vec, m, _blocks_of(self.sr, mats), track_decisions=track_decisions,
            record_trace=record_trace, backend=backend, sinks=sinks, injector=injector,
            observe=observe, strict=strict,
        )

    def _run_string(
        self,
        mats: list[np.ndarray],
        vec: np.ndarray,
        m: int,
        blocks: list[np.ndarray],
        *,
        backend: str | None,
        track_decisions: bool = False,
        **cycle: Any,
    ) -> BroadcastArrayResult:
        """:meth:`run` on a normalized string whose costs are checked, as
        layers ``mats`` (rtl) and as ``blocks`` (fast); ``cycle`` holds its
        cycle-level keywords."""
        sr = self.sr
        resolved = normalize_backend(backend, self.backend)
        if track_decisions and sr.add_argreduce is None:
            resolved = "rtl"  # fast decisions need an argreduce; RTL tracks inline
        work = sum(int(mm.shape[0]) * int(mm.shape[1]) for mm in mats)
        return run_with_backend(
            resolved,
            work=work,
            rtl=lambda **kw: self._run_rtl(
                mats, vec, m, track_decisions=track_decisions, **kw
            ),
            fast=lambda: _fast_kernel(sr, blocks, vec, track_decisions),
            design=self.design_name,
            **cycle,
        )

    # ------------------------------------------------------------------
    # RTL backend
    # ------------------------------------------------------------------
    def _run_rtl(
        self,
        mats: list[np.ndarray],
        vec: np.ndarray,
        m: int,
        *,
        track_decisions: bool = False,
        record_trace: bool = False,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool = False,
        strict: bool = False,
    ) -> BroadcastArrayResult:
        sr = self.sr
        # The broadcast bus is array-owned (all scoped traffic is each
        # PE's own registers), so the link topology stays the line.
        machine = SystolicMachine(
            self.design_name, record_trace=record_trace, sinks=sinks,
            injector=injector, strict=strict,
        )
        pes = machine.add_pes(m)
        for pe in pes:
            pe.reg("ACC", sr.zero)
            pe.reg("S", sr.zero)  # gated copy of the accumulator (MOVE)
            pe.reg("ARG", -1)  # winning broadcast index (path register)
        machine.read_input(m, label="in:v")  # initial vector v

        bus_source: list[float] = [float(x) for x in vec]  # FIRST = 1 phase input
        num_phases = len(mats)
        serial_ops = 0
        scalar_result: float | None = None
        decisions: list[np.ndarray] = []
        phase_values: list[tuple[np.ndarray, np.ndarray]] = []

        for phase in range(num_phases):
            mat = mats[num_phases - 1 - phase]
            is_row_vector = mat.shape[0] == 1 and m > 1
            serial_ops += mat.shape[0] * mat.shape[1]
            if is_row_vector and phase != num_phases - 1:
                raise SystolicError("row-vector operand must be leftmost")
            machine.begin_phase(f"p{phase}")
            x_snap = sr.asarray(bus_source) if observe else None
            if is_row_vector:
                # Only P1 participates, but the latch is still the
                # machine's: a per-PE end_tick() would desynchronize the
                # array clock (and is a latch-bypass lint violation).
                pes[0]["ACC"].set(sr.zero)
                pes[0]["ARG"].set(-1)
                machine.latch()
            else:
                for pe in pes:
                    pe["ACC"].set(sr.zero)
                    pe["ARG"].set(-1)
                machine.latch()
            for j in range(m):
                x_j = bus_source[j]
                machine.put_on_bus(1, label=f"bus:x{j + 1}")
                if is_row_vector:
                    # Scalar product forms in P1 alone.
                    pe = pes[0]
                    machine.enter_pe(0)
                    self._accumulate(pe, float(mat[0, j]), x_j, j, track_decisions)
                    machine.exit_pe()
                    pe.count_op()
                    machine.emit("op", 0, f"p{phase}:x{j + 1}")
                    machine.stats.input_words += 1
                else:
                    for i, pe in enumerate(pes):
                        machine.enter_pe(i)
                        self._accumulate(pe, float(mat[i, j]), x_j, j, track_decisions)
                        machine.exit_pe()
                        pe.count_op()
                        machine.emit("op", i, f"p{phase}:x{j + 1}")
                    machine.stats.input_words += m  # one matrix element per PE per tick
                machine.end_tick()
            if track_decisions:
                width = 1 if is_row_vector else m
                decisions.append(
                    np.asarray([pes[i]["ARG"].value for i in range(width)], dtype=np.intp)
                )
            if is_row_vector:
                scalar_result = float(pes[0]["ACC"].value)
                if x_snap is not None:
                    phase_values.append((x_snap, sr.asarray([scalar_result])))
            else:
                # MOVE: gate accumulators into S; they become the next
                # phase's bus source (FIRST = 0 feedback path).
                for pe in pes:
                    pe["S"].set(pe["ACC"].value)
                machine.latch()
                bus_source = [float(pe["S"].value) for pe in pes]
                if x_snap is not None:
                    phase_values.append((x_snap, sr.asarray(bus_source)))

        value = (
            sr.asarray(scalar_result)
            if scalar_result is not None
            else sr.asarray(bus_source)
        )
        machine.write_output(int(np.asarray(value).size), label="out:f")
        report = machine.finalize(iterations=num_phases * m, serial_ops=serial_ops)
        return BroadcastArrayResult(
            value=value,
            report=report,
            decisions=tuple(decisions) if track_decisions else None,
            trace=machine.legacy_trace(),
            events=machine.trace_events(),
            phase_values=tuple(phase_values),
        )

    def _accumulate(
        self, pe: ProcessingElement, m_elem: float, x_j: float, j: int, track: bool
    ) -> None:
        """One shift-multiply-accumulate slot, with optional ARG update."""
        sr = self.sr
        old = pe["ACC"].value
        cand = sr.scalar_mul(m_elem, x_j)
        merged = sr.scalar_add(old, cand)
        pe["ACC"].set(merged)
        if track and (merged != old or pe["ARG"].value < 0):
            if merged == cand:
                pe["ARG"].set(j)

    def run_graph(
        self,
        graph: MultistageGraph,
        *,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool | None = None,
        strict: bool = False,
    ) -> BroadcastArrayResult:
        """Evaluate a single-sink multistage graph (backward formulation).

        The graph's costs are read-only and were checked when it was
        built, so they go to the array as they are, the fast kernel
        reading the graph's cost blocks: no copy and no second check.
        """
        return self._run_string(
            *self._graph_string(graph), backend=backend, sinks=sinks,
            injector=injector, observe=observe, strict=strict,
        )

    def _graph_string(
        self, graph: MultistageGraph
    ) -> tuple[list[np.ndarray], np.ndarray, int, list[np.ndarray]]:
        """``graph``'s cost string, normalized for :meth:`_run_string`."""
        if graph.semiring.name != self.sr.name:
            raise SystolicError("graph and array use different semirings")
        return (*_normalize_string(self.sr, graph.costs), _operands(graph.cost_blocks))

    def run_graph_with_path(
        self,
        graph: MultistageGraph,
        *,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool | None = None,
        strict: bool = False,
    ) -> tuple[StagePath, BroadcastArrayResult]:
        """Solve a single-source/sink graph and trace the optimal path.

        Phase ``p`` evaluates layer ``L = num_layers − 2 − p``, so its
        decision vector holds, for each stage-``L`` vertex, the winning
        stage-``L+1`` vertex; the traceback starts at the single source
        and follows decisions toward the sink (the last layer's target
        is the lone sink).  Returns ``(StagePath, BroadcastArrayResult)``;
        tests validate the path re-costs to the array's optimum.
        """
        if not graph.is_single_source_sink:
            raise SystolicError("path traceback needs a single-source/sink graph")
        res = self._run_string(
            *self._graph_string(graph), track_decisions=True, backend=backend,
            sinks=sinks, injector=injector, observe=observe, strict=strict,
        )
        assert res.decisions is not None
        n_layers = graph.num_layers
        nodes = [0]
        # decisions[p] covers layer L = n_layers - 2 - p; walk L = 0.. up.
        for layer in range(n_layers - 1):
            dec = res.decisions[n_layers - 2 - layer]
            nodes.append(int(dec[nodes[-1]]))
        nodes.append(0)  # the lone sink
        # m = 1 degenerates to a length-1 vector rather than a scalar.
        path = StagePath(
            nodes=tuple(nodes), cost=float(np.asarray(res.value).squeeze())
        )
        return path, res
