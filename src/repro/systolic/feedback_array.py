"""The Fig. 5 design: a feedback systolic array for node-value problems.

Solves the serial optimization problem of eq. (4),
``min Σ f(X_k, X_{k+1})``, in its node-value form: only the ``m``
quantized values of each stage variable enter the array — an
order-of-magnitude less input than feeding ``m²`` edge costs per layer —
and each PE *computes* edge costs on the fly with its ``F`` unit.

Architecture (paper Section 3.2, Figure 5):

* ``m`` PEs in a line.  PE ``P_i`` holds three registers — ``R_i`` (the
  moving slot of the input pipeline), ``K_i`` and ``H_i`` (a stationary
  predecessor value ``x_{k-1,i}`` and its optimal prefix cost
  ``h(x_{k-1,i})``) — and three operate units ``F`` (edge cost), ``A``
  (add) and ``C`` (compare/min).
* Stage values stream in one per iteration: ``x_{k,j}`` enters ``P₁`` at
  iteration ``(k-1)·m + j`` paired with a fresh partial ``h = ∞`` and
  marches one PE per iteration.  At PE ``i`` it improves its partial:
  ``h ← min(h, H_i + f(K_i, x_{k,j}))``.
* When a pair leaves ``P_m`` its ``h`` is complete; the **feedback
  controller** returns it on a bus (round-robin; the paper notes one bus
  with a circulating token suffices) to be latched into ``K_j/H_j`` of
  ``P_j`` one iteration later, becoming the stationary predecessor data
  for the next stage.  The bus value is also usable combinationally in
  the arrival tick (the paper's walkthrough computes with a value "fed
  back" in the same iteration), which the simulator honours via a bypass.
  The RTL backend models the one-iteration bus latency with the
  machine's deferred-delivery queue (:meth:`SystolicMachine.after`).
* The final ``m`` iterations set ``F = 0`` and circulate a dummy token
  that folds ``min_i H_i`` — the optimum — completing at iteration
  ``(N+1)·m`` exactly.

Optimal-path extraction: each moving pair carries the index of the PE
whose candidate last improved it (the winning predecessor); ``P_m``
stores it in the stage's *path register* as the pair completes, and the
run traces the registers back into a full :class:`~repro.graphs.StagePath`
— the paper's ``N`` path registers of ``m`` indices each.

The RTL F unit takes ``f(K_i, x)`` from the problem's checked cost
block while both operands are the problem's own values, and evaluates
``edge_cost`` on any operand a fault has corrupted (see
:meth:`FeedbackSystolicArray._run_rtl`); only the ``N·m`` node values
are counted as input.

The fast backend materializes each layer's cost matrix and performs the
stage recurrence ``h_k = h_{k-1} ⊗ C_{k-1}`` as one whole-array semiring
reduction per stage (with ``add_argreduce`` standing in for the path
registers), certifies the stacked stage tables in one pass
(:func:`~repro.dp.certificate.certify_forward`), then reports the
schedule's closed-form counters: the same ``(N+1)·m`` iterations,
``(N−1)·m² + m`` serial ops, and bus traffic.
The same kernel runs a stack of same-shape instances for the batch
engine (:mod:`repro.exec.vectorized`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, ClassVar, Iterable, NamedTuple

import numpy as np

from .._readonly import fields_equal, read_only, restore_read_only, row_builder
from ..dp.certificate import certify_forward
from ..graphs import NodeValueProblem, StagePath
from ..semiring import MIN_PLUS, Semiring
from .fabric import (
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
    normalize_backend,
    run_with_backend,
)

__all__ = ["FeedbackArrayResult", "FeedbackSystolicArray", "feedback_pu"]


class _Pair(NamedTuple):
    """A moving token: (node value, partial h, winning predecessor, kind).

    Immutable, and built once per PE step: a named tuple costs one
    allocation where a frozen dataclass pays a ``__setattr__`` per field.
    """

    x: float
    h: float
    arg: int
    stage: int  # 1-based stage of x; N+1 marks the final dummy sweep
    index: int  # 1-based position of x within its stage


@dataclasses.dataclass(frozen=True)
class FeedbackArrayResult:
    """Output of a feedback-array run."""

    #: What ``backend="auto"`` compares beside the report (:func:`.run_with_backend`).
    backend_fields: ClassVar[tuple[str, ...]] = (
        "optimum", "final_stage_values", "path.nodes",
    )

    optimum: float
    path: StagePath
    final_stage_values: np.ndarray  # h(x_{N,i}) for every i
    report: RunReport
    #: (iteration, pe index, label) events when ``record_trace`` was set;
    #: feeds :func:`repro.systolic.spacetime.render_spacetime`.
    trace: tuple[tuple[int, int, str], ...] = ()
    #: The full typed event stream from the machine's trace bus.
    events: tuple[TraceEvent, ...] = ()
    #: Per-stage ``h`` vectors as completed at P_m (index ``k-1`` holds
    #: stage ``k``; stage 1 must be all 1̄), captured when ``observe`` was
    #: requested — the ABFT detector inputs.  Empty otherwise.
    stage_values: tuple[np.ndarray, ...] = ()
    #: The fast kernel's certificate verdict
    #: (:func:`~repro.dp.certificate.certify_forward`); ``None`` when the
    #: rtl machine ran.
    certified: bool | None = dataclasses.field(default=None, compare=False)

    __eq__ = fields_equal
    __setstate__ = restore_read_only

    def __post_init__(self) -> None:
        # Fast-kernel rows skip this: :func:`_fast_kernel` builds them with
        # ``row_builder`` and keeps the invariant for the whole column.
        read_only((self.final_stage_values, self.stage_values))


def _serial_ops(n_stages: int, m: int) -> int:
    """Uniprocessor operations of ``N`` stages of ``m`` values: ``(N−1)·m² + m``."""
    return (n_stages - 1) * m * m + m


def feedback_pu(num_stages: int, m: int) -> float:
    """The paper's PU expression for this design:
    ``((N-1)·m² + m) / ((N+1)·m·m)`` for ``N`` stages of ``m`` values."""
    return _serial_ops(num_stages, m) / ((num_stages + 1) * m * m)


def _fast_report(n_stages: int, m: int) -> RunReport:
    """The schedule's closed-form counters for ``N`` stages of ``m`` values."""
    iterations = (n_stages + 1) * m
    # Every PE serves all m pairs of stages 2..N; of the final F = 0
    # sweep, pair j reaches PE i only while N·m + j + i ≤ (N+1)·m,
    # i.e. PE i sees m − i of them before the schedule ends.
    ops = tuple((n_stages - 1) * m + (m - i) for i in range(m))
    return RunReport(
        design=FeedbackSystolicArray.design_name,
        num_pes=m,
        iterations=iterations,
        wall_ticks=iterations,
        pe_busy_ticks=ops,
        pe_op_counts=ops,
        serial_ops=_serial_ops(n_stages, m),
        input_words=n_stages * m,
        output_words=m + 1,
        broadcast_words=2 * n_stages * m,
        backend="fast",
    )


def _forward_sweep(sr: Semiring, layers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stage recurrence ``h_1 = 1̄``; ``h_k[j] = ⊕_i h_{k-1}[i] ⊗ C[i, j]``.

    Returns the ``(N, …, m)`` stack of every stage's ``h`` and the
    ``(N − 1, …, m)`` path registers.  The argreduce along the
    predecessor axis is exactly the path register: the first PE index
    achieving the folded optimum, the same tie-break as the moving
    pair's strict-improvement update.
    """
    lead, m = layers.shape[1:-2], layers.shape[-1]
    hs = np.empty((len(layers) + 1,) + lead + (m,), dtype=float)
    hs[0] = sr.one
    registers = np.empty((len(layers),) + lead + (m,), dtype=np.intp)
    mul = sr.raw_mul
    for k, layer in enumerate(layers):
        cand = mul(hs[k][..., :, None], layer)
        registers[k] = sr.add_argreduce(cand, axis=-2)
        hs[k + 1] = sr.add_reduce(cand, axis=-2)
    return hs, registers


def _fast_kernel(sr: Semiring, layers: np.ndarray) -> list[FeedbackArrayResult]:
    """The fast backend on one instance or on a stack of them.

    ``layers`` stacks the ``N − 1`` cost matrices: ``(N − 1, m, m)`` for
    one instance (its cost block), ``(N − 1, B, m, m)`` for a stack of
    ``B``, all checked by
    :func:`~repro.graphs.check_cost_layers`, so ⊗ is the semiring's raw
    form.  :func:`_forward_sweep` runs the recurrence and
    :func:`~repro.dp.certificate.certify_forward` certifies its tables;
    each result keeps only the verdict, in ``certified``.  Each instance
    of a stack goes through the same operations as it would alone, so
    its result is bit-identical.  Returns one result per instance, in
    row-major order of the leading axes, each built by
    :func:`~repro._readonly.row_builder` with its own read-only
    ``final_stage_values``.
    """
    hs, registers = _forward_sweep(sr, layers)
    n_layers, lead, m = len(registers), hs.shape[1:-1], hs.shape[-1]
    rows = hs[-1].reshape(-1, m)
    optima = sr.add_reduce(rows, axis=-1)
    winners = sr.add_argreduce(rows, axis=-1)
    verdicts = certify_forward(
        sr, layers, hs, registers, optima.reshape(lead), winners.reshape(lead)
    )
    # One flat list, not one list per register: fewer objects for the
    # garbage collector to track on large stacks.
    flat = registers.ravel().tolist()
    count = len(rows)
    report = _fast_report(n_layers + 1, m)
    # ``__post_init__``'s invariant, for the whole column: each row owns
    # a read-only copy, so a cached result does not keep the stack alive.
    finals = [read_only(final_h.copy()) for final_h in rows]
    new_path, new_result = row_builder(StagePath), row_builder(FeedbackArrayResult)
    results: list[FeedbackArrayResult] = []
    for i, (final_h, optimum, winner, ok) in enumerate(
        zip(finals, optima.tolist(), winners.tolist(), verdicts.ravel().tolist())
    ):
        # Trace the path registers back from the final stage's winner.
        nodes = [winner]
        for k in range(n_layers - 1, -1, -1):
            nodes.append(flat[(k * count + i) * m + nodes[-1]])
        nodes.reverse()
        results.append(
            new_result(
                optimum=optimum,
                path=new_path(nodes=tuple(nodes), cost=optimum),
                final_stage_values=final_h,
                report=report,
                certified=ok,
            )
        )
    return results


class FeedbackSystolicArray:
    """Simulator of the Fig. 5 feedback systolic array."""

    design_name = "fig5-feedback"

    def __init__(self, semiring: Semiring = MIN_PLUS, backend: str = "rtl") -> None:
        if semiring.add_argreduce is None:
            raise SystolicError("feedback array needs an arg-reduction for traceback")
        self.sr = semiring
        self.backend = normalize_backend(backend)

    def run(
        self,
        problem: NodeValueProblem,
        *,
        record_trace: bool = False,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool | None = None,
        strict: bool = False,
    ) -> FeedbackArrayResult:
        """Run the array on a node-value problem with uniform stage width.

        Executes exactly ``(N+1)·m`` iterations for ``N`` stages of ``m``
        quantized values, per the paper's schedule, and returns the
        optimum, a traced optimal path, the final-stage ``h`` values and
        the measurement report.  With ``record_trace`` the per-iteration
        PE activity is captured for space-time rendering: ``x{k},{j}``
        for a moving stage value, ``F0`` for the final comparison sweep,
        ``-`` for a stage-1 pass-through.

        ``backend`` selects RTL simulation, the vectorized fast path, or
        ``"auto"`` cross-validation.  ``record_trace``, ``sinks``,
        ``injector``, ``observe`` and ``strict`` are cycle-level requests
        as on the Fig. 3 array (``observe`` fills ``stage_values``); they
        follow the rule of :func:`~repro.systolic.fabric.run_with_backend`.
        """
        sr = self.sr
        if problem.semiring.name != sr.name:
            raise SystolicError("problem and array use different semirings")
        if not problem.is_uniform:
            raise SystolicError(
                "the Fig. 5 array requires a uniform number of quantized values "
                f"per stage; got sizes {problem.stage_sizes}"
            )
        n_stages = problem.num_stages
        m = problem.stage_sizes[0]
        return run_with_backend(
            normalize_backend(backend, self.backend),
            work=_serial_ops(n_stages, m),
            rtl=lambda **kw: self._run_rtl(problem, n_stages, m, **kw),
            fast=lambda: _fast_kernel(sr, problem.cost_blocks[0])[0],
            design=self.design_name,
            record_trace=record_trace, sinks=sinks, injector=injector,
            observe=observe, strict=strict,
        )

    # ------------------------------------------------------------------
    # RTL backend
    # ------------------------------------------------------------------
    def _run_rtl(
        self,
        problem: NodeValueProblem,
        n_stages: int,
        m: int,
        *,
        record_trace: bool = False,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool = False,
        strict: bool = False,
    ) -> FeedbackArrayResult:
        """The cycle-level run: ``(N+1)·m`` iterations on the machine.

        The F unit reads ``g`` from the problem's checked cost block
        (:attr:`~repro.graphs.NodeValueProblem.cost_blocks`, which raises
        :class:`~repro.graphs.GraphError` on NaN or the wrong infinity
        before the first tick), the table the fast kernel and the oracle
        read, so a healthy run is bit-identical to them and makes no
        ``edge_cost`` call of its own.  The identity guard: a PE looks a
        cost up only when its operands are the problem's own value
        objects — the pair's ``x`` is ``xs[k-1][j-1]`` for its stage
        ``k`` and index ``j``, and ``K`` at PE ``i`` is ``xs[k-2][i]``.
        Any other operand (a flipped, stuck or stale ``K``, or a word of
        another stage) is a different object, so the guard fails closed
        and the F unit evaluates ``edge_cost`` on the operands it holds.
        """
        sr = self.sr
        edge_cost, asarray = problem.edge_cost, np.asarray
        add, mul = sr.scalar_ops
        zero, one = sr.zero, sr.one
        # Python floats read once: the input stream hands out these very
        # objects, which the identity guard compares against.
        xs = [v.tolist() for v in problem.values]
        # costs[k] is stage k's cost layer as Python floats, read at the
        # stage's first lookup: at most two stages are in the array at any
        # tick, so the layer of stage k-2 is dropped then.  A stale pair of
        # a dropped stage (a fault) reads its layer again.
        block = problem.cost_blocks[0]
        costs: list[list[list[float]] | None] = [None] * (n_stages + 1)

        def enter_layer(k: int) -> list[list[float]]:
            costs[k - 2] = None
            layer = costs[k] = block[k - 2].tolist()
            return layer

        # The feedback bus is driven by the array-level controller (the
        # deliver() actions run in start_tick at array scope), so the PE
        # link topology stays the line.
        machine = SystolicMachine(
            self.design_name, record_trace=record_trace, sinks=sinks,
            injector=injector, strict=strict,
        )
        pes = machine.add_pes(m)
        for pe in pes:
            pe.reg("PAIR", None)  # moving slot (R of the paper + its h/arg)
            pe.reg("K", None)  # stationary predecessor value
            pe.reg("H", None)  # stationary predecessor prefix cost

        # Input stream: stage-1 values ride through with h = 1̄ (= 0 cost
        # prefix); stages 2..N enter with fresh h = 0̄ (= ∞); the final m
        # iterations inject the F = 0 dummy sweep.
        def stream(it: int) -> _Pair | None:
            """Pair entering P₁ at 1-based iteration ``it``."""
            k, j = divmod(it - 1, m)
            k, j = k + 1, j + 1
            if k == 1:
                return _Pair(xs[0][j - 1], one, -1, 1, j)
            if k <= n_stages:
                return _Pair(xs[k - 1][j - 1], zero, -1, k, j)
            if k == n_stages + 1:
                return _Pair(0.0, zero, -1, n_stages + 1, j)
            return None

        total_iterations = (n_stages + 1) * m
        # path_registers[k][i] = winning predecessor (0-based, stage k-1)
        # of value i of stage k; stage indices 2..N, plus the final sweep.
        path_registers: dict[int, list[int]] = {
            k: [-1] * m for k in range(2, n_stages + 1)
        }
        final_h = [sr.zero] * m
        # With ``observe``: h vectors per stage as completed at P_m, for
        # the per-stage ABFT checks (stage 1 must come out all 1̄).
        stage_h: list[list[float]] | None = (
            [[sr.zero] * m for _ in range(n_stages)] if observe else None
        )
        optimum: float | None = None
        best_final_index = -1
        # Combinational bypass of the feedback bus: values delivered this
        # iteration are visible before the latch (paper's walkthrough).
        bypass: dict[int, tuple[float, float]] = {}

        def deliver(tgt: int, fx: float, fh: float) -> Callable[[], None]:
            def action() -> None:
                bypass[tgt] = (fx, fh)
                pes[tgt]["K"].set(fx)
                pes[tgt]["H"].set(fh)
                machine.put_on_bus(2, label=f"fb:P{tgt + 1}")

            return action

        for it in range(1, total_iterations + 1):
            bypass.clear()
            # Deliver feedback scheduled to arrive this iteration; it is
            # latched at the tick edge but visible combinationally now.
            machine.start_tick()
            observed = machine.observed

            # Moving pairs advance one PE per iteration; PE i processes
            # the pair arriving from PE i-1 (or the input stream).  Every
            # PE runs every iteration: one not yet reached still stages
            # its empty PAIR, a write the fault layer can drop.
            for i in range(m - 1, -1, -1):
                pe = pes[i]
                machine.enter_pe(i)
                if i == 0:
                    pair = stream(it)
                    if pair is not None and pair.stage <= n_stages:
                        machine.stats.input_words += 1
                else:
                    pair = pes[i - 1]["PAIR"].value
                if pair is None:
                    pe["PAIR"].set(None)
                    machine.exit_pe()
                    continue
                if i in bypass:
                    k_val, h_val = bypass[i]
                else:
                    k_val, h_val = pe["K"].value, pe["H"].value
                stage = pair.stage
                if stage == 1 or k_val is None:
                    # Stage-1 transit (or PE not yet armed): pure shift.
                    if observed:
                        label = "F0" if stage > n_stages else (
                            "-" if stage == 1 else f"x{stage},{pair.index}"
                        )
                        machine.emit("shift", i, label)
                    pe["PAIR"].set(pair)
                    machine.exit_pe()
                    continue
                if observed:
                    label = "F0" if stage > n_stages else f"x{stage},{pair.index}"
                    machine.emit("op", i, label)
                if h_val is None:
                    # A dead link into H armed K without its prefix cost:
                    # a missing prefix is the semiring zero.
                    h_val = zero
                if stage <= n_stages:
                    x, j = pair.x, pair.index - 1
                    if x is xs[stage - 1][j] and k_val is xs[stage - 2][i]:
                        layer = costs[stage] or enter_layer(stage)
                        f = layer[i][j]
                    else:
                        f = float(edge_cost(asarray(k_val), asarray(x)))
                    cand = mul(h_val, f)
                else:
                    cand = mul(h_val, one)  # F = 0 sweep
                h = pair.h
                merged = add(h, cand)
                improved = merged != h or pair.arg < 0
                pe.count_op()
                pe["PAIR"].set(
                    _Pair(
                        pair.x,
                        merged,
                        i if improved and merged == cand else pair.arg,
                        stage,
                        pair.index,
                    )
                )
                machine.exit_pe()

            # Tick edge: latch registers, advance the clock.
            machine.end_tick()

            # The pair now resident in P_m just completed its traversal:
            # schedule its feedback and record path/answers.
            done = pes[m - 1]["PAIR"].value
            if done is not None:
                if (
                    stage_h is not None
                    and done.stage <= n_stages
                    and 1 <= done.index <= m
                ):
                    stage_h[done.stage - 1][done.index - 1] = done.h
                if done.stage <= n_stages:
                    machine.after(0, deliver(done.index - 1, done.x, done.h))
                if 2 <= done.stage <= n_stages:
                    path_registers[done.stage][done.index - 1] = done.arg
                if done.stage == n_stages:
                    final_h[done.index - 1] = done.h
                    machine.stats.output_words += 1
                if done.stage == n_stages + 1 and optimum is None:
                    optimum = done.h
                    best_final_index = done.arg
                    machine.stats.output_words += 1

        if optimum is None:
            raise SystolicError("schedule ended before the final sweep completed")

        nodes = [0] * n_stages
        nodes[n_stages - 1] = best_final_index
        for k in range(n_stages, 1, -1):
            nodes[k - 2] = path_registers[k][nodes[k - 1]]
        path = StagePath(nodes=tuple(nodes), cost=float(optimum))

        report = machine.finalize(
            iterations=total_iterations, serial_ops=_serial_ops(n_stages, m)
        )
        return FeedbackArrayResult(
            optimum=float(optimum),
            path=path,
            final_stage_values=sr.asarray(final_h),
            report=report,
            trace=machine.legacy_trace(),
            events=machine.trace_events(),
            stage_values=(
                tuple(sr.asarray(v) for v in stage_h) if stage_h is not None else ()
            ),
        )
