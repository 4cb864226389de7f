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

The final row-vector product (single-source graph) is the same phase on
one row: only ``P₁`` accumulates, while the bus carries the fed-back
vector, as in the paper's last three example iterations; that last phase
gets no MOVE and its output is the scalar value.

The RTL backend runs on :class:`~repro.systolic.fabric.SystolicMachine`
and publishes ``op``/``broadcast``/``io`` events on its trace bus.  Only
it models how data moves, so everything else is Fig. 3's
(:mod:`repro.systolic.pipelined_array`): the front end that checks the
operands and dispatches the backend, the result type, and the fast
kernel — the certified mat-vec chain at B = 1, plus one arg-reduction per
phase for the ARG registers — reported with this schedule's closed-form
counters.  Costs are checked once at entry, as on Fig. 3.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from ..graphs import MultistageGraph, StagePath
from ..semiring import Semiring
from .fabric import (
    ProcessingElement,
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
)
from .pipelined_array import (
    ArgRegisters,
    PipelinedArrayResult,
    _MatrixStringArray,
    _string_value,
)

__all__ = ["BroadcastArrayResult", "BroadcastMatrixStringArray"]

#: Fig. 3 and Fig. 4 runs return one result type.
BroadcastArrayResult = PipelinedArrayResult


def _fast_report(num_phases: int, rows: int, m: int) -> RunReport:
    """The schedule's closed-form counters for ``num_phases`` operands
    whose leftmost has ``rows`` rows: ``m`` iterations per phase and no
    skew; in the last phase only the first ``rows`` PEs accumulate."""
    serial_ops = (num_phases - 1) * m * m + rows * m
    ops = tuple((num_phases - 1) * m + m * (i < rows) for i in range(m))
    return RunReport(
        design=BroadcastMatrixStringArray.design_name,
        num_pes=m,
        iterations=num_phases * m,
        wall_ticks=num_phases * m,
        pe_busy_ticks=ops,
        pe_op_counts=ops,
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


class BroadcastMatrixStringArray(_MatrixStringArray):
    """Simulator of the Fig. 4 broadcast systolic array.

    Its ``run`` takes one option more than Fig. 3's: with
    ``track_decisions``, each PE carries an ``ARG`` register recording
    the broadcast index ``j`` that last improved its accumulator — one
    extra register per PE, exactly the Fig. 5 path-register idea
    transplanted — and the per-phase decision vectors come back for
    traceback (:meth:`run_graph_with_path`).
    """

    design_name = "fig4-broadcast"
    _fast_report = staticmethod(_fast_report)
    run_options = ("track_decisions",)

    def _decision_pass(self, backend: str) -> tuple[str, ArgRegisters]:
        """A ``track_decisions`` run's backend and ARG-register pass: the
        fast pass needs an arg-reduction, so without one the rtl machine,
        which tracks ARG inline, runs."""
        return ("rtl" if self.sr.add_argreduce is None else backend), _arg_registers

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
        observe: bool = False,
        **machine_kw: Any,
    ) -> BroadcastArrayResult:
        sr = self.sr
        # The broadcast bus is array-owned (all scoped traffic is each
        # PE's own registers), so the link topology stays the line.
        machine = SystolicMachine(self.design_name, **machine_kw)
        pes = machine.add_pes(m)
        for pe in pes:
            pe.reg("ACC", sr.zero)
            pe.reg("S", sr.zero)  # gated copy of the accumulator (MOVE)
            pe.reg("ARG", -1)  # winning broadcast index (path register)
        machine.read_input(m, label="in:v")  # initial vector v

        bus_source: list[float] = [float(x) for x in vec]  # FIRST = 1 phase input
        num_phases = len(mats)
        decisions: list[np.ndarray] = []
        phase_values: list[tuple[np.ndarray, np.ndarray]] = []

        for phase in range(num_phases):
            mat = mats[num_phases - 1 - phase]
            # The first ``rows`` PEs accumulate: all of them, or P1 alone
            # for a leftmost row vector, the paper's last three iterations.
            active = pes[: len(mat)]
            machine.begin_phase(f"p{phase}")
            x_snap = sr.asarray(bus_source) if observe else None
            for pe in active:
                pe["ACC"].set(sr.zero)
                pe["ARG"].set(-1)
            machine.latch()
            for j in range(m):
                x_j = bus_source[j]
                machine.put_on_bus(1, label=f"bus:x{j + 1}")
                for i, pe in enumerate(active):
                    machine.enter_pe(i)
                    self._accumulate(pe, float(mat[i, j]), x_j, j, track_decisions)
                    machine.exit_pe()
                    pe.count_op()
                    machine.emit("op", i, f"p{phase}:x{j + 1}")
                machine.stats.input_words += len(active)  # one element per active PE
                machine.end_tick()
            if track_decisions:
                decisions.append(
                    np.asarray([pe["ARG"].value for pe in active], dtype=np.intp)
                )
            if len(active) < m:
                # A narrower phase is the last: P1's accumulator is the scalar.
                bus_source = [float(pe["ACC"].value) for pe in active]
            else:
                # MOVE: gate accumulators into S; they become the next
                # phase's bus source (FIRST = 0 feedback path).
                for pe in pes:
                    pe["S"].set(pe["ACC"].value)
                machine.latch()
                bus_source = [float(pe["S"].value) for pe in pes]
            if x_snap is not None:
                phase_values.append((x_snap, sr.asarray(bus_source)))

        return self._finish(
            machine, _string_value(sr, bus_source, m), mats, phase_values,
            tuple(decisions) if track_decisions else None,
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
