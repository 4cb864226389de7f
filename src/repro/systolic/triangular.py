"""Generalized triangular-recurrence arrays (Section 6.2, both problems).

The paper names two polyadic problem families — matrix-chain ordering
(eq. 6) and optimal binary search trees — and both share the triangular
wavefront

    V(i, j) = min over alternatives a of  V(child₁(a)) + V(child₂(a)) + local(a)

whose AND/OR graph maps onto the same two processor organizations: the
multiple-broadcast-bus design (results visible everywhere one step after
completion) and the serialized planar systolic design (results hop one
level per step through the Figure-8 dummy cells).

This module factors the schedule engine out of the matrix-chain-specific
:mod:`repro.systolic.parenthesization` into a *problem spec* interface,
and provides specs for both families:

* :class:`MatrixChainSpec` — identical schedules to the original engine
  (asserted by the tests): ``T_d(N) = N``, ``T_p(N) = 2N``.
* :class:`ObstSpec` — optimal binary search trees; the analogous
  broadcast schedule is ``T_d(n) = n + 1`` for ``n`` keys (a size-``s``
  subproblem has ``s`` alternatives over children summing to ``s − 1``),
  which :func:`obst_t_d` evaluates and the benchmarks verify.

The RTL backend drives the step sweep on a
:class:`~repro.systolic.fabric.SystolicMachine` (one PE per OR-node,
one tick per array step, ``op`` events on the trace bus).  The fast
backend replaces the sweep with a single bottom-up pass — NumPy
reductions over each subproblem's alternatives plus an event-driven
greedy schedule (:func:`greedy_completion`) that yields the identical
completion steps, because capacity-limited folding of unit-time
alternatives is work-conserving: any fold order gives the same per-step
fold counts.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from ..dp.matrix_chain import _check_dims
from ..dp.obst import _check_weights
from .fabric import (
    BackendMismatch,
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
    normalize_backend,
    run_with_backend,
)

__all__ = [
    "TriangularSpec",
    "MatrixChainSpec",
    "ObstSpec",
    "TriangularRun",
    "TriangularArray",
    "obst_t_d",
    "greedy_completion",
]


@dataclasses.dataclass(frozen=True)
class Alternative:
    """One AND-node: two child subproblems plus a local additive cost."""

    child_a: Hashable
    child_b: Hashable
    local: float


class TriangularSpec:
    """Problem interface for the generalized engine.

    Implementations provide base cases, the bottom-up subproblem order
    with each subproblem's alternatives, a ``size`` for the serialized
    transfer delay, and the goal key.
    """

    def leaves(self) -> dict[Hashable, float]:
        raise NotImplementedError

    def subproblems(self) -> Sequence[tuple[Hashable, list[Alternative]]]:
        """Keys with their alternatives, smaller subproblems first."""
        raise NotImplementedError

    def size(self, key: Hashable) -> int:
        """Level index for transfer delays (leaves have the minimum)."""
        raise NotImplementedError

    def goal(self) -> Hashable:
        raise NotImplementedError


class MatrixChainSpec(TriangularSpec):
    """Eq. (6): keys are 1-based subchains ``(i, j)``."""

    def __init__(self, dims: Sequence[int]) -> None:
        self.dims = _check_dims(dims)
        self.n = len(self.dims) - 1

    def leaves(self) -> dict[Hashable, float]:
        return {(i, i): 0.0 for i in range(1, self.n + 1)}

    def subproblems(self) -> Sequence[tuple[Hashable, list[Alternative]]]:
        r = self.dims
        out = []
        for span in range(2, self.n + 1):
            for i in range(1, self.n - span + 2):
                j = i + span - 1
                alts = [
                    Alternative((i, k), (k + 1, j), float(r[i - 1] * r[k] * r[j]))
                    for k in range(i, j)
                ]
                out.append(((i, j), alts))
        return out

    def size(self, key: Hashable) -> int:
        i, j = key
        return j - i + 1

    def goal(self) -> Hashable:
        return (1, self.n)


class ObstSpec(TriangularSpec):
    """Optimal binary search trees: keys are spans ``(i, j)`` with
    ``j ≥ i − 1``; the empty spans ``(i, i−1)`` are the ``q`` leaves."""

    def __init__(self, p: Sequence[float], q: Sequence[float]) -> None:
        self.p, self.q = _check_weights(p, q)
        self.n = self.p.size
        # Prefix sums for w(i, j) = sum(p_i..p_j) + sum(q_{i-1}..q_j).
        self._pc = np.concatenate([[0.0], np.cumsum(self.p)])
        self._qc = np.concatenate([[0.0], np.cumsum(self.q)])

    def _w(self, i: int, j: int) -> float:
        return float(self._pc[j] - self._pc[i - 1] + self._qc[j + 1] - self._qc[i - 1])

    def leaves(self) -> dict[Hashable, float]:
        return {(i, i - 1): float(self.q[i - 1]) for i in range(1, self.n + 2)}

    def subproblems(self) -> Sequence[tuple[Hashable, list[Alternative]]]:
        out = []
        for span in range(1, self.n + 1):
            for i in range(1, self.n - span + 2):
                j = i + span - 1
                w = self._w(i, j)
                alts = [
                    Alternative((i, r - 1), (r + 1, j), w) for r in range(i, j + 1)
                ]
                out.append(((i, j), alts))
        return out

    def size(self, key: Hashable) -> int:
        i, j = key
        return j - i + 2  # empty spans sit at level 1... leaves level 1

    def goal(self) -> Hashable:
        return (1, self.n) if self.n else (1, 0)


def greedy_completion(avail_times: Sequence[int], capacity: int) -> tuple[int, int]:
    """Completion step and busy-step count of one capacity-limited PE.

    ``avail_times`` are the steps at which each unit-time alternative
    becomes available (foldable from the *next* step on); the PE folds
    at most ``capacity`` per step.  Because all alternatives take one
    slot, every work-conserving fold order gives the same per-step fold
    counts, so this sorted-order greedy reproduces the RTL sweep's
    completion step and busy-step count exactly.
    """
    t = 0
    used = capacity
    busy = 0
    for a in sorted(avail_times):
        earliest = a + 1
        if earliest > t:
            t, used, busy = earliest, 1, busy + 1
        elif used < capacity:
            used += 1
        else:
            t, used, busy = t + 1, 1, busy + 1
    return t, busy


def _key_label(key: Hashable) -> str:
    if isinstance(key, tuple) and len(key) == 2:
        return f"V{key[0]},{key[1]}"
    return f"V{key}"


@dataclasses.dataclass(frozen=True)
class TriangularRun:
    """Schedule measurement of a generalized triangular-array run."""

    value: float  # optimal cost at the goal key
    values: dict[Hashable, float]  # every subproblem's optimal cost
    decisions: dict[Hashable, int]  # winning alternative index per key
    steps: int
    completion: dict[Hashable, int]
    alternatives_evaluated: int
    num_processors: int
    #: Uniform measurement record (one PE per OR-node; a tick per step).
    report: RunReport | None = None
    #: (step, pe, label) cell events when ``record_trace`` was requested.
    trace: tuple[tuple[int, int, str], ...] = ()
    #: The full typed event stream from the machine's trace bus.
    events: tuple[TraceEvent, ...] = ()


class TriangularArray:
    """Step-driven engine shared by both processor organizations.

    ``transfer="broadcast"`` models the multiple-bus design (zero
    transfer delay); ``transfer="systolic"`` models the serialized
    planar design (delay = level difference, per Figure 8).  Processors
    fold up to ``alternatives_per_step`` available alternatives per
    step, as in the paper's timing arguments for eqs. (42)-(43).

    On cost ties between alternatives the RTL backend keeps the first
    alternative *folded* (earliest-available, then spec order) while the
    fast backend keeps the first in spec order; ``values``, ``steps``
    and ``completion`` are identical either way.
    """

    def __init__(
        self,
        transfer: str = "broadcast",
        *,
        alternatives_per_step: int = 2,
        base_time: int | None = None,
        backend: str = "rtl",
    ) -> None:
        if transfer not in ("broadcast", "systolic"):
            raise ValueError(f"unknown transfer model {transfer!r}")
        if alternatives_per_step < 1:
            raise ValueError("alternatives_per_step must be >= 1")
        self.transfer = transfer
        self.alternatives_per_step = alternatives_per_step
        self.base_time = base_time if base_time is not None else (
            1 if transfer == "broadcast" else 2
        )
        self.backend = normalize_backend(backend)

    @property
    def design_name(self) -> str:
        return f"triangular-{self.transfer}"

    def _delay(self, parent_size: int, child_size: int) -> int:
        if self.transfer == "broadcast":
            return 0
        return parent_size - child_size

    def run(
        self,
        spec: TriangularSpec,
        *,
        record_trace: bool = False,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
    ) -> TriangularRun:
        resolved = normalize_backend(backend, self.backend)
        sinks = tuple(sinks)
        if record_trace or sinks:
            resolved = "rtl"
        subs = list(spec.subproblems())
        work = sum(len(alts) for _k, alts in subs)
        return run_with_backend(
            resolved,
            work=work,
            rtl=lambda: self._run_rtl(
                spec, subs, record_trace=record_trace, sinks=sinks
            ),
            fast=lambda: self._run_fast(spec, subs),
            validate=self._validate,
            design=self.design_name,
        )

    def _validate(self, rtl: TriangularRun, fast: TriangularRun) -> None:
        ok = (
            np.isclose(rtl.value, fast.value, equal_nan=True)
            and rtl.steps == fast.steps
            and rtl.completion == fast.completion
            and rtl.alternatives_evaluated == fast.alternatives_evaluated
        )
        if not ok:
            raise BackendMismatch(
                f"{self.design_name}: rtl/fast disagree "
                f"(rtl value {rtl.value!r}/{rtl.steps}, "
                f"fast value {fast.value!r}/{fast.steps})"
            )

    # ------------------------------------------------------------------
    # RTL backend
    # ------------------------------------------------------------------
    def _run_rtl(
        self,
        spec: TriangularSpec,
        subs: list[tuple[Hashable, list[Alternative]]],
        *,
        record_trace: bool = False,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
    ) -> TriangularRun:
        machine = SystolicMachine(
            self.design_name, record_trace=record_trace, sinks=sinks
        )
        values: dict[Hashable, float] = dict(spec.leaves())
        done: dict[Hashable, int] = {k: self.base_time for k in values}
        decisions: dict[Hashable, int] = {}
        serial_ops = sum(len(alts) for _k, alts in subs)
        for _ in range(self.base_time):  # leaves load during the base steps
            machine.end_tick()
        machine.read_input(len(values), label="in:leaves")
        if not subs and spec.goal() in values:
            machine.write_output(1, label="out:goal")
            return TriangularRun(
                value=values[spec.goal()],
                values=dict(values),
                decisions={},
                steps=self.base_time,
                completion=dict(done),
                alternatives_evaluated=0,
                num_processors=0,
                report=machine.finalize(iterations=self.base_time, serial_ops=0),
                trace=machine.legacy_trace(),
                events=machine.trace_events(),
            )
        machine.add_pes(len(subs))
        pe_index = {key: idx for idx, (key, _alts) in enumerate(subs)}
        pending: dict[Hashable, list[tuple[int, Alternative]]] = {
            key: list(enumerate(alts)) for key, alts in subs
        }
        best: dict[Hashable, float] = {}
        unresolved = [key for key, _ in subs]
        evaluated = 0
        step = self.base_time
        max_steps = 8 * serial_ops + 64
        while unresolved:
            step += 1
            still: list[Hashable] = []
            for key in unresolved:
                psize = spec.size(key)
                folded = 0
                remaining: list[tuple[int, Alternative]] = []
                for idx, alt in pending[key]:
                    ready = (
                        alt.child_a in done
                        and alt.child_b in done
                        and max(
                            done[alt.child_a]
                            + self._delay(psize, spec.size(alt.child_a)),
                            done[alt.child_b]
                            + self._delay(psize, spec.size(alt.child_b)),
                        )
                        <= step - 1
                    )
                    if ready and folded < self.alternatives_per_step:
                        cost = values[alt.child_a] + values[alt.child_b] + alt.local
                        if key not in best or cost < best[key]:
                            best[key] = cost
                            decisions[key] = idx
                        folded += 1
                        evaluated += 1
                    else:
                        remaining.append((idx, alt))
                pending[key] = remaining
                if folded:
                    machine.pes[pe_index[key]].count_op(folded)
                    machine.emit("op", pe_index[key], _key_label(key))
                    if self.transfer == "broadcast" and not remaining:
                        machine.put_on_bus(1, label=f"bus:{_key_label(key)}")
                if remaining or key not in best:
                    still.append(key)
                else:
                    values[key] = best[key]
                    done[key] = step
            unresolved = still
            machine.end_tick()
            if step > max_steps:  # defensive: must converge
                raise SystolicError("triangular schedule did not converge")
        goal = spec.goal()
        machine.write_output(1, label="out:goal")
        return TriangularRun(
            value=values[goal],
            values=dict(values),
            decisions=decisions,
            steps=done[goal],
            completion=dict(done),
            alternatives_evaluated=evaluated,
            num_processors=len(subs),
            report=machine.finalize(iterations=done[goal], serial_ops=serial_ops),
            trace=machine.legacy_trace(),
            events=machine.trace_events(),
        )

    # ------------------------------------------------------------------
    # Fast backend
    # ------------------------------------------------------------------
    def _run_fast(
        self,
        spec: TriangularSpec,
        subs: list[tuple[Hashable, list[Alternative]]],
    ) -> TriangularRun:
        """Single bottom-up pass: NumPy reductions + greedy schedule."""
        values: dict[Hashable, float] = dict(spec.leaves())
        done: dict[Hashable, int] = {k: self.base_time for k in values}
        serial_ops = sum(len(alts) for _k, alts in subs)
        if not subs and spec.goal() in values:
            report = RunReport(
                design=self.design_name,
                num_pes=0,
                iterations=self.base_time,
                wall_ticks=self.base_time,
                pe_busy_ticks=(),
                pe_op_counts=(),
                serial_ops=0,
                input_words=len(values),
                output_words=1,
                broadcast_words=0,
                backend="fast",
            )
            return TriangularRun(
                value=values[spec.goal()],
                values=dict(values),
                decisions={},
                steps=self.base_time,
                completion=dict(done),
                alternatives_evaluated=0,
                num_processors=0,
                report=report,
            )
        decisions: dict[Hashable, int] = {}
        ops: list[int] = []
        busy: list[int] = []
        for key, alts in subs:
            psize = spec.size(key)
            costs = np.fromiter(
                (values[a.child_a] + values[a.child_b] + a.local for a in alts),
                dtype=float,
                count=len(alts),
            )
            win = int(np.argmin(costs))
            decisions[key] = win
            values[key] = float(costs[win])
            avail = [
                max(
                    done[a.child_a] + self._delay(psize, spec.size(a.child_a)),
                    done[a.child_b] + self._delay(psize, spec.size(a.child_b)),
                )
                for a in alts
            ]
            comp, busy_steps = greedy_completion(avail, self.alternatives_per_step)
            done[key] = comp
            ops.append(len(alts))
            busy.append(busy_steps)
        goal = spec.goal()
        wall = max(done.values())
        report = RunReport(
            design=self.design_name,
            num_pes=len(subs),
            iterations=done[goal],
            wall_ticks=wall,
            pe_busy_ticks=tuple(busy),
            pe_op_counts=tuple(ops),
            serial_ops=serial_ops,
            input_words=len(spec.leaves()),
            output_words=1,
            broadcast_words=len(subs) if self.transfer == "broadcast" else 0,
            backend="fast",
        )
        return TriangularRun(
            value=values[goal],
            values=dict(values),
            decisions=decisions,
            steps=done[goal],
            completion=dict(done),
            alternatives_evaluated=serial_ops,
            num_processors=len(subs),
            report=report,
        )


def obst_t_d(n_keys: int) -> int:
    """Broadcast schedule length for an ``n``-key OBST.

    The recurrence ``T(s) = T(⌈(s−1)/2⌉) + ⌈s/2⌉`` with ``T(0) = 1``
    (a size-``s`` span has ``s`` alternatives whose children sum to
    ``s − 1``); it solves to ``T(n) = n + 1`` — one step more than the
    matrix-chain ``T_d(N) = N`` because of the extra alternative per
    subproblem.  Verified against measured schedules in the benchmarks.
    """
    if n_keys < 0:
        raise ValueError("n_keys must be nonnegative")
    t = 1
    sizes = []
    s = n_keys
    while s > 0:
        sizes.append(s)
        s = (s - 1 + 1) // 2 if s > 1 else 0  # ceil((s-1)/2)
    for s in reversed(sizes):
        t += (s + 1) // 2
    return t
