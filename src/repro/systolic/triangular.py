"""Generalized triangular-recurrence arrays (Section 6.2, both problems).

The paper names two polyadic problem families — matrix-chain ordering
(eq. 6) and optimal binary search trees — and both share the triangular
wavefront

    V(i, j) = min over alternatives a of  V(child₁(a)) + V(child₂(a)) + local(a)

whose AND/OR graph maps onto the same two processor organizations: the
multiple-broadcast-bus design (results visible everywhere one step after
completion) and the serialized planar systolic design (results hop one
level per step through the Figure-8 dummy cells).

Both families are *problem specs* over one rtl sweep (:func:`_sweep`),
which the matrix-chain parenthesizers of
:mod:`repro.systolic.parenthesization` run too:

* :class:`MatrixChainSpec` — eq. (6): ``T_d(N) = N``, ``T_p(N) = 2N``.
* :class:`ObstSpec` — optimal binary search trees; the analogous
  broadcast schedule is ``T_d(n) = n + 1`` for ``n`` keys (a size-``s``
  subproblem has ``s`` alternatives over children summing to ``s − 1``),
  which :func:`obst_t_d` evaluates and the benchmarks verify.

The sweep drives a :class:`~repro.systolic.fabric.SystolicMachine` (one
PE per OR-node, one tick per array step, ``op`` events on the trace
bus).

Both are interval specs (:class:`IntervalSpec`), and the fast backend
of every Section-6.2 array (parenthesizers and :class:`TriangularArray`)
is three functions over that form: :func:`_interval_dp` (one broadcast
expression and one ``argmin`` per interval size),
:func:`_interval_schedule` (the completion map and closed-form
:class:`RunReport`, memoized, from one :func:`greedy_completion` run per
size) and :func:`~repro.dp.certificate.certify_interval`.  Other specs
run rtl only.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Callable, ClassVar, Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .._readonly import read_only
from ..dp.certificate import certify_interval
from ..dp.matrix_chain import _check_dims
from ..dp.obst import _check_weights
from .fabric import (
    Register,
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
    normalize_backend,
    run_with_backend,
)

__all__ = [
    "TriangularSpec",
    "IntervalSpec",
    "MatrixChainSpec",
    "ObstSpec",
    "TriangularRun",
    "TriangularArray",
    "obst_t_d",
    "greedy_completion",
]


class Alternative(NamedTuple):
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


class IntervalSpec(TriangularSpec):
    """A spec over the intervals of a row of ``m`` leaves (the fast form).

    Leaf interval ``[x, y]`` (1-based) splits after any ``x ≤ k < y`` into
    ``[x, k]`` and ``[k + 1, y]`` at cost ``local(x, y, k)``, one expression
    over broadcast index arrays; its size is its leaf count.  A subclass
    gives float64 ``leaf_values``, :meth:`local` and ``size_offset`` (the
    key of ``[x, y]`` is ``(x, y + 1 − size_offset)``); the rest follows.
    """

    size_offset: ClassVar[int]
    leaf_values: np.ndarray

    def local(self, x: np.ndarray, y: np.ndarray, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def leaves(self) -> dict[Hashable, float]:
        off = 1 - self.size_offset
        return {(x, x + off): v for x, v in enumerate(self.leaf_values.tolist(), 1)}

    def subproblems(self) -> Sequence[tuple[Hashable, list[Alternative]]]:
        m, off = self.leaf_values.size, 1 - self.size_offset
        out = []
        for size in range(2, m + 1):
            x = np.arange(1, m - size + 2)
            k = x + np.arange(size - 1)[:, None]  # [split offset, cell]
            local = np.broadcast_to(self.local(x, x + size - 1, k), k.shape)
            for i, costs in enumerate(local.T.astype(float).tolist(), 1):
                j = i + size - 1 + off
                alts = [
                    Alternative((i, s + off), (s + 1, j), c)
                    for s, c in enumerate(costs, i)
                ]
                out.append(((i, j), alts))
        return out

    def size(self, key: Hashable) -> int:
        i, j = key
        return j - i + self.size_offset

    def goal(self) -> Hashable:
        return (1, self.leaf_values.size + 1 - self.size_offset)


class MatrixChainSpec(IntervalSpec):
    """Eq. (6): keys are 1-based subchains ``(i, j)``, one leaf per matrix."""

    size_offset = 1

    def __init__(self, dims: Sequence[int]) -> None:
        self.dims = _check_dims(dims)
        self.n = len(self.dims) - 1
        self.leaf_values = np.zeros(self.n)
        self._r = np.asarray(self.dims, dtype=np.int64)

    def local(self, x: np.ndarray, y: np.ndarray, k: np.ndarray) -> np.ndarray:
        return self._r[x - 1] * self._r[k] * self._r[y]  # r_{i-1}·r_k·r_j, exact int64


class ObstSpec(IntervalSpec):
    """Optimal binary search trees: keys are spans ``(i, j)`` with
    ``j ≥ i − 1``; the empty spans ``(i, i−1)`` are the ``q`` leaves.

    Key ``(i, j)`` is the leaf interval ``[i, j + 1]``, and root ``r``
    splits it after leaf ``r`` into ``(i, r − 1)`` and ``(r + 1, j)``.
    """

    size_offset = 2  # span length + 1: an empty span has size 1

    def __init__(self, p: Sequence[float], q: Sequence[float]) -> None:
        self.p, self.q = _check_weights(p, q)
        self.n = self.p.size
        self.leaf_values = self.q
        # Prefix sums for w(i, j) = sum(p_i..p_j) + sum(q_{i-1}..q_j).
        self._pc = np.concatenate([[0.0], np.cumsum(self.p)])
        self._qc = np.concatenate([[0.0], np.cumsum(self.q)])

    def local(self, x: np.ndarray, y: np.ndarray, k: np.ndarray) -> np.ndarray:
        # w(i, j) of key (i, j) = (x, y - 1), whatever the root.
        return self._pc[y - 1] - self._pc[x - 1] + self._qc[y] - self._qc[x - 1]


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


def _transfer_delay(transfer: str, parent_size: int, child_size: int) -> int:
    """Steps a result takes to its consumer: none on the broadcast buses,
    one per level through the serialized design's Figure-8 dummy cells."""
    return 0 if transfer == "broadcast" else parent_size - child_size


def _interval_dp(
    spec: IntervalSpec, dtype: type = np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """The fast kernel: ``spec``'s value and split tables in ``dtype``.

    ``V[x, y]`` is the optimum of leaf interval ``[x, y]`` and ``K[x, y]``
    the leaf it splits after (1-based ``(m + 2, m + 2)`` arrays, as
    :func:`~repro.dp.certificate.certify_interval` reads them).  Per size,
    every split of every cell is one ``(size − 1, cells)`` expression and
    one ``argmin``, whose first minimum keeps the lowest split on ties.
    """
    m = spec.leaf_values.size
    V = np.zeros((m + 2, m + 2), dtype=dtype)
    K = np.zeros((m + 2, m + 2), dtype=np.int64)
    np.fill_diagonal(V[1:-1, 1:-1], spec.leaf_values)
    for size in range(2, m + 1):
        x = np.arange(1, m - size + 2)
        y = x + size - 1
        k = x + np.arange(size - 1)[:, None]  # [split offset, cell]
        costs = V[x, k] + V[k + 1, y] + spec.local(x, y, k)
        arg = costs.argmin(axis=0)
        V[x, y] = costs[arg, np.arange(x.size)]
        K[x, y] = x + arg
    return V, K


@functools.lru_cache(maxsize=256)
def _interval_schedule(
    design: str, transfer: str, capacity: int, base_time: int,
    size_offset: int, m: int, input_words: int, by_row: bool,
) -> tuple[Mapping[tuple[int, int], int], RunReport]:
    """The read-only completion map (leaves, then by size and ``x``) and
    closed-form :class:`RunReport` of ``m`` leaves, shared by every fast
    run of one configuration since neither depends on values or costs.

    Size-``s`` cells share one availability multiset (child sizes ``a``
    and ``s − a``), so one greedy run covers the whole size.  The
    per-PE counters follow the caller's PE order: by size then ``x`` (the
    spec's subproblem order), or by ``x`` then ``y`` (``by_row``).
    """
    delay = functools.partial(_transfer_delay, transfer)
    done = {1: base_time}
    busy: dict[int, int] = {}
    for size in range(2, m + 1):
        avail = [
            max(done[a] + delay(size, a), done[size - a] + delay(size, size - a))
            for a in range(1, size)
        ]
        done[size], busy[size] = greedy_completion(avail, capacity)
    completion = {  # interval [x, y] is the key (x, y + 1 - size_offset)
        (x, x + size - size_offset): done[size]
        for size in range(1, m + 1) for x in range(1, m - size + 2)
    }
    if by_row:
        sizes = [y - x + 1 for x in range(1, m + 1) for y in range(x + 1, m + 1)]
    else:
        sizes = [size for size in range(2, m + 1) for _x in range(m - size + 1)]
    report = RunReport(
        design=design,
        num_pes=len(sizes),
        iterations=done[m],
        wall_ticks=done[m],  # the goal interval completes last
        pe_busy_ticks=tuple(busy[s] for s in sizes),
        pe_op_counts=tuple(s - 1 for s in sizes),  # size-1 alternatives per PE
        serial_ops=sum(sizes) - len(sizes),
        input_words=input_words,
        output_words=1,
        broadcast_words=len(sizes) if transfer == "broadcast" else 0,
        backend="fast",
    )
    return read_only(completion), report


def _sweep(
    machine: SystolicMachine,
    leaves: Mapping[Hashable, float],
    subs: Sequence[tuple[Hashable, Sequence[Alternative]]],
    *,
    size: Callable[[Hashable], int],
    delay: Callable[[int, int], int],
    capacity: int,
    base_time: int,
    label: Callable[[Hashable], str],
) -> tuple[dict[Hashable, float], dict[Hashable, int], dict[Hashable, int], int]:
    """The rtl step sweep of every Section-6.2 array, on ``machine``.

    One PE per subproblem, in the order of ``subs``, folds up to
    ``capacity`` available alternatives per step into the running minimum
    in its clocked ``M`` register (the faultable data plane; the
    scoreboard is the fault-free control plane).  An alternative is
    available ``delay(size(parent), size(child))`` steps after its later
    child completes.  The scoreboard is event-driven: an alternative is
    timed once both children are done, and a PE is scanned only at the
    steps where one may fold, in PE order, folding in spec order (so the
    first alternative folded wins a cost tie).  A scan that folds nothing
    has no visible effect, so this keeps every fold, event and completion
    step of an every-cell, every-step sweep.

    The caller has run the ``base_time`` leaf-loading ticks.  Returns
    every key's latched cost and completion step (leaves included), each
    subproblem's winning alternative index, and the number of folds
    (every alternative folds once, so that is the serial op count).
    """
    inf = float("inf")
    pes = machine.add_pes(len(subs))
    # Every key's cost register; the leaves' are loaded before the sweep.
    cells = {key: Register(f"leaf{key}", v) for key, v in leaves.items()}
    cells.update((key, pe.reg("M", None)) for (key, _alts), pe in zip(subs, pes))
    # child -> the alternatives it feeds: (PE, alternative, children, delays)
    feeds: dict[Hashable, list[tuple[int, int, Hashable, Hashable, int, int]]] = {}
    for p, (key, alts) in enumerate(subs):
        parent = size(key)
        for a, (left, right, _local) in enumerate(alts):
            feed = (
                p, a, left, right, delay(parent, size(left)), delay(parent, size(right))
            )
            feeds.setdefault(left, []).append(feed)
            feeds.setdefault(right, []).append(feed)
    avail = [[inf] * len(alts) for _key, alts in subs]  # inf: not yet timed
    pending = [list(range(len(alts))) for _key, alts in subs]
    wake: dict[int, set[int]] = {}
    done = dict.fromkeys(leaves, base_time)

    def completed(child: Hashable) -> None:
        """``child`` is done: time every alternative it unblocks."""
        for p, a, left, right, left_delay, right_delay in feeds.get(child, ()):
            if left in done and right in done:
                at = max(done[left] + left_delay, done[right] + right_delay)
                avail[p][a] = at
                wake.setdefault(at + 1, set()).add(p)  # foldable once at <= step - 1

    for leaf in leaves:
        completed(leaf)
    choice: dict[Hashable, int] = {}
    folds = 0
    unresolved = len(subs)
    max_steps = 8 * sum(map(len, pending)) + 64
    bus = delay(2, 1) == 0  # no transfer delay: the broadcast-bus design
    step = base_time
    # Availability is monotone, so sweeping steps forward and folding
    # whatever became available is an exact event-driven simulation.
    while unresolved:
        step += 1
        observed = machine.observed
        for p in sorted(wake.pop(step, ())):
            key, alts = subs[p]
            known = avail[p]
            reg = cells[key]
            machine.enter_pe(p)
            staged = reg.value  # running minimum latched so far
            remaining: list[int] = []
            folded = 0
            queued = False  # an available alternative waits for capacity
            for a in pending[p]:
                if known[a] < step:
                    if folded < capacity:
                        left, right, local = alts[a]
                        x, y = cells[left].value, cells[right].value
                        cost = (inf if x is None else x) + (inf if y is None else y)
                        cost += local
                        if staged is None or cost < staged:
                            staged = cost
                            choice[key] = a
                        folded += 1
                        continue
                    queued = True
                remaining.append(a)
            pending[p] = remaining
            if folded:
                folds += folded
                pes[p].count_op(folded)
                if observed:
                    machine.emit("op", p, label(key))
                reg.set(staged)
            machine.exit_pe()
            if queued:
                wake.setdefault(step + 1, set()).add(p)
            if not remaining and key in choice:
                done[key] = step
                unresolved -= 1
                completed(key)
                if bus:
                    tag = f"bus:{label(key)}" if observed else None
                    machine.put_on_bus(1, label=tag)
        machine.end_tick()
        if step > max_steps:  # defensive: the schedule must terminate
            raise SystolicError(f"{machine.design}: schedule did not converge")
    values = {
        key: inf if (v := cell.value) is None else float(v)
        for key, cell in cells.items()
    }
    return values, done, choice, folds


def _key_label(key: Hashable) -> str:
    if isinstance(key, tuple) and len(key) == 2:
        return f"V{key[0]},{key[1]}"
    return f"V{key}"


@dataclasses.dataclass(frozen=True)
class TriangularRun:
    """Schedule measurement of a generalized triangular-array run."""

    #: What ``backend="auto"`` compares beside the report (:func:`.run_with_backend`).
    backend_fields: ClassVar[tuple[str, ...]] = (
        "value", "steps", "completion", "alternatives_evaluated",
    )

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
    #: The fast backend's :func:`.certify_interval` verdict; ``None`` on rtl.
    certified: bool | None = dataclasses.field(default=None, compare=False)


class TriangularArray:
    """Any :class:`TriangularSpec` on both processor organizations.

    ``transfer="broadcast"`` models the multiple-bus design (zero
    transfer delay); ``transfer="systolic"`` models the serialized
    planar design (delay = level difference, per Figure 8).  Processors
    fold up to ``alternatives_per_step`` available alternatives per
    step, as in the paper's timing arguments for eqs. (42)-(43).

    The rtl backend runs any spec.  The fast backend runs an
    :class:`IntervalSpec` on the kernel and memoized schedule it shares
    with the parenthesizers, never calling ``spec.subproblems()``, and
    stores the certificate's verdict in ``certified``.  Any other spec on
    ``fast`` or ``auto`` raises :class:`TypeError`, not a silent switch to
    rtl.

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

    def run(
        self,
        spec: TriangularSpec,
        *,
        record_trace: bool = False,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
    ) -> TriangularRun:
        """Solve ``spec`` on the array; measure the schedule.

        ``backend`` selects RTL simulation, the vectorized fast path, or
        ``"auto"`` cross-validation.  ``record_trace`` and ``sinks`` are
        cycle-level requests with the same meaning as on the Fig. 3
        array; they follow the rule of
        :func:`~repro.systolic.fabric.run_with_backend`.
        """
        # C(m + 1, 3) alternatives; other specs raise on fast before auto compares.
        m = spec.leaf_values.size if isinstance(spec, IntervalSpec) else 0
        return run_with_backend(
            normalize_backend(backend, self.backend),
            work=(m + 1) * m * (m - 1) // 6,
            rtl=lambda **kw: self._run_rtl(spec, **kw),
            fast=lambda: self._run_fast(spec),
            design=self.design_name,
            record_trace=record_trace, sinks=sinks,
        )

    # ------------------------------------------------------------------
    # RTL backend
    # ------------------------------------------------------------------
    def _run_rtl(
        self,
        spec: TriangularSpec,
        *,
        record_trace: bool = False,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
    ) -> TriangularRun:
        subs = list(spec.subproblems())
        # All-to-all links, as on the parenthesizers' machine.
        machine = SystolicMachine(
            self.design_name, record_trace=record_trace, sinks=sinks,
            topology="complete",
        )
        leaves = spec.leaves()
        for _ in range(self.base_time):  # leaves load during the base steps
            machine.end_tick()
        machine.read_input(len(leaves), label="in:leaves")
        values, done, decisions, evaluated = _sweep(
            machine, leaves, subs, size=spec.size,
            delay=functools.partial(_transfer_delay, self.transfer),
            capacity=self.alternatives_per_step, base_time=self.base_time,
            label=_key_label,
        )
        machine.write_output(1, label="out:goal")
        goal = spec.goal()
        return TriangularRun(
            value=values[goal],
            values=values,
            decisions=decisions,
            steps=done[goal],
            completion=done,
            alternatives_evaluated=evaluated,
            num_processors=len(subs),
            report=machine.finalize(iterations=done[goal], serial_ops=evaluated),
            trace=machine.legacy_trace(),
            events=machine.trace_events(),
        )

    # ------------------------------------------------------------------
    # Fast backend
    # ------------------------------------------------------------------
    def _run_fast(self, spec: TriangularSpec) -> TriangularRun:
        if not isinstance(spec, IntervalSpec):
            raise TypeError(
                f"{self.design_name}: the fast backend runs IntervalSpec "
                f"subclasses only; run {type(spec).__name__} with backend='rtl'"
            )
        m = spec.leaf_values.size
        V, K = _interval_dp(spec)
        completion, report = _interval_schedule(
            self.design_name, self.transfer, self.alternatives_per_step,
            self.base_time, spec.size_offset, m, m, False,
        )
        shift = spec.size_offset - 1  # key (x, j) is the interval [x, j + shift]
        table, split = V.tolist(), K.tolist()
        values: dict[Hashable, float] = {
            (x, j): table[x][j + shift] for x, j in completion
        }
        decisions: dict[Hashable, int] = {
            (x, j): split[x][j + shift] - x
            for x, j in itertools.islice(completion, m, None)  # past the leaves
        }
        return TriangularRun(
            value=values[spec.goal()],
            values=values,
            decisions=decisions,
            steps=report.iterations,
            completion={key: step for key, step in completion.items()},  # own copy
            alternatives_evaluated=report.serial_ops,
            num_processors=report.num_pes,
            report=report,
            certified=certify_interval(V, K, spec.leaf_values, spec.local),
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
    t, s = 1, n_keys
    while s > 0:
        t += (s + 1) // 2
        s //= 2  # ceil((s-1)/2)
    return t
