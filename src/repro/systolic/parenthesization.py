"""Section 6.2 arrays: optimal matrix-chain ordering as AND/OR-graph search.

The polyadic-nonserial recurrence of eq. (6) maps to an AND/OR-graph in
which AND-nodes are additions (``m_{i,k} + m_{k+1,j} + r_{i-1}·r_k·r_j``)
and OR-nodes are comparisons.  The paper gives two processor mappings:

* **Broadcast mapping** — one processor per OR-node (subproblem
  ``(i, j)``), connected by multiple broadcast buses so any completed
  result is visible to every processor in the next step.  Each processor
  evaluates two alternatives (two additions + two comparisons) per step;
  a size-``k`` subproblem therefore needs ``⌊k/2⌋`` steps once its
  size-``⌈k/2⌉`` inputs exist, giving the recurrence
  ``T_d(k) = T_d(⌈k/2⌉) + ⌊k/2⌋`` with ``T_d(1) = 1`` and the closed form
  ``T_d(N) = N``  (Proposition 2).
* **Serialized (systolic) mapping** — the nonserial AND/OR-graph is made
  serial by inserting dummy pass-through nodes (Figure 8) so results hop
  level-by-level between adjacent cells; a child result of size ``s``
  reaches a size-``k`` parent after ``k − s`` transfer steps, giving
  ``T_p(k) = T_p(⌈k/2⌉) + 2·⌊k/2⌋`` with ``T_p(1) = 2`` and the closed
  form ``T_p(N) = 2N``  (Proposition 3).  This is the planar design the
  paper identifies with Guibas–Kung–Thompson.

Both mappings are one problem spec
(:class:`~repro.systolic.triangular.MatrixChainSpec`) on the one rtl
sweep every Section-6.2 array runs (:func:`repro.systolic.triangular._sweep`,
one PE per OR-node on a :class:`~repro.systolic.fabric.SystolicMachine`),
differing only in the transfer delay.  The sweep computes the *actual* DP
tables step by step (validated against :func:`repro.dp.solve_matrix_chain`)
while measuring schedule length, so Propositions 2 and 3 are checked on
real executions, not just restated.

The fast backend runs the fast path every Section-6.2 array shares
(:mod:`repro.systolic.triangular`): the exact int64 value and split
tables of ``MatrixChainSpec`` from one broadcast expression and one
``argmin`` per span, the schedule memoized per array configuration and
``N``, and :func:`~repro.dp.certificate.certify_interval` over the tables
plus a count of the returned order's scalar multiplications.  Its
closed-form counters match the rtl sweep exactly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .._readonly import read_only
from ..dp.certificate import certify_interval
from ..dp.matrix_chain import (
    ChainOrder,
    count_scalar_multiplications,
    expression_from_splits,
)
from .fabric import (
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
    normalize_backend,
    run_with_backend,
)
from .triangular import (
    MatrixChainSpec,
    _interval_dp,
    _interval_schedule,
    _sweep,
    _transfer_delay,
)

__all__ = [
    "ParenthesizationRun",
    "BroadcastParenthesizer",
    "SystolicParenthesizer",
    "t_d_recurrence",
    "t_p_recurrence",
]


@dataclasses.dataclass(frozen=True)
class ParenthesizationRun:
    """Result and schedule measurements of a parenthesization-array run."""

    #: What ``backend="auto"`` compares beside the report (:func:`.run_with_backend`).
    backend_fields: ClassVar[tuple[str, ...]] = (
        "order.cost", "steps", "subproblem_completion", "alternatives_evaluated",
    )

    order: ChainOrder
    steps: int  # schedule length in array steps
    num_processors: int  # one per OR-node: N(N-1)/2
    subproblem_completion: Mapping[tuple[int, int], int]  # (i, j) -> step
    alternatives_evaluated: int  # total AND-node evaluations
    #: Uniform measurement record (one PE per OR-node; a tick per step).
    report: RunReport | None = None
    #: (step, pe, label) cell events when ``record_trace`` was requested.
    trace: tuple[tuple[int, int, str], ...] = ()
    #: The full typed event stream from the machine's trace bus.
    events: tuple[TraceEvent, ...] = ()
    #: With ``observe``: the final per-subproblem cost table as read from
    #: the ``M`` registers, for cell-level cross-checks against the
    #: sequential DP table.  ``None`` otherwise.
    cost_table: Mapping[tuple[int, int], float] | None = None
    #: The fast backend's :func:`.certify_interval` verdict (the order's
    #: multiplication count included); ``None`` on rtl.
    certified: bool | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name in ("subproblem_completion", "cost_table"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def __reduce__(self) -> tuple[Any, ...]:
        # A read-only mapping does not pickle: copies and unpickled runs
        # go through the constructor with plain dicts, as it freezes them.
        args = (getattr(self, f.name) for f in dataclasses.fields(self))
        return type(self), tuple(dict(a) if isinstance(a, Mapping) else a for a in args)

    @property
    def per_size_completion(self) -> dict[int, int]:
        """Completion step of the slowest subproblem of each size."""
        out: dict[int, int] = {}
        for (i, j), t in self.subproblem_completion.items():
            size = j - i + 1
            out[size] = max(out.get(size, 0), t)
        return out


def t_d_recurrence(n: int) -> int:
    """Evaluate ``T_d(k) = T_d(⌈k/2⌉) + ⌊k/2⌋``, ``T_d(1) = 1`` (eq. 42).

    Proposition 2 states the closed form ``T_d(N) = N``; the tests check
    the recurrence against it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t, k = 1, n
    while k > 1:
        t += k // 2
        k = (k + 1) // 2
    return t


def t_p_recurrence(n: int) -> int:
    """Evaluate ``T_p(k) = T_p(⌈k/2⌉) + 2·⌊k/2⌋``, ``T_p(1) = 2`` (eq. 43).

    Proposition 3 states the closed form ``T_p(N) = 2N``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t, k = 2, n
    while k > 1:
        t += 2 * (k // 2)
        k = (k + 1) // 2
    return t


class _ParenthesizerBase:
    """Both processor mappings of eq. (6) on the shared Section-6.2 sweep.

    A subproblem ``(i, j)`` (1-based, ``j ≥ i``) owns a processor that, at
    each step, folds up to ``alternatives_per_step`` *available* splits
    ``k`` into its running minimum; a split becomes available
    :meth:`_transfer_delay` steps after its later child completes.

    On cost ties between splits the RTL backend keeps the first split
    *folded* (earliest-available, then ascending ``k``) while the fast
    backend keeps the lowest ``k``; costs, steps and completion times
    are identical either way.
    """

    design_name = "base"
    transfer = "broadcast"
    alternatives_per_step = 2
    base_time = 1  # completion step of the size-1 leaves

    def __init__(self, backend: str = "rtl") -> None:
        self.backend = normalize_backend(backend)

    def _transfer_delay(self, parent_size: int, child_size: int) -> int:
        return _transfer_delay(self.transfer, parent_size, child_size)

    def run(
        self,
        dims: Sequence[int],
        *,
        record_trace: bool = False,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool | None = None,
        strict: bool = False,
    ) -> ParenthesizationRun:
        """Solve eq. (6) for ``dims`` on the array; measure the schedule.

        ``backend`` selects RTL simulation, the vectorized fast path, or
        ``"auto"`` cross-validation.  ``record_trace``, ``sinks``,
        ``injector``, ``observe`` and ``strict`` are cycle-level requests
        as on the Fig. 3 array (``observe`` fills ``cost_table``); they
        follow the rule of :func:`~repro.systolic.fabric.run_with_backend`.
        """
        spec = MatrixChainSpec(dims)
        return run_with_backend(
            normalize_backend(backend, self.backend),
            work=spec.n * (spec.n**2 - 1) // 6,  # AND-nodes: sum of (span-1) per cell
            rtl=lambda **kw: self._run_rtl(spec, **kw),
            fast=lambda: self._run_fast(spec),
            design=self.design_name,
            record_trace=record_trace, sinks=sinks, injector=injector,
            observe=observe, strict=strict,
        )

    # ------------------------------------------------------------------
    # RTL backend
    # ------------------------------------------------------------------
    def _run_rtl(
        self,
        spec: MatrixChainSpec,
        *,
        record_trace: bool = False,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        observe: bool = False,
        strict: bool = False,
    ) -> ParenthesizationRun:
        dims, n = spec.dims, spec.n
        subs = sorted(spec.subproblems())  # PE order: ascending (i, j)
        # Both mappings let any OR-node consume any completed child:
        # the broadcast design via its multiple broadcast buses, the
        # serialized design via the Figure-8 dummy pass-through cells
        # (modeled as availability delays rather than explicit hops).
        # Either way the *declared* link graph is all-to-all.
        machine = SystolicMachine(
            self.design_name, record_trace=record_trace, sinks=sinks,
            injector=injector, strict=strict, topology="complete",
        )
        for _ in range(self.base_time):  # leaves load during the base steps
            machine.end_tick()
        machine.read_input(len(dims), label="in:dims")
        values, done, choice, alternatives = _sweep(
            machine, spec.leaves(), subs, size=spec.size, delay=self._transfer_delay,
            capacity=self.alternatives_per_step, base_time=self.base_time,
            label=lambda key: f"m{key[0]},{key[1]}",
        )
        machine.write_output(1, label="out:cost")
        final_cost = values[(1, n)]
        if not np.isfinite(final_cost):
            raise SystolicError(
                f"{self.design_name}: non-finite chain cost {final_cost!r} "
                "(a cost register never latched a value)"
            )
        # Alternative a of (i, j) is the split k = i + a.
        split = {(i, j): i + a for (i, j), a in choice.items()}
        order = ChainOrder(
            dims=dims, expression=expression_from_splits(split, n), cost=int(final_cost)
        )
        goal_step = done[(1, n)]
        return ParenthesizationRun(
            order=order,
            steps=goal_step,
            num_processors=n * (n - 1) // 2 if n > 1 else 1,
            subproblem_completion=done,
            alternatives_evaluated=alternatives,
            report=machine.finalize(iterations=goal_step, serial_ops=alternatives),
            trace=machine.legacy_trace(),
            events=machine.trace_events(),
            cost_table={key: values[key] for key, _alts in subs} if observe else None,
        )

    # ------------------------------------------------------------------
    # Fast backend
    # ------------------------------------------------------------------
    def _run_fast(self, spec: MatrixChainSpec) -> ParenthesizationRun:
        dims, n = spec.dims, spec.n
        M, S = _interval_dp(spec, np.int64)
        completion, report = _interval_schedule(
            self.design_name, self.transfer, self.alternatives_per_step,
            self.base_time, spec.size_offset, n, n + 1, True,
        )
        order = ChainOrder(
            dims=dims, expression=expression_from_splits(S, n), cost=int(M[1, n])
        )
        return ParenthesizationRun(
            order=order,
            steps=report.iterations,
            num_processors=report.num_pes if n > 1 else 1,
            subproblem_completion=completion,
            alternatives_evaluated=report.serial_ops,
            report=report,
            certified=certify_interval(M, S, spec.leaf_values, spec.local)
            and order.cost == count_scalar_multiplications(dims, order.expression)[0],
        )


class BroadcastParenthesizer(_ParenthesizerBase):
    """The multiple-broadcast-bus mapping; schedule length ``T_d(N) = N``."""

    design_name = "parenthesizer-broadcast"


class SystolicParenthesizer(_ParenthesizerBase):
    """The serialized planar (Guibas-style) mapping; ``T_p(N) = 2N``.

    Results travel through the dummy pass-through cells added by the
    Figure-8 serialization, one level per step, so a size-``s`` child's
    value reaches its size-``k`` consumer ``k − s`` steps after
    completion.
    """

    design_name = "parenthesizer-systolic"
    transfer = "systolic"
    base_time = 2  # T_p(1) = 2: leaves spend a step entering the fabric
