"""The batch execution engine: ``solve_batch()``.

Throughput comes from two stacked levels, in the spirit of the paper's
Section 4 (an array fed a *stream* of instances, not a one-shot
device), and every batch runs in one process:

1. **Vectorized multi-instance kernels** — same-shape, same-class
   instances are grouped (:mod:`repro.exec.grouping`) and run through
   the fast backends as one stacked 3-D semiring pass
   (:mod:`repro.exec.vectorized`), bit-identical per instance to a
   looped :func:`repro.core.solver.solve`.
2. **A digest-keyed result cache** — canonical problem digest →
   ``SolveReport`` (:mod:`repro.exec.cache`), shared with single-problem
   ``solve(cache=...)`` calls.

Every other problem runs in one plain loop over ``solve()``.
Side-effectful runs bypass both the cache and the vectorized kernels:
under ``sinks``, ``fault_plan``, ``backend="rtl"`` or ``strict`` the
whole batch is that loop, in batch order, so observers see every event
of every run in the order a looped ``solve()`` would emit them.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Iterable

from ..core.solver import SolveReport, _check_prefer, solve
from ..systolic import normalize_backend
from .cache import SolveCache, cacheable, default_cache
from .digest import cache_key
from .grouping import VECTORIZED_KINDS, group_problems
from .vectorized import prepare_payload, run_payload

__all__ = ["BatchResult", "BatchStats", "solve_batch"]


@dataclasses.dataclass(frozen=True)
class BatchStats:
    """Throughput accounting of one ``solve_batch`` call."""

    total: int  # problems in the batch
    cache_hits: int
    executed: int  # total - cache_hits
    groups: int
    vectorized_groups: int
    vectorized_problems: int
    #: Share of executed problems that rode a stacked vectorized kernel
    #: (1.0 = every executed instance was carried by a batched pass).
    fill_factor: float
    backend: str
    wall_seconds: float

    @property
    def problems_per_second(self) -> float:
        return self.total / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Per-problem reports (batch order) plus throughput stats."""

    reports: tuple[SolveReport, ...]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)


def _publish_metrics(registry: Any, stats: BatchStats) -> None:
    registry.counter(
        "repro_batch_problems_total",
        "Problems submitted to solve_batch",
        ("backend",),
    ).labels(backend=stats.backend).inc(stats.total)
    registry.counter(
        "repro_batch_cache_hits_total", "Batch problems served from the solve cache"
    ).labels().inc(stats.cache_hits)
    registry.counter(
        "repro_batch_cache_misses_total", "Batch problems actually executed"
    ).labels().inc(stats.executed)
    registry.gauge(
        "repro_batch_problems_per_second",
        "Throughput of the most recent solve_batch call",
        ("backend",),
    ).labels(backend=stats.backend).set(stats.problems_per_second)
    registry.gauge(
        "repro_batch_group_fill_factor",
        "Share of executed problems carried by vectorized kernels",
    ).labels().set(stats.fill_factor)


def solve_batch(
    problems: Iterable[object],
    *,
    prefer: str | None = None,
    backend: str = "fast",
    workers: int = 1,
    cache: SolveCache | bool | None = None,
    strict: bool = False,
    sinks: Iterable[Callable[..., None]] = (),
    fault_plan: Any = None,
    recovery: str = "retry",
    registry: Any = None,
) -> BatchResult:
    """Solve a batch of problems, returning reports in batch order.

    Results are identical — bit-for-bit, including counters and traced
    paths — to calling :func:`repro.core.solver.solve` on each problem
    with the same ``prefer``/``backend``; only the execution strategy
    differs.  ``backend`` defaults to ``"fast"`` (unlike ``solve()``):
    a batch engine exists for throughput.

    Batches always run in one process.  ``workers`` is accepted for
    callers that pass it explicitly, but must be ``1``; any other value
    raises :class:`ValueError`.

    ``cache`` is a :class:`~repro.exec.cache.SolveCache`, or ``True``
    for the process-wide default cache.  Runs with ``sinks``,
    ``fault_plan``, ``backend="rtl"`` or ``strict`` bypass it entirely
    (every instance re-executes).  ``registry`` (a
    :class:`~repro.telemetry.MetricsRegistry`) receives the throughput
    counters described in ``docs/scaling.md``.
    """
    _check_prefer(prefer)
    if workers != 1:
        raise ValueError(
            f"workers={workers!r}: solve_batch runs every batch in one process"
        )
    problem_list = list(problems)
    total = len(problem_list)
    backend = normalize_backend(backend)
    sinks = tuple(sinks)
    start = time.perf_counter()

    cache_obj: SolveCache | None
    if cache is True:
        cache_obj = default_cache()
    elif cache is False:
        cache_obj = None
    else:
        cache_obj = cache
    # Runs whose side effects are the point (sinks, fault plans, rtl,
    # strict) skip both the cache and the stacked kernels.
    plain = cacheable(sinks, fault_plan, backend, strict)
    cache_active = cache_obj is not None and plain

    keys: list[tuple | None] = []
    reports: list[SolveReport | None]
    if cache_active:
        assert cache_obj is not None
        keys = [cache_key(p, backend=backend, prefer=prefer) for p in problem_list]
        reports = [None if key is None else cache_obj.get(key) for key in keys]
    else:
        reports = [None] * total

    pending = [i for i, report in enumerate(reports) if report is None]
    groups = group_problems(
        [problem_list[i] for i in pending],
        pending,
        prefer=prefer,
        vectorize=plain,
    )
    for group in groups:
        if group.kind in VECTORIZED_KINDS:
            out = run_payload(prepare_payload(group))
        else:
            out = [
                solve(
                    problem,
                    prefer=prefer,
                    backend=backend,
                    sinks=sinks,
                    fault_plan=fault_plan,
                    recovery=recovery,
                    strict=strict,
                )
                for problem in group.problems
            ]
        for i, report in zip(group.indices, out):
            reports[i] = report

    if cache_active:
        assert cache_obj is not None
        # One lock round trip for every row this call executed.
        cache_obj.put_many(
            (keys[i], reports[i]) for i in pending if keys[i] is not None
        )

    final = tuple(r for r in reports if r is not None)
    if len(final) != total:  # pragma: no cover - internal invariant
        raise RuntimeError("batch execution dropped a problem")

    vectorized_problems = sum(len(g) for g in groups if g.kind in VECTORIZED_KINDS)
    stats = BatchStats(
        total=total,
        cache_hits=total - len(pending),
        executed=len(pending),
        groups=len(groups),
        vectorized_groups=sum(g.kind in VECTORIZED_KINDS for g in groups),
        vectorized_problems=vectorized_problems,
        fill_factor=vectorized_problems / len(pending) if pending else 0.0,
        backend=backend,
        wall_seconds=time.perf_counter() - start,
    )
    if registry is not None:
        _publish_metrics(registry, stats)
    return BatchResult(reports=final, stats=stats)
