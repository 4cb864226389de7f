"""The batch execution engine: ``solve_batch()``.

Throughput comes from three stacked levels, in the spirit of the
paper's Section 4 (an array fed a *stream* of instances, not a one-shot
device):

1. **Vectorized multi-instance kernels** — same-shape, same-class
   instances are grouped (:mod:`repro.exec.grouping`) and run through
   the fast backends as one stacked 3-D semiring pass
   (:mod:`repro.exec.vectorized`), bit-identical per instance to a
   looped :func:`repro.core.solver.solve`.
2. **Process-pool sharding** — large groups are split across a worker
   pool (:mod:`repro.exec.pool`), with shard count and sizes chosen by
   the paper's own KT² rule (:func:`repro.dnc.plan_shards`, eq. 29 /
   Theorem 1); ``shard_strategy="even"`` is the naive ablation baseline.
3. **A digest-keyed result cache** — canonical problem digest →
   ``SolveReport`` (:mod:`repro.exec.cache`), shared with single-problem
   ``solve(cache=...)`` calls.

Side-effectful runs bypass both the cache and the vectorized kernels:
``sinks`` and ``fault_plan`` force a sequential in-process loop (their
observers must see every event of every run), while ``backend="rtl"``
and ``strict`` runs stay cycle-accurate per instance but can still be
sharded across workers when the problems are picklable — each worker
builds its own machines and hazard sanitizers, so no monitor state is
shared.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Iterable, Sequence

from ..core.solver import SolveReport, solve
from ..dnc import plan_shards
from ..systolic import normalize_backend
from .cache import SolveCache, cacheable, default_cache
from .digest import cache_key
from .grouping import VECTORIZED_KINDS, Group, group_problems
from .pool import ShardResult, execute_payloads
from .vectorized import prepare_payload, run_payload, slice_payload

__all__ = ["BatchResult", "BatchStats", "solve_batch"]

#: Below this group size the pool's pickle + fork overhead outweighs any
#: parallelism, so groups stay in-process.
DEFAULT_MIN_SHARD_ITEMS = 64

_SHARD_WALL_BUCKETS = (0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0)


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
    shards: int  # payloads dispatched to the worker pool
    shard_sizes: tuple[int, ...]
    per_shard_seconds: tuple[float, ...]
    workers: int
    shard_strategy: str
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
    registry.counter(
        "repro_batch_shards_total", "Payload shards dispatched to the worker pool"
    ).labels().inc(stats.shards)
    registry.gauge(
        "repro_batch_problems_per_second",
        "Throughput of the most recent solve_batch call",
        ("backend",),
    ).labels(backend=stats.backend).set(stats.problems_per_second)
    registry.gauge(
        "repro_batch_group_fill_factor",
        "Share of executed problems carried by vectorized kernels",
    ).labels().set(stats.fill_factor)
    hist = registry.histogram(
        "repro_batch_shard_wall_seconds",
        "Wall time of each executed shard/group payload",
        (),
        buckets=_SHARD_WALL_BUCKETS,
    ).labels()
    for wall in stats.per_shard_seconds:
        hist.observe(wall)


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
    min_shard_items: int = DEFAULT_MIN_SHARD_ITEMS,
    shard_strategy: str = "kt2",
) -> BatchResult:
    """Solve a batch of problems, returning reports in batch order.

    Results are identical — bit-for-bit, including counters and traced
    paths — to calling :func:`repro.core.solver.solve` on each problem
    with the same ``prefer``/``backend``; only the execution strategy
    differs.  ``backend`` defaults to ``"fast"`` (unlike ``solve()``):
    a batch engine exists for throughput.

    ``cache`` is a :class:`~repro.exec.cache.SolveCache`, or ``True``
    for the process-wide default cache.  Runs with ``sinks``,
    ``fault_plan``, ``backend="rtl"`` or ``strict`` bypass it entirely
    (every instance re-executes).  ``workers > 1`` shards groups of at
    least ``min_shard_items`` problems across a process pool, sized by
    ``shard_strategy`` (``"kt2"``: the eq.-29 planner; ``"even"``: naive
    equal split).  ``registry`` (a
    :class:`~repro.telemetry.MetricsRegistry`) receives the throughput
    counters described in ``docs/scaling.md``.
    """
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
    cache_active = cache_obj is not None and cacheable(
        sinks, fault_plan, backend, strict
    )

    reports: list[SolveReport | None] = [None] * total
    keys: list[tuple | None] = [None] * total
    cache_hits = 0
    if cache_active:
        assert cache_obj is not None
        for i, problem in enumerate(problem_list):
            keys[i] = cache_key(problem, backend=backend, prefer=prefer)
            if keys[i] is None:
                continue
            hit = cache_obj.get(keys[i])
            if hit is not None:
                reports[i] = hit
                cache_hits += 1

    pending = [i for i in range(total) if reports[i] is None]
    groups: list[Group] = []
    shard_sizes: list[int] = []
    per_shard_seconds: list[float] = []
    pooled_shards = 0

    if pending and (sinks or fault_plan is not None):
        # Observers and injectors must see every run: sequential loop.
        for i in pending:
            reports[i] = solve(
                problem_list[i],
                prefer=prefer,
                backend=backend,
                sinks=sinks,
                fault_plan=fault_plan,
                recovery=recovery,
                strict=strict,
            )
    elif pending:
        vectorize = backend != "rtl" and not strict
        groups = group_problems(
            [problem_list[i] for i in pending],
            pending,
            prefer=prefer,
            vectorize=vectorize,
        )
        local: list[tuple[list[int], dict[str, Any]]] = []
        pooled: list[tuple[list[int], dict[str, Any]]] = []
        for group in groups:
            if group.kind in VECTORIZED_KINDS:
                payload = prepare_payload(group)
            else:
                payload = {
                    "kind": "scalar",
                    "problems": list(group.problems),
                    "solve_kwargs": {
                        "prefer": prefer,
                        "backend": backend,
                        "strict": strict,
                        "recovery": recovery,
                    },
                }
            shardable = (
                workers > 1
                and len(group) >= min_shard_items
                and (group.kind in VECTORIZED_KINDS or group.picklable)
            )
            if shardable:
                plan = plan_shards(len(group), workers, strategy=shard_strategy)
                for lo, hi in plan.offsets():
                    pooled.append(
                        (group.indices[lo:hi], slice_payload(payload, lo, hi))
                    )
                    shard_sizes.append(hi - lo)
            else:
                local.append((group.indices, payload))

        pooled_shards = len(pooled)
        if pooled:
            results = execute_payloads([p for _, p in pooled], workers)
            for (indices, _), shard in zip(pooled, results):
                _scatter(reports, indices, shard)
                per_shard_seconds.append(shard.wall_seconds)
        for indices, payload in local:
            t0 = time.perf_counter()
            out = run_payload(payload)
            wall = time.perf_counter() - t0
            _scatter(reports, indices, ShardResult(out, wall))
            per_shard_seconds.append(wall)

    if cache_active:
        assert cache_obj is not None
        for i in pending:
            if keys[i] is not None and reports[i] is not None:
                cache_obj.put(keys[i], reports[i])

    final = tuple(r for r in reports if r is not None)
    if len(final) != total:  # pragma: no cover - internal invariant
        raise RuntimeError("batch execution dropped a problem")

    vectorized_groups = [g for g in groups if g.kind in VECTORIZED_KINDS]
    stats = BatchStats(
        total=total,
        cache_hits=cache_hits,
        executed=len(pending),
        groups=len(groups),
        vectorized_groups=len(vectorized_groups),
        vectorized_problems=sum(len(g) for g in vectorized_groups),
        fill_factor=(
            sum(len(g) for g in vectorized_groups) / len(pending) if pending else 0.0
        ),
        shards=pooled_shards,
        shard_sizes=tuple(shard_sizes),
        per_shard_seconds=tuple(per_shard_seconds),
        workers=workers,
        shard_strategy=shard_strategy,
        backend=backend,
        wall_seconds=time.perf_counter() - start,
    )
    if registry is not None:
        _publish_metrics(registry, stats)
    return BatchResult(reports=final, stats=stats)


def _scatter(
    reports: list[SolveReport | None],
    indices: Sequence[int],
    shard: ShardResult,
) -> None:
    if len(shard.reports) != len(indices):  # pragma: no cover - internal invariant
        raise RuntimeError(
            f"shard returned {len(shard.reports)} reports for {len(indices)} problems"
        )
    for i, report in zip(indices, shard.reports):
        reports[i] = report
