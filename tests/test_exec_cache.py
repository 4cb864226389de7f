"""The digest-keyed solve cache: keys, LRU, and the bypass contract.

The bypass rules are the load-bearing part: observers (``sinks``),
injectors (``fault_plan``), cycle-accurate runs (``backend="rtl"``) and
the hazard sanitizer (``strict``) must see *every* execution — a cached
report would silently swallow their side effects — so those runs skip
the cache entirely, in both ``solve_batch`` and ``solve(cache=...)``.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro import SolveCache, solve, solve_batch
from repro.exec import cache_key, default_cache, problem_digest
from repro.faults import FaultPlan, FaultSpec
from repro.graphs import (
    NodeValueProblem,
    random_multistage,
    traffic_light_problem,
    uniform_multistage,
)


@pytest.fixture
def graph(rng):
    return uniform_multistage(rng, 4, 3)


def assert_shared_read_only(first, hits):
    """``hits`` are the ``first`` reports themselves, and read-only.

    ``first`` and ``hits`` are ``(pipe, feed)`` pairs: a Fig. 3 report
    (ndarray solution) and a Fig. 5 report (final-stage values).  Writing
    into either hit raises, and the first reports stay bit-identical.
    """
    pipe, feed = hits
    assert pipe is first[0] and feed is first[1]
    pipe_bytes = first[0].solution.tobytes()
    feed_bytes = first[1].detail.final_stage_values.tobytes()
    with pytest.raises(ValueError):
        pipe.solution[...] = -1.0
    with pytest.raises(ValueError):
        feed.detail.final_stage_values[:] = -1.0
    assert first[0].solution.tobytes() == pipe_bytes
    assert first[1].detail.final_stage_values.tobytes() == feed_bytes


def _flip(reg="ACC", *, pe=0, tick=1):
    return FaultPlan(
        specs=(
            FaultSpec(mode="transient_flip", pe=pe, reg=reg, tick=tick, delta=-1000.0),
        )
    )


class TestDigest:
    def test_equal_content_equal_digest(self, rng):
        a = traffic_light_problem(np.random.default_rng(3), 5, 4)
        b = traffic_light_problem(np.random.default_rng(3), 5, 4)
        assert a is not b
        assert problem_digest(a) == problem_digest(b)

    def test_different_content_different_digest(self, rng):
        a = traffic_light_problem(np.random.default_rng(3), 5, 4)
        b = traffic_light_problem(np.random.default_rng(4), 5, 4)
        assert problem_digest(a) != problem_digest(b)

    def test_node_value_digest_uses_materialized_costs(self, rng):
        values = tuple(rng.uniform(0, 5, 3) for _ in range(4))
        a = NodeValueProblem(values=values, edge_cost=lambda x, y: np.abs(x - y))
        b = NodeValueProblem(values=values, edge_cost=lambda x, y: abs(x - y))
        # Different closures, same eq.-4 cost matrices: same digest.
        assert problem_digest(a) == problem_digest(b)

    def test_unknown_problem_digests_to_none(self):
        assert problem_digest(object()) is None
        assert cache_key(object(), backend="fast", prefer=None) is None

    def test_cache_key_varies_with_backend_and_prefer(self, graph):
        k1 = cache_key(graph, backend="fast", prefer=None)
        k2 = cache_key(graph, backend="rtl", prefer=None)
        k3 = cache_key(graph, backend="fast", prefer="broadcast")
        assert len({k1, k2, k3}) == 3


class TestSolveCacheLRU:
    def test_put_get_roundtrip_shares_read_only_report(self, graph, rng):
        cache = SolveCache(capacity=4)
        problems = (graph, traffic_light_problem(rng, 5, 4))
        keys = [cache_key(p, backend="fast", prefer=None) for p in problems]
        first = [solve(p, backend="fast") for p in problems]
        for key, report in zip(keys, first):
            cache.put(key, report)
        assert_shared_read_only(first, [cache.get(key) for key in keys])
        assert_shared_read_only(first, [cache.get(key) for key in keys])

    def test_lru_eviction_order(self):
        cache = SolveCache(capacity=2)
        cache.put(("a",), "ra")
        cache.put(("b",), "rb")
        assert cache.get(("a",)) == "ra"  # refresh 'a'
        cache.put(("c",), "rc")  # evicts 'b', the least recent
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "ra"
        assert cache.get(("c",)) == "rc"
        assert cache.stats.evictions == 1

    def test_stats_and_clear(self):
        cache = SolveCache(capacity=4)
        cache.put(("k",), "r")
        cache.get(("k",))
        cache.get(("missing",))
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1
        assert stats.hit_rate == pytest.approx(0.5)
        cache.clear()
        assert cache.stats.size == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SolveCache(capacity=0)


class TestSolveIntegration:
    def test_single_solve_hits_shared_cache(self, graph, rng):
        cache = SolveCache()
        problems = (graph, traffic_light_problem(rng, 5, 4))
        first = [solve(p, backend="fast", cache=cache) for p in problems]
        second = [solve(p, backend="fast", cache=cache) for p in problems]
        assert cache.stats.hits == 2 and cache.stats.misses == 2
        assert_shared_read_only(first, second)

    def test_solve_and_solve_batch_share_one_cache(self, rng):
        cache = SolveCache()
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(3)]
        solve(probs[0], backend="fast", cache=cache)
        result = solve_batch(probs, cache=cache)
        assert result.stats.cache_hits == 1
        assert result.stats.executed == 2

    def test_default_rtl_solve_bypasses_cache(self, graph):
        cache = SolveCache()
        solve(graph, cache=cache)  # solve() defaults to backend="rtl"
        solve(graph, cache=cache)
        assert cache.stats.size == 0 and cache.stats.hits == 0

    def test_default_cache_is_process_wide(self, graph):
        default_cache().clear()
        try:
            solve(graph, backend="fast", cache=True)
            solve(graph, backend="fast", cache=True)
            assert default_cache().stats.hits >= 1
        finally:
            default_cache().clear()


class TestBypassSemantics:
    def test_cached_hits_are_the_stored_read_only_reports(self, rng):
        cache = SolveCache()
        probs = [uniform_multistage(rng, 4, 3)]
        probs += [traffic_light_problem(rng, 5, 4) for _ in range(3)]
        first = solve_batch(probs, cache=cache)
        second = solve_batch(probs, cache=cache)
        assert second.stats.cache_hits == 4 and second.stats.executed == 0
        for a, b in zip(first, second):
            assert b is a
        assert_shared_read_only(first.reports[:2], second.reports[:2])

    def test_sinks_force_reexecution_with_events_both_times(self, rng):
        cache = SolveCache()
        probs = [uniform_multistage(rng, 4, 3) for _ in range(2)]
        events: list = []
        solve_batch(probs, backend="rtl", sinks=[events.append], cache=cache)
        first_count = len(events)
        assert first_count > 0
        solve_batch(probs, backend="rtl", sinks=[events.append], cache=cache)
        assert len(events) == 2 * first_count
        assert cache.stats.size == 0  # nothing was ever stored

    def test_fault_plan_forces_reexecution_with_faults_both_times(self):
        cache = SolveCache()
        graph = random_multistage(np.random.default_rng(1), [1, 3, 3, 1])
        for _ in range(2):
            result = solve_batch(
                [graph], fault_plan=_flip("ACC"), recovery="retry", cache=cache
            )
            report = result.reports[0]
            assert report.faults is not None
            assert len(report.faults.injections) >= 1
            assert report.validated
        assert cache.stats.size == 0

    def test_rtl_and_strict_batches_bypass(self, rng):
        cache = SolveCache()
        probs = [uniform_multistage(rng, 4, 3) for _ in range(2)]
        solve_batch(probs, backend="rtl", cache=cache)
        solve_batch(probs, backend="fast", strict=True, cache=cache)
        assert cache.stats.size == 0

    def test_warm_cache_is_ignored_by_side_effectful_run(self, rng):
        cache = SolveCache()
        probs = [uniform_multistage(rng, 4, 3) for _ in range(2)]
        solve_batch(probs, cache=cache)  # warm it on the fast path
        events: list = []
        result = solve_batch(
            probs, backend="rtl", sinks=[events.append], cache=cache
        )
        assert result.stats.cache_hits == 0
        assert len(events) > 0


class TestNodeValueHotPath:
    def test_edge_cost_runs_once_per_layer(self, rng):
        calls: list[int] = []

        def counted(x, y):
            calls.append(1)
            return np.abs(x - y)

        p = NodeValueProblem(
            values=tuple(rng.uniform(0, 5, 4) for _ in range(6)), edge_cost=counted
        )
        cache = SolveCache()
        batched = solve_batch([p], cache=cache).reports[0]
        single = solve(p, backend="fast")  # oracle + Fig. 5 array, no cache
        hit = solve(p, backend="fast", cache=cache)
        assert cache.stats.hits == 1
        assert batched.optimum == single.optimum == hit.optimum
        assert len(calls) == p.num_stages - 1

    def test_source_arrays_do_not_leak_in(self, rng):
        def cost(x, y):
            return np.abs(x - y)

        source = [rng.uniform(0, 5, 3) for _ in range(4)]
        reference = NodeValueProblem(
            values=tuple(v.copy() for v in source), edge_cost=cost
        )
        built = NodeValueProblem(values=tuple(source), edge_cost=cost)
        digest = problem_digest(built)  # builds its costs now
        lazy = NodeValueProblem(values=tuple(source), edge_cost=cost)
        for v in source:
            v[:] = -1.0
        for p in (built, lazy):
            for k in range(p.num_stages):
                assert np.array_equal(p.values[k], reference.values[k])
            for k in range(p.num_stages - 1):
                assert np.array_equal(p.cost_matrix(k), reference.cost_matrix(k))
            assert problem_digest(p) == problem_digest(reference)
        assert digest == problem_digest(reference)

    def test_copies_own_read_only_values(self, rng):
        p = traffic_light_problem(rng, 4, 3)
        digest = problem_digest(p)
        for q in (copy.copy(p), copy.deepcopy(p)):
            assert all(not v.flags.writeable for v in q.values)
            assert problem_digest(q) == digest
        # The generator's cost closure cannot be pickled; a module-level
        # ufunc can, and unpickling goes through the constructor too.
        r = pickle.loads(
            pickle.dumps(NodeValueProblem(values=p.values, edge_cost=np.add))
        )
        assert all(not v.flags.writeable for v in r.values)


class TestReadOnlyHits:
    def test_writing_into_a_hit_raises(self, rng):
        cache = SolveCache()
        graph = uniform_multistage(rng, 4, 3)  # Fig. 3 route: ndarray solution
        nv = traffic_light_problem(rng, 5, 4)  # Fig. 5 route: StagePath solution
        first = solve_batch([graph, nv], cache=cache).reports

        pipe, feed = solve_batch([graph, nv], cache=cache).reports
        assert cache.stats.hits == 2
        assert isinstance(pipe.solution, np.ndarray)
        assert pipe.solution is pipe.detail.value
        assert feed.solution is feed.detail.path
        assert_shared_read_only(first, (pipe, feed))
        assert_shared_read_only(first, solve_batch([graph, nv], cache=cache).reports)
