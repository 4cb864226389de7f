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
import sys
import threading

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


def _looped_and_bulk(capacity, preload, items):
    """Two caches fed ``preload`` by ``put``, then ``items`` by a loop of
    ``put`` and by one ``put_many`` respectively."""
    looped, bulk = SolveCache(capacity), SolveCache(capacity)
    for cache in (looped, bulk):
        for key, report in preload:
            cache.put(key, report)
    for key, report in items:
        looped.put(key, report)
    bulk.put_many(iter(items))
    return looped, bulk


def _assert_same_cache(a, b):
    assert list(a._entries.items()) == list(b._entries.items())
    assert (a.stats.evictions, a.stats.size) == (b.stats.evictions, b.stats.size)


class TestPutMany:
    """``put_many`` is one lock round trip with the result of a ``put`` loop."""

    def test_restored_key_moves_to_the_end(self):
        items = [(("b",), "rb2"), (("d",), "rd")]
        preload = [(("a",), "ra"), (("b",), "rb"), (("c",), "rc")]
        looped, bulk = _looped_and_bulk(4, preload, items)
        _assert_same_cache(looped, bulk)
        assert list(bulk._entries) == [("a",), ("c",), ("b",), ("d",)]
        assert bulk.get(("b",)) == "rb2"

    def test_overflow_evicts_oldest_first_within_one_call(self):
        # Capacity 2: the call's own first items are evicted by its later
        # ones, and a key re-stored after its eviction counts as new.
        preload = [(("x",), 0), (("y",), 1)]
        items = [(("a",), 2), (("x",), 3), (("b",), 4), (("a",), 5), (("c",), 6)]
        looped, bulk = _looped_and_bulk(2, preload, items)
        _assert_same_cache(looped, bulk)
        assert list(bulk._entries) == [("a",), ("c",)]
        assert bulk.stats.evictions == 5

    def test_duplicate_keys_in_one_call(self):
        items = [(("a",), 1), (("b",), 2), (("a",), 3)]
        looped, bulk = _looped_and_bulk(1, [], items)
        _assert_same_cache(looped, bulk)
        assert bulk.get(("a",)) == 3

    def test_empty_iterable_is_a_no_op(self):
        looped, bulk = _looped_and_bulk(2, [(("a",), 1)], [])
        _assert_same_cache(looped, bulk)
        stats = bulk.stats
        assert (stats.size, stats.evictions, stats.hits, stats.misses) == (1, 0, 0, 0)

    def test_batch_stores_through_put_many(self, rng, monkeypatch):
        calls = []
        original = SolveCache.put_many

        def spy(self, items):
            items = list(items)
            calls.append(items)
            original(self, items)

        monkeypatch.setattr(SolveCache, "put_many", spy)
        cache = SolveCache(capacity=8)
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(3)]
        solve_batch(probs, cache=cache)
        assert len(calls) == 1 and len(calls[0]) == 3
        assert cache.stats.size == 3

    def test_concurrent_put_many_and_get(self):
        # More threads than cores, started together, with a short switch
        # interval: a lost update to the counters would show in the totals.
        cache = SolveCache(capacity=16)
        errors = []
        writers, rounds, width = 3, 1000, 8
        start = threading.Barrier(writers + 1)

        def writer(tag):
            start.wait(timeout=60)
            try:
                for round_ in range(rounds):
                    cache.put_many(((tag, round_, i), i) for i in range(width))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def reader():
            start.wait(timeout=60)
            try:
                for round_ in range(rounds):
                    for i in range(width):
                        cache.get((0, round_, i))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(writers)]
        threads.append(threading.Thread(target=reader))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats
        assert stats.size <= stats.capacity
        assert stats.hits + stats.misses == rounds * width
        assert stats.evictions == writers * rounds * width - stats.size


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
