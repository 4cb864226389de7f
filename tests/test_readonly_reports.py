"""Reports are read-only all the way down, so a cache can share them.

Every route × backend × entry (``solve()``, ``solve_batch()``, a cache
hit) yields a report from which no writable array and no mutable
container (list, dict, set, bytearray) is reachable through dataclass
fields, tuples and mappings.  Batch rows own their memory, so a cached
row never keeps its whole ``(B, …)`` stack alive.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections.abc import Mapping

import numpy as np
import pytest

from repro import MatrixChainProblem, SolveCache, solve, solve_batch
from repro.graphs import (
    NodeValueProblem,
    single_source_sink,
    traffic_light_problem,
    uniform_multistage,
)

_MUTABLE = (list, dict, set, bytearray)


def assert_nothing_writable(obj, where="report", seen=None):
    """Walk dataclass fields, tuples and mappings below ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    assert not isinstance(obj, _MUTABLE), f"{where} is a {type(obj).__name__}"
    if isinstance(obj, np.ndarray):
        assert not obj.flags.writeable, f"{where} is a writable array"
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            assert_nothing_writable(item, f"{where}[{i}]", seen)
    elif isinstance(obj, Mapping):
        for key, value in obj.items():
            assert_nothing_writable(key, f"{where} key {key!r}", seen)
            assert_nothing_writable(value, f"{where}[{key!r}]", seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            assert_nothing_writable(
                getattr(obj, field.name), f"{where}.{field.name}", seen
            )


def _non_uniform_node_value(rng):
    values = tuple(rng.uniform(0, 5, size) for size in (3, 4, 3, 2))
    return NodeValueProblem(values=values, edge_cost=lambda x, y: np.abs(x - y))


def _chain(rng):
    return MatrixChainProblem(tuple(int(d) for d in rng.integers(2, 30, size=6)))


#: (problem factory, prefer, method prefix): every route a node-value,
#: edge-cost graph or matrix-chain problem can take.
ROUTES = {
    "node-feedback": (
        lambda rng: traffic_light_problem(rng, 5, 4), None, "fig5-feedback"
    ),
    "node-dnc": (
        lambda rng: traffic_light_problem(rng, 24, 3), None, "divide-and-conquer"
    ),
    "node-sequential": (_non_uniform_node_value, None, "sequential-sweep"),
    "graph-pipelined": (
        lambda rng: uniform_multistage(rng, 4, 3), None, "fig3-pipelined"
    ),
    "graph-broadcast": (
        lambda rng: single_source_sink(rng, 3, 3), "broadcast", "fig4-broadcast"
    ),
    "graph-dnc": (
        lambda rng: uniform_multistage(rng, 4, 3), "dnc", "divide-and-conquer"
    ),
    "graph-sequential": (
        lambda rng: uniform_multistage(rng, 4, 3), "sequential", "sequential-sweep"
    ),
    "chain-systolic": (_chain, None, "systolic"),
    "chain-broadcast": (_chain, "broadcast", "broadcast"),
}


def _problems(route, rng):
    make, prefer, method = ROUTES[route]
    return [make(rng), make(rng)], prefer, method


@pytest.mark.parametrize("backend", ["rtl", "fast", "auto"])
@pytest.mark.parametrize("route", sorted(ROUTES))
class TestNothingReachableIsWritable:
    def test_solve(self, route, backend, rng):
        problems, prefer, method = _problems(route, rng)
        for problem in problems:
            report = solve(problem, prefer=prefer, backend=backend)
            assert method in report.method
            assert_nothing_writable(report)

    def test_solve_batch(self, route, backend, rng):
        problems, prefer, method = _problems(route, rng)
        for report in solve_batch(problems, prefer=prefer, backend=backend):
            assert method in report.method
            assert_nothing_writable(report)


# rtl runs bypass the cache, so only fast and auto reports can be hits.
@pytest.mark.parametrize("backend", ["fast", "auto"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_cache_hits_are_the_stored_read_only_reports(route, backend, rng):
    problems, prefer, method = _problems(route, rng)
    cache = SolveCache()
    stored = [solve(p, prefer=prefer, backend=backend, cache=cache) for p in problems]
    hits = [solve(p, prefer=prefer, backend=backend, cache=cache) for p in problems]
    hits += solve_batch(problems, prefer=prefer, backend=backend, cache=cache)
    assert cache.stats.hits == 2 * len(problems)
    for report, hit in zip(stored * 2, hits):
        assert hit is report
        assert method in hit.method
        assert_nothing_writable(hit)


class TestBatchRowsOwnTheirMemory:
    def test_feedback_and_pipelined_rows(self, rng):
        problems = [traffic_light_problem(rng, 5, 4) for _ in range(3)]
        problems += [uniform_multistage(rng, 4, 3) for _ in range(3)]
        reports = solve_batch(problems).reports
        assert reports[0].method == "fig5-feedback-array"
        assert reports[3].method == "fig3-pipelined-array"
        for report in reports[:3]:
            assert report.detail.final_stage_values.base is None
        for report in reports[3:]:
            assert report.solution.base is None


class TestReadOnlyRoundTrips:
    def test_unpickled_chain_run_is_read_only(self):
        report = solve(MatrixChainProblem((5, 3, 7, 2, 6)), backend="fast")
        clone = pickle.loads(pickle.dumps(report))
        assert clone.detail.subproblem_completion == report.detail.subproblem_completion
        with pytest.raises(TypeError):
            clone.detail.subproblem_completion[(1, 1)] = 0
        assert_nothing_writable(clone.detail)

    # Every result a report holds restores the read-only rule on
    # unpickling (``repro._readonly.restore_read_only``) or goes through
    # its constructor (the parenthesizers').
    @pytest.mark.parametrize("backend", ["rtl", "fast"])
    @pytest.mark.parametrize(
        "route",
        [
            "node-feedback", "graph-pipelined", "graph-broadcast",
            "chain-systolic", "chain-broadcast",
            "node-sequential", "graph-sequential", "node-dnc", "graph-dnc",
        ],
    )
    def test_unpickled_reports_equal_and_stay_read_only(self, route, backend, rng):
        problems, prefer, _method = _problems(route, rng)
        reports = [solve(p, prefer=prefer, backend=backend) for p in problems]
        reports += solve_batch(problems, prefer=prefer, backend=backend).reports
        for report in reports:
            clone = pickle.loads(pickle.dumps(report))
            assert clone == report
            assert_nothing_writable(clone)

    # The sequential oracles' results are read-only from construction, so
    # the original and its clone agree, and ``==`` compares the arrays.
    @pytest.mark.parametrize("oracle", ["solve_backward", "solve_forward", "solve_polyadic"])
    def test_oracle_results_equal_and_are_read_only_before_and_after_pickling(self, oracle):
        from repro import dp

        graph = uniform_multistage(np.random.default_rng(0), 4, 3)
        first, second = getattr(dp, oracle)(graph), getattr(dp, oracle)(graph)
        assert first is not second and first == second
        clone = pickle.loads(pickle.dumps(first))
        assert clone == first
        for result in (first, clone):
            assert_nothing_writable(result, oracle)

    def test_one_matrix_chain_product_leaves_the_input_writable(self):
        from repro.dnc import simulate_chain_product

        mat = np.arange(4.0).reshape(2, 2)
        sched = simulate_chain_product(1, 1, matrices=[mat])
        assert mat.flags.writeable and not sched.product.flags.writeable
        assert np.array_equal(sched.product, mat)


class TestArrayAwareEquality:
    """``==`` on results that hold arrays compares them by dtype, shape and
    values; the generated ``__eq__`` raised on a multi-element array."""

    def test_dnc_reports_with_vector_solutions(self):
        def run():
            return solve(uniform_multistage(np.random.default_rng(0), 30, 3), backend="fast")

        first, second = run(), run()
        assert first.solution.size > 1 and first.solution is not second.solution
        assert first == second

    def test_fig4_decisions_and_observed_phase_values(self):
        from repro.systolic import BroadcastMatrixStringArray

        mats = single_source_sink(np.random.default_rng(3), 3, 4).as_matrices()
        runs = [
            BroadcastMatrixStringArray().run(mats, backend=backend, track_decisions=True,
                                             observe=observe)
            for backend, observe in (("fast", False), ("fast", False), ("rtl", True))
        ]
        assert runs[0] == runs[1] and runs[0].decisions
        assert runs[2] == dataclasses.replace(runs[2])
        assert runs[2].phase_values and runs[2] != runs[0]

    def test_a_different_array_value_dtype_or_shape_is_unequal(self):
        report = solve(uniform_multistage(np.random.default_rng(1), 4, 3), backend="fast")
        detail = report.detail
        value = np.array(detail.value)
        changed = value.copy()
        changed.flat[0] += 1
        for other in (changed, value.astype(np.float32), value[None]):
            assert dataclasses.replace(detail, value=other) != detail
        assert dataclasses.replace(detail, value=value) == detail
        # ``certified`` is not compared, as before.
        assert dataclasses.replace(detail, certified=None) == detail

    def test_other_types_and_hashing_are_unchanged(self):
        report = solve(traffic_light_problem(np.random.default_rng(2), 4, 3), backend="fast")
        assert report != object() and report.detail != report
        assert report.__eq__(object()) is NotImplemented
        # A frozen dataclass with ``eq`` still gets its generated ``__hash__``.
        assert report.detail.path.__hash__ is not None
        assert type(report).__hash__ is not None
