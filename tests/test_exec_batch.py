"""solve_batch(): grouping, vectorized kernels, bit-identity to solve().

The batch engine's whole contract is that its stacked kernels are an
*execution strategy*, not a different algorithm: every report must be
bit-for-bit what a looped :func:`repro.solve` would have produced —
optimum, reference, traced path and closed-form counters included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import MatrixChainProblem, recommend, solve, solve_batch
from repro.exec import group_problems
from repro.exec.grouping import _plan
from repro.graphs import (
    MultistageGraph,
    NodeValueProblem,
    random_multistage,
    single_source_sink,
    traffic_light_problem,
    uniform_multistage,
)
from repro.semiring import MAX_PLUS, MIN_PLUS
from repro.telemetry import MetricsRegistry


def assert_same_report(a, b):
    """Bit-for-bit equality of two SolveReports (modulo object identity)."""
    assert a.method == b.method
    assert a.dp_class == b.dp_class
    assert a.optimum == b.optimum
    assert a.reference == b.reference
    assert a.validated == b.validated
    sa, sb = a.solution, b.solution
    if isinstance(sa, np.ndarray) or isinstance(sb, np.ndarray):
        assert np.array_equal(np.asarray(sa), np.asarray(sb))
    elif hasattr(sa, "nodes"):
        assert sa.nodes == sb.nodes
    else:
        assert sa == sb
    ra = getattr(a.detail, "report", None)
    rb = getattr(b.detail, "report", None)
    assert ra == rb


def assert_batch_matches_loop(problems, *, backend="fast", **kwargs):
    result = solve_batch(problems, backend=backend, **kwargs)
    assert len(result) == len(problems)
    for rep, problem in zip(result, problems):
        assert_same_report(rep, solve(problem, backend=backend))
    return result


class TestGrouping:
    def test_uniform_feedback_instances_form_one_vectorized_group(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(6)]
        groups = group_problems(probs, list(range(6)), prefer=None, vectorize=True)
        assert len(groups) == 1
        assert groups[0].kind == "feedback"
        assert len(groups[0]) == 6

    def test_shape_mismatch_splits_groups(self, rng):
        probs = [
            traffic_light_problem(rng, 5, 4),
            traffic_light_problem(rng, 5, 4),
            traffic_light_problem(rng, 6, 4),  # different stage count
        ]
        groups = group_problems(probs, [0, 1, 2], prefer=None, vectorize=True)
        assert sorted(len(g) for g in groups) == [1, 2]

    def test_vectorize_false_demotes_to_scalar(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(4)]
        groups = group_problems(probs, [0, 1, 2, 3], prefer=None, vectorize=False)
        assert all(g.kind == "scalar" for g in groups)

    @pytest.mark.parametrize(
        "prefer", [None, "pipelined", "broadcast", "dnc", "sequential"]
    )
    def test_group_kind_follows_solve_route(self, rng, prefer):
        def node_value(sizes):
            values = tuple(rng.uniform(0, 5, size) for size in sizes)
            return NodeValueProblem(values=values, edge_cost=lambda a, b: np.abs(a - b))

        probs = [
            node_value([4] * 5),  # uniform: Fig. 5
            node_value([3, 4, 2, 3]),  # non-uniform: sequential sweep
            node_value([3] * 20),  # N > 4·m: divide-and-conquer
            single_source_sink(rng, 3, 4),
            uniform_multistage(rng, 4, 3),  # multi-source, framed
            random_multistage(rng, [2, 3, 4, 2]),  # non-uniform
            uniform_multistage(rng, 20, 3),  # N > 4·m
            MatrixChainProblem((4, 7, 3, 5, 2)),
        ]
        kinds = {"fig5-feedback-array": "feedback", "fig3-pipelined-array": "pipelined"}
        for problem in probs:
            (group,) = group_problems([problem], [0], prefer=prefer, vectorize=True)
            method = solve(problem, prefer=prefer, backend="fast").method
            assert group.kind == kinds.get(method, "scalar"), (problem, method)

    def test_group_indices_partition_the_batch(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(3)]
        probs += [uniform_multistage(rng, 4, 3) for _ in range(3)]
        groups = group_problems(probs, list(range(6)), prefer=None, vectorize=True)
        seen = sorted(i for g in groups for i in g.indices)
        assert seen == list(range(6))


def _signature(problem):
    return (type(problem), problem.stage_sizes, problem.semiring.name)


class TestGroupingMemo:
    """``group_problems`` classifies once per (type, shape, semiring), and
    the memo is exact: the same groups as classifying every problem."""

    @pytest.fixture
    def mixed(self, rng):
        def node_value(sizes, semiring=MIN_PLUS):
            values = tuple(rng.uniform(0, 5, size) for size in sizes)
            return NodeValueProblem(
                values=values, edge_cost=lambda a, b: np.abs(a - b), semiring=semiring
            )

        def graph(sizes, semiring=MIN_PLUS):
            return random_multistage(rng, sizes, semiring=semiring)

        makers = [
            lambda: node_value([4] * 5),
            lambda: graph([4] * 5),  # same stage sizes, edge-cost form
            lambda: node_value([4] * 5, MAX_PLUS),  # same shape, other semiring
            lambda: graph([4] * 5, MAX_PLUS),
            lambda: node_value([3, 4, 2, 3]),  # non-uniform: sequential
            lambda: uniform_multistage(rng, 20, 3),  # N > 4·m: dnc
            lambda: MatrixChainProblem((4, 7, 3, 5, 2)),
        ]
        # Three rounds, interleaved, so every group has several members.
        return [make() for _ in range(3) for make in makers]

    @pytest.mark.parametrize(
        "prefer", [None, "pipelined", "broadcast", "sequential", "dnc"]
    )
    def test_groups_match_per_problem_reference(self, mixed, prefer):
        reference: dict = {}
        for pos, problem in enumerate(mixed):
            key = _plan(problem, recommend(problem), prefer)
            reference.setdefault(key, []).append(pos)
        positions = list(range(len(mixed)))
        groups = group_problems(mixed, positions, prefer=prefer, vectorize=True)
        assert [(g.key, g.indices) for g in groups] == list(reference.items())
        for group in groups:
            assert all(p is mixed[i] for p, i in zip(group.problems, group.indices))
            if group.kind == "scalar":
                assert group.recommendation is None
            else:
                assert all(group.recommendation == recommend(p) for p in group.problems)
        assert any(g.kind != "scalar" for g in groups)

    @pytest.mark.parametrize("prefer", [None, "pipelined", "dnc"])
    def test_batch_rows_carry_their_own_recommendation(self, mixed, prefer):
        result = solve_batch(mixed, prefer=prefer)
        assert result.stats.vectorized_problems > 0
        for report, problem in zip(result, mixed):
            assert report.recommendation == recommend(problem)

    @pytest.mark.parametrize("prefer", [None, "pipelined", "sequential"])
    def test_recommend_runs_once_per_signature(self, mixed, prefer, monkeypatch):
        import repro.exec.grouping as grouping

        seen = []

        def counting(problem, **kwargs):
            seen.append(problem)
            return recommend(problem, **kwargs)

        monkeypatch.setattr(grouping, "recommend", counting)
        group_problems(mixed, list(range(len(mixed))), prefer=prefer, vectorize=True)
        serial = [
            p for p in mixed if isinstance(p, (NodeValueProblem, MultistageGraph))
        ]
        signatures = [_signature(p) for p in seen]
        assert len(signatures) == len(set(signatures))
        assert set(signatures) == {_signature(p) for p in serial}
        assert not any(isinstance(p, MatrixChainProblem) for p in seen)

        seen.clear()
        group_problems(mixed, list(range(len(mixed))), prefer=prefer, vectorize=False)
        assert seen == []


class TestVectorizedKernels:
    def test_feedback_batch_bit_identical(self, rng):
        probs = [traffic_light_problem(rng, 6, 5) for _ in range(8)]
        result = assert_batch_matches_loop(probs)
        assert result.stats.vectorized_groups == 1
        assert result.stats.fill_factor == 1.0

    def test_node_value_problem_batch(self, rng):
        probs = []
        for _ in range(5):
            values = tuple(rng.uniform(0, 5, 4) for _ in range(5))
            probs.append(
                NodeValueProblem(
                    values=values, edge_cost=lambda a, b: np.abs(a - b)
                )
            )
        assert_batch_matches_loop(probs)

    def test_unregistered_semiring_batch(self, rng):
        # Payloads carry the problem's own semiring, not a name looked up
        # among the built-in ones.
        sr = dataclasses.replace(MIN_PLUS, name="min-plus-copy")
        probs = [
            NodeValueProblem(
                values=tuple(rng.uniform(0, 5, 4) for _ in range(5)),
                edge_cost=lambda a, b: np.abs(a - b),
                semiring=sr,
            )
            for _ in range(3)
        ]
        result = assert_batch_matches_loop(probs)
        assert result.stats.vectorized_groups == 1

    def test_pipelined_framed_graph_batch(self, rng):
        probs = [uniform_multistage(rng, 5, 4) for _ in range(6)]
        result = assert_batch_matches_loop(probs)
        assert result.stats.vectorized_groups == 1

    def test_pipelined_fitting_graph_batch(self, rng):
        probs = [single_source_sink(rng, 4, 3) for _ in range(6)]
        assert_batch_matches_loop(probs)

    def test_chain_problems_run_scalar(self, rng):
        probs = [
            MatrixChainProblem(tuple(int(d) for d in rng.integers(2, 40, size=5)))
            for _ in range(4)
        ]
        result = assert_batch_matches_loop(probs)
        assert result.stats.vectorized_groups == 0

    def test_mixed_batch_preserves_order(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(3)]
        probs += [uniform_multistage(rng, 4, 3) for _ in range(3)]
        probs += [
            MatrixChainProblem(tuple(int(d) for d in rng.integers(2, 40, size=5)))
            for _ in range(2)
        ]
        order = rng.permutation(len(probs))
        shuffled = [probs[i] for i in order]
        assert_batch_matches_loop(shuffled)

    def test_rtl_backend_stays_scalar_and_identical(self, rng):
        probs = [uniform_multistage(rng, 4, 3) for _ in range(3)]
        result = solve_batch(probs, backend="rtl")
        assert result.stats.vectorized_groups == 0
        for rep, problem in zip(result, probs):
            assert_same_report(rep, solve(problem, backend="rtl"))

    def test_empty_batch(self):
        result = solve_batch([])
        assert len(result) == 0
        assert result.stats.total == 0
        assert result.stats.problems_per_second == 0.0 or result.stats.total == 0

    def test_single_problem_batch(self, rng):
        probs = [traffic_light_problem(rng, 5, 4)]
        assert_batch_matches_loop(probs)


class TestScalarLoop:
    """Everything a stacked kernel does not carry loops ``solve()`` in batch order."""

    def test_sinks_batch_matches_looped_solve_event_for_event(self, rng):
        values = tuple(rng.uniform(0, 5, 3) for _ in range(4))
        probs = [
            NodeValueProblem(values=values, edge_cost=lambda a, b: np.abs(a - b)),
            uniform_multistage(rng, 4, 3),
            MatrixChainProblem((4, 7, 3, 5)),
        ]
        events: list = []
        result = solve_batch(probs, backend="rtl", sinks=[events.append])
        assert result.stats.groups == 1 and result.stats.vectorized_groups == 0
        looped_events: list = []
        for rep, problem in zip(result, probs):
            assert_same_report(
                rep, solve(problem, backend="rtl", sinks=[looped_events.append])
            )
        assert events and events == looped_events

    def test_workers_must_be_one(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(4)]
        with pytest.raises(ValueError, match="one process"):
            solve_batch(probs, workers=2)
        for rep, ref in zip(solve_batch(probs, workers=1), solve_batch(probs)):
            assert_same_report(rep, ref)

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_unknown_prefer_rejected_before_grouping(self, rng, vectorize):
        # A vectorized group never calls solve(), so solve_batch checks itself.
        backend = "fast" if vectorize else "rtl"
        with pytest.raises(ValueError, match="unknown prefer"):
            solve_batch([uniform_multistage(rng, 4, 3)], prefer="pipelnied",
                        backend=backend)


class TestCrossBackendFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_batched_matches_looped_solve(self, seed):
        rng = np.random.default_rng(seed)
        probs = []
        n = int(rng.integers(4, 8))
        m = int(rng.integers(2, 6))
        for _ in range(int(rng.integers(2, 5))):
            probs.append(traffic_light_problem(rng, n, m))
        for _ in range(int(rng.integers(2, 5))):
            probs.append(uniform_multistage(rng, n, m))
        for _ in range(int(rng.integers(1, 3))):
            probs.append(
                MatrixChainProblem(
                    tuple(int(d) for d in rng.integers(2, 30, size=n))
                )
            )
        edge_shapes = [
            uniform_multistage(rng, 3, 1),  # m = 1
            single_source_sink(rng, 2, 1),  # m = 1
            single_source_sink(rng, n - 2, m),  # leftmost row vector
            uniform_multistage(rng, 3, m),  # framed multi-source
            traffic_light_problem(rng, 2, m),  # 2-stage node-value
            traffic_light_problem(rng, 3, 1),  # m = 1 node-value
        ]
        probs += edge_shapes
        shuffled = [probs[i] for i in rng.permutation(len(probs))]
        for backend in ("fast", "rtl"):
            result = solve_batch(shuffled, backend=backend)
            for rep, problem in zip(result, shuffled):
                assert_same_report(rep, solve(problem, backend=backend))
        for problem in edge_shapes:
            batched = solve_batch([problem]).reports[0]
            assert solve(problem, backend="fast").detail.report == batched.detail.report


class TestStatsAndMetrics:
    def test_stats_accounting(self, rng):
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(4)]
        probs += [
            MatrixChainProblem(tuple(int(d) for d in rng.integers(2, 30, size=5)))
            for _ in range(2)
        ]
        stats = solve_batch(probs).stats
        assert stats.total == 6
        assert stats.executed == 6
        assert stats.cache_hits == 0
        assert stats.vectorized_problems == 4
        assert stats.fill_factor == pytest.approx(4 / 6)
        assert stats.wall_seconds > 0
        assert stats.problems_per_second > 0

    def test_registry_receives_throughput_counters(self, rng):
        registry = MetricsRegistry()
        probs = [traffic_light_problem(rng, 5, 4) for _ in range(4)]
        solve_batch(probs, registry=registry)
        names = set(registry.snapshot()["metrics"])
        assert "repro_batch_problems_total" in names
        assert "repro_batch_cache_hits_total" in names
        assert "repro_batch_problems_per_second" in names
        assert "repro_batch_group_fill_factor" in names
