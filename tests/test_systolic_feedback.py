"""Unit tests for the Fig. 5 feedback systolic array."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import solve_node_value
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.graphs import (
    NodeValueProblem,
    fig1b_problem,
    gain_schedule_problem,
    traffic_light_problem,
)
from repro.semiring import MAX_PLUS
from repro.systolic import FeedbackSystolicArray, SystolicError, feedback_pu


@pytest.fixture
def array():
    return FeedbackSystolicArray()


def random_problem(seed: int, n_stages: int, m: int) -> NodeValueProblem:
    rng = np.random.default_rng(seed)
    values = tuple(rng.uniform(0, 10, m) for _ in range(n_stages))
    return NodeValueProblem(values=values, edge_cost=lambda a, b: (a - b) ** 2 + 0.1 * a)


class TestCorrectness:
    def test_fig1b_example(self, array):
        p = fig1b_problem()
        res = array.run(p)
        ref = solve_node_value(p)
        assert np.isclose(res.optimum, ref.optimum)

    def test_fifteen_iterations_for_fig1b(self, array):
        # The paper: "the process is completed in 15 iterations".
        res = array.run(fig1b_problem())
        assert res.report.iterations == 15

    def test_final_stage_values_match_forward_sweep(self, array):
        p = fig1b_problem()
        res = array.run(p)
        ref = solve_node_value(p)
        assert np.allclose(res.final_stage_values, ref.stage_values[-1])

    def test_path_is_optimal(self, array, rng):
        p = traffic_light_problem(rng, 6, 4)
        res = array.run(p)
        g = p.to_graph()
        assert np.isclose(g.path_cost(res.path.nodes), res.optimum)
        assert np.isclose(res.optimum, solve_node_value(p).optimum)

    def test_random_instances(self, array):
        for seed in range(6):
            p = random_problem(seed, n_stages=5, m=4)
            res = array.run(p)
            assert np.isclose(res.optimum, solve_node_value(p).optimum)
            assert np.isclose(p.to_graph().path_cost(res.path.nodes), res.optimum)

    def test_two_stages_minimum(self, array):
        p = random_problem(1, n_stages=2, m=3)
        res = array.run(p)
        assert np.isclose(res.optimum, solve_node_value(p).optimum)

    def test_single_value_per_stage(self, array):
        p = random_problem(2, n_stages=4, m=1)
        res = array.run(p)
        assert np.isclose(res.optimum, solve_node_value(p).optimum)
        assert res.path.nodes == (0, 0, 0, 0)

    def test_max_plus_variant(self):
        arr = FeedbackSystolicArray(MAX_PLUS)
        rng = np.random.default_rng(0)
        values = tuple(rng.uniform(0, 10, 3) for _ in range(4))
        p = NodeValueProblem(
            values=values, edge_cost=lambda a, b: a + b, semiring=MAX_PLUS
        )
        res = arr.run(p)
        assert np.isclose(res.optimum, solve_node_value(p).optimum)


class TestSchedule:
    def test_iteration_count_formula(self, array):
        # (N + 1) * m iterations exactly.
        for n, m in [(3, 3), (5, 2), (4, 6), (7, 4)]:
            p = random_problem(n * m, n, m)
            res = array.run(p)
            assert res.report.iterations == (n + 1) * m

    def test_wall_equals_iterations(self, array):
        p = random_problem(3, 5, 3)
        res = array.run(p)
        assert res.report.wall_ticks == res.report.iterations

    def test_pu_matches_paper_formula(self, array):
        for n, m in [(4, 3), (8, 5)]:
            p = random_problem(n + m, n, m)
            res = array.run(p)
            assert res.report.processor_utilization == pytest.approx(
                feedback_pu(n, m)
            )

    def test_pu_approaches_one(self):
        assert feedback_pu(100, 8) > 0.97
        assert feedback_pu(4, 3) < 0.7

    def test_input_traffic_is_node_values_only(self, array):
        # The Section-3.2 bandwidth claim: N*m node values enter, not
        # (N-1)*m^2 edge costs.
        p = random_problem(5, 5, 4)
        res = array.run(p)
        assert res.report.input_words == 5 * 4
        node, edge = p.input_bandwidth()
        assert res.report.input_words == node < edge


class TestValidation:
    def test_nonuniform_rejected(self, array):
        p = NodeValueProblem(
            values=(np.array([1.0, 2.0]), np.array([1.0])),
            edge_cost=lambda a, b: a - b,
        )
        with pytest.raises(SystolicError, match="uniform"):
            array.run(p)

    def test_semiring_mismatch_rejected(self, array):
        p = NodeValueProblem(
            values=(np.array([1.0]), np.array([2.0])),
            edge_cost=lambda a, b: a + b,
            semiring=MAX_PLUS,
        )
        with pytest.raises(SystolicError, match="semiring"):
            array.run(p)

    def test_needs_argreduce(self):
        from repro.semiring import PLUS_TIMES

        with pytest.raises(SystolicError, match="arg-reduction"):
            FeedbackSystolicArray(PLUS_TIMES)


def _counting(problem: NodeValueProblem):
    """A twin of ``problem`` whose ``edge_cost`` logs the operands of every call."""
    calls: list[tuple[np.ndarray, np.ndarray]] = []

    def edge_cost(x, y):
        calls.append((x, y))
        return problem.edge_cost(x, y)

    return NodeValueProblem(values=problem.values, edge_cost=edge_cost), calls


class TestCostBlock:
    """The F unit reads ``g`` from the problem's cost block and calls
    ``edge_cost`` only on operands that are not the problem's own values."""

    def _gain(self):
        return gain_schedule_problem(np.random.default_rng(33), 16, 8)

    def test_healthy_rtl_run_makes_no_per_op_call(self):
        problem, calls = _counting(self._gain())
        FeedbackSystolicArray().run(problem, backend="rtl")
        # One call per layer, all to build the block; none on 0-d operands.
        assert len(calls) == problem.num_stages - 1
        assert all(np.ndim(x) == 2 and np.ndim(y) == 2 for x, y in calls)
        FeedbackSystolicArray().run(problem, record_trace=True, strict=True)
        assert len(calls) == problem.num_stages - 1

    def test_k_flip_calls_edge_cost_only_for_the_ops_it_corrupts(self):
        problem, calls = _counting(self._gain())
        problem.cost_blocks
        calls.clear()
        spec = FaultSpec(mode="transient_flip", pe=2, reg="K", tick=40, delta=0.25)
        injector = FaultInjector(FaultPlan(specs=(spec,)))
        res = FeedbackSystolicArray().run(problem, injector=injector)
        (fault,) = injector.injections
        # P3's K latches stage k's value at tick 8k + 3.  The flip after
        # tick 40's edge corrupts stage 4's value for the ops of ticks 41
        # and 42 (pairs 7 and 8 of stage 5); stage 5's own value arrives
        # on the bus at tick 43.
        assert [(float(x), float(y)) for x, y in calls] == [
            (float(fault.after), problem.values[4][6]),
            (float(fault.after), problem.values[4][7]),
        ]
        assert res.report.input_words == problem.num_stages * 8


@given(
    n_stages=st.integers(min_value=2, max_value=7),
    m=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_property_matches_sequential_with_valid_path(n_stages, m, seed):
    p = random_problem(seed, n_stages, m)
    res = FeedbackSystolicArray().run(p)
    ref = solve_node_value(p)
    assert np.isclose(res.optimum, ref.optimum)
    assert np.isclose(p.to_graph().path_cost(res.path.nodes), res.optimum)
    assert res.report.iterations == (n_stages + 1) * m
