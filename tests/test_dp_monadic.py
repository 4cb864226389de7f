"""Unit tests for the monadic-serial sequential solvers (eqs. 1-2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dp import solve_backward, solve_forward, solve_node_value
from repro.graphs import (
    MultistageGraph,
    fig1a_graph,
    fig1b_problem,
    random_multistage,
    single_source_sink,
    uniform_multistage,
)
from repro.semiring import MAX_PLUS, MIN_PLUS, PLUS_TIMES


class TestBackward:
    def test_fig1a_optimum(self):
        sol = solve_backward(fig1a_graph())
        assert sol.optimum == 6.0
        assert sol.direction == "backward"

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            g = random_multistage(rng, [2, 4, 3, 4, 2])
            sol = solve_backward(g)
            assert np.isclose(sol.optimum, g.brute_force_optimum()[0])

    def test_path_realizes_optimum(self, rng):
        g = uniform_multistage(rng, 7, 3)
        sol = solve_backward(g)
        assert np.isclose(g.path_cost(sol.path.nodes), sol.optimum)

    def test_stage_values_are_costs_to_sink(self, rng):
        g = uniform_multistage(rng, 5, 3)
        sol = solve_backward(g)
        # Stage-k value of node i == optimum of the subgraph from stage k.
        sub = MultistageGraph(costs=g.costs[2:], semiring=g.semiring)
        sub_sol = solve_backward(sub)
        assert np.allclose(sol.stage_values[2], sub_sol.stage_values[0])

    def test_decisions_are_consistent(self, rng):
        g = uniform_multistage(rng, 6, 4)
        sol = solve_backward(g)
        for k in range(g.num_stages - 1):
            for i in range(g.stage_sizes[k]):
                j = sol.decisions[k][i]
                expected = g.costs[k][i, j] + sol.stage_values[k + 1][j]
                assert np.isclose(sol.stage_values[k][i], expected)

    def test_op_count_formula(self, rng):
        g = single_source_sink(rng, 5, 4)  # 7 stages, N = 6 layers
        sol = solve_backward(g)
        assert sol.op_count == (6 - 2) * 16 + 4 + 4  # all layers relaxed

    def test_missing_edges_respected(self):
        costs = (
            np.array([[1.0, np.inf]]),
            np.array([[np.inf], [5.0]]),
        )
        g = MultistageGraph(costs=costs)
        sol = solve_backward(g)
        assert np.isinf(sol.optimum)  # only path uses a missing edge


class TestForward:
    def test_fig1a_optimum(self):
        sol = solve_forward(fig1a_graph())
        assert sol.optimum == 6.0
        assert sol.direction == "forward"

    def test_agrees_with_backward(self, rng):
        for _ in range(5):
            g = random_multistage(rng, [3, 5, 2, 4, 3])
            assert np.isclose(
                solve_forward(g).optimum, solve_backward(g).optimum
            )

    def test_path_realizes_optimum(self, rng):
        g = uniform_multistage(rng, 6, 4)
        sol = solve_forward(g)
        assert np.isclose(g.path_cost(sol.path.nodes), sol.optimum)

    def test_stage_values_are_costs_from_source(self, rng):
        g = uniform_multistage(rng, 5, 3)
        sol = solve_forward(g)
        sub = MultistageGraph(costs=g.costs[:2], semiring=g.semiring)
        sub_sol = solve_forward(sub)
        assert np.allclose(sol.stage_values[2], sub_sol.stage_values[-1])


class TestSemiringVariants:
    def test_max_plus_longest_path(self, rng):
        costs = tuple(rng.uniform(0, 5, (3, 3)) for _ in range(3))
        g = MultistageGraph(costs=costs, semiring=MAX_PLUS)
        sol = solve_backward(g)
        all_costs = [g.path_cost(p) for p in g.iter_paths()]
        assert np.isclose(sol.optimum, max(all_costs))
        assert np.isclose(g.path_cost(sol.path.nodes), sol.optimum)

    def test_plus_times_rejected(self):
        g = MultistageGraph(costs=(np.ones((2, 2)),), semiring=PLUS_TIMES)
        with pytest.raises(ValueError, match="decision extraction"):
            solve_backward(g)
        with pytest.raises(ValueError, match="decision extraction"):
            solve_forward(g)


class TestNodeValue:
    def test_matches_materialized_graph(self):
        p = fig1b_problem()
        sol = solve_node_value(p)
        ref = solve_forward(p.to_graph())
        assert np.isclose(sol.optimum, ref.optimum)

    def test_h_values_are_forward_values(self, rng):
        from repro.graphs import traffic_light_problem

        p = traffic_light_problem(rng, 5, 4)
        sol = solve_node_value(p)
        # h(x_N) must be the per-node shortest path from stage 1.
        assert len(sol.stage_values[-1]) == 4
        assert np.isclose(min(sol.stage_values[-1]), sol.optimum)


def _gather_sweep(graph, backward):
    """The sweep with values gathered at the decisions (``take_along_axis``)."""
    sr, costs, n = graph.semiring, graph.costs, graph.num_stages
    values = [None] * n
    decisions = [None] * n
    order = range(n - 2, -1, -1) if backward else range(1, n)
    values[-1 if backward else 0] = sr.ones(graph.stage_sizes[-1 if backward else 0])
    for k in order:
        if backward:
            cand = sr.mul(costs[k], values[k + 1][None, :])
            decisions[k] = sr.add_argreduce(cand, axis=1).astype(np.intp)
            values[k] = np.take_along_axis(cand, decisions[k][:, None], axis=1)[:, 0]
        else:
            cand = sr.mul(values[k - 1][:, None], costs[k - 1])
            decisions[k] = sr.add_argreduce(cand, axis=0).astype(np.intp)
            values[k] = np.take_along_axis(cand, decisions[k][None, :], axis=0)[0, :]
    ends = values[0] if backward else values[-1]
    nodes = [int(sr.add_argreduce(ends))]
    for k in range(n - 1) if backward else range(n - 1, 0, -1):
        nodes.append(int(decisions[k][nodes[-1]]))
    return values, decisions, tuple(nodes if backward else nodes[::-1])


class TestGatherFreeSweep:
    """Reducing ⊕ directly gives the values, decisions and path of a gather."""

    @staticmethod
    def _graphs(rng):
        # Tie-heavy: small integer costs, many equal candidates per cell.
        for sizes in ([1, 4, 4, 4, 1], [3, 5, 2, 5, 3], [4] * 7):
            for sr in (MIN_PLUS, MAX_PLUS):
                costs = tuple(
                    rng.integers(0, 3, (a, b)).astype(float)
                    for a, b in zip(sizes, sizes[1:])
                )
                yield MultistageGraph(costs=costs, semiring=sr)
        # Sparse: many missing (+inf) edges, some vertices unreachable.
        for p in (0.3, 0.5):
            yield random_multistage(rng, [3, 4, 4, 4, 2], edge_probability=p)

    @pytest.mark.parametrize("backward", [True, False])
    def test_matches_take_along_axis_reference(self, rng, backward):
        for g in self._graphs(rng):
            sol = solve_backward(g) if backward else solve_forward(g)
            values, decisions, nodes = _gather_sweep(g, backward)
            for got, want in zip(sol.stage_values, values):
                np.testing.assert_array_equal(got, want)
            defined = range(g.num_stages - 1) if backward else range(1, g.num_stages)
            for k in defined:
                np.testing.assert_array_equal(sol.decisions[k], decisions[k])
            assert sol.path.nodes == nodes
            assert np.isclose(sol.optimum, g.path_cost(nodes))
