"""Unit + property tests for the optimal-binary-search-tree substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import (
    brute_force_obst,
    expected_depth_cost,
    random_obst_weights,
    solve_obst,
)


class TestSolve:
    def test_clrs_instance(self):
        # CLRS 3e, Figure 15.9: known optimum 2.75.
        p = [0.15, 0.10, 0.05, 0.10, 0.20]
        q = [0.05, 0.10, 0.05, 0.05, 0.05, 0.10]
        sol = solve_obst(p, q)
        assert sol.cost == pytest.approx(2.75)
        assert sol.root[(1, 5)] == 2  # k2 is the optimal root

    def test_single_key(self):
        sol = solve_obst([0.5], [0.25, 0.25])
        # Tree: root k1 depth 1, both misses depth 2.
        assert sol.cost == pytest.approx(0.5 * 1 + 0.25 * 2 + 0.25 * 2)
        assert sol.tree == (1, None, None)

    def test_zero_keys(self):
        sol = solve_obst([], [1.0])
        assert sol.cost == pytest.approx(1.0)
        assert sol.tree is None

    def test_tree_realizes_cost(self, rng):
        for seed in range(5):
            p, q = random_obst_weights(np.random.default_rng(seed), 6)
            sol = solve_obst(p, q)
            assert expected_depth_cost(p, q, sol.tree) == pytest.approx(sol.cost)

    def test_matches_brute_force(self):
        for seed in range(5):
            p, q = random_obst_weights(np.random.default_rng(seed), 5)
            sol = solve_obst(p, q)
            bf, _tree = brute_force_obst(p, q)
            assert sol.cost == pytest.approx(bf)

    def test_skewed_weights_pull_root(self):
        # Overwhelming weight on key 4 makes it the root.
        p = [0.01, 0.01, 0.01, 0.9]
        q = [0.01] * 5
        sol = solve_obst(p, q)
        assert sol.root[(1, 4)] == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_obst([0.5], [0.5])  # wrong q length
        with pytest.raises(ValueError):
            solve_obst([-0.1], [0.5, 0.6])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["p", "q"])
    def test_non_finite_weights_rejected(self, bad, where):
        # NaN used to pass and return cost = nan on every backend.
        from repro.systolic import ObstSpec

        p, q = [0.3, 0.2], [0.1, 0.2, 0.2]
        if where == "p":
            p[1] = bad
        else:
            q[0] = bad
        for entry in (solve_obst, ObstSpec, brute_force_obst):
            with pytest.raises(ValueError, match="finite"):
                entry(p, q)


class TestOracle:
    def test_depth_cost_rejects_bad_tree(self):
        p = [0.5]
        q = [0.25, 0.25]
        with pytest.raises(ValueError):
            expected_depth_cost(p, q, (2, None, None))  # root out of span
        with pytest.raises(ValueError):
            expected_depth_cost(p, q, None)  # leaf cannot cover a key

    def test_random_weights_shape(self, rng):
        p, q = random_obst_weights(rng, 7)
        assert p.shape == (7,) and q.shape == (8,)
        assert p.sum() + q.sum() == pytest.approx(1.0)

    def test_unnormalized(self, rng):
        p, q = random_obst_weights(rng, 3, normalize=False)
        assert (p <= 1.0).all() and (q <= 1.0).all()


@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=30, deadline=None)
def test_property_dp_is_optimal(n, seed):
    p, q = random_obst_weights(np.random.default_rng(seed), n)
    sol = solve_obst(p, q)
    bf, _ = brute_force_obst(p, q)
    assert sol.cost == pytest.approx(bf)
    assert expected_depth_cost(p, q, sol.tree) == pytest.approx(sol.cost)
