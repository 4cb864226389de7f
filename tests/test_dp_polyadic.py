"""Unit tests for the polyadic divide-and-conquer solver (eq. 3/15)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import semiring
from repro.dataflow import tasks_balanced_tree
from repro.dp import MultiplyNode, solve_backward, solve_polyadic, stage_cost_matrix
from repro.graphs import random_multistage, uniform_multistage
from repro.semiring import MIN_PLUS, chain_product, chain_product_tree


class TestStageCostMatrix:
    def test_adjacent_stages_are_raw_costs(self, rng):
        g = uniform_multistage(rng, 5, 3)
        assert np.array_equal(stage_cost_matrix(g, 1, 2), g.costs[1])

    def test_full_span_matches_chain_product(self, rng):
        g = uniform_multistage(rng, 6, 3)
        full = stage_cost_matrix(g, 0, 5)
        assert np.allclose(full, chain_product(MIN_PLUS, g.as_matrices()))

    def test_eq15_split_identity(self, rng):
        # f3(Vi, Vj) == f3(Vi, Vk) · f3(Vk, Vj) for any intermediate k.
        from repro.semiring import matmul

        g = uniform_multistage(rng, 7, 3)
        whole = stage_cost_matrix(g, 1, 5)
        for k in (2, 3, 4):
            split = matmul(MIN_PLUS, stage_cost_matrix(g, 1, k), stage_cost_matrix(g, k, 5))
            assert np.allclose(whole, split)

    def test_invalid_span_rejected(self, rng):
        g = uniform_multistage(rng, 4, 2)
        with pytest.raises(ValueError):
            stage_cost_matrix(g, 2, 2)
        with pytest.raises(ValueError):
            stage_cost_matrix(g, 3, 1)
        with pytest.raises(ValueError):
            stage_cost_matrix(g, 0, 9)


class TestSolvePolyadic:
    def test_agrees_with_monadic(self, rng):
        for _ in range(5):
            g = random_multistage(rng, [2, 4, 4, 3, 2])
            assert np.isclose(
                solve_polyadic(g).optimum, solve_backward(g).optimum
            )

    def test_multiplication_count(self, rng):
        g = uniform_multistage(rng, 9, 2)  # 8 layers
        sol = solve_polyadic(g)
        assert sol.num_multiplications == 8 - 1

    def test_cost_matrix_shape(self, rng):
        g = random_multistage(rng, [2, 3, 3, 4])
        sol = solve_polyadic(g)
        assert sol.cost_matrix.shape == (2, 4)


def _internal_ranges(node):
    """``(lo, hi)`` of every internal node, children first."""
    if node.is_leaf:
        return []
    below = _internal_ranges(node.left) + _internal_ranges(node.right)
    return below + [(node.lo, node.hi)]


def _leaves(node):
    if node.is_leaf:
        return [(node.lo, node.hi)]
    return _leaves(node.left) + _leaves(node.right)


def _product_ranges(monkeypatch, run, matrices):
    """``(lo, hi)`` of every product ``run()`` forms with the semiring
    ``matmul``, read off its operands: leaf ``k`` covers ``(k, k + 1)``."""
    covers = {id(m): (k, k + 1) for k, m in enumerate(matrices)}
    ranges = []
    real = semiring.matrix.matmul

    def recording(sr, a, b, **kw):
        (lo, mid), (mid2, hi) = covers[id(a)], covers[id(b)]
        assert mid == mid2
        out = real(sr, a, b, **kw)
        covers[id(out)] = (lo, hi)
        ranges.append((lo, hi))
        return out

    monkeypatch.setattr(semiring.matrix, "matmul", recording)
    run()
    monkeypatch.undo()
    return ranges


class TestMultiplyTree:
    def test_balanced_height(self):
        tree = MultiplyNode.balanced(0, 8)
        assert tree.depth == 3  # log2(8)

    def test_uneven_height(self):
        tree = MultiplyNode.balanced(0, 5)
        assert tree.depth == 3  # ceil(log2(5))

    def test_height_is_ceil_log2(self):
        for n in (1, 2, 3, 4, 7, 8, 9, 100):
            assert MultiplyNode.balanced(0, n).depth == math.ceil(math.log2(n))

    def test_leaf_properties(self):
        leaf = MultiplyNode(lo=2, hi=3)
        assert leaf.is_leaf
        assert leaf.depth == 0
        assert leaf.count_internal() == 0

    def test_leaf_count(self):
        for lo, n in ((0, 1), (0, 2), (3, 5), (0, 16), (1, 33)):
            assert _leaves(MultiplyNode.balanced(lo, lo + n)) == [
                (k, k + 1) for k in range(lo, lo + n)
            ]

    def test_internal_count(self):
        for lo, n in ((0, 1), (0, 2), (3, 5), (0, 16), (1, 33)):
            assert MultiplyNode.balanced(lo, lo + n).count_internal() == n - 1

    def test_internal_count_is_layers_minus_one(self):
        for n in (1, 2, 3, 7, 16):
            assert MultiplyNode.balanced(0, n).count_internal() == n - 1

    @pytest.mark.parametrize("lo,hi", [(3, 3), (0, 0), (4, 2)])
    def test_empty_range_raises(self, lo, hi):
        with pytest.raises(ValueError, match="empty AND-tree range"):
            MultiplyNode.balanced(lo, hi)

    def test_readers_walk_the_builders_ranges(self, monkeypatch):
        # chain_product_tree, solve_polyadic (through stage_cost_matrix) and
        # tasks_balanced_tree all read MultiplyNode.balanced: the same
        # internal (lo, hi) ranges, children first, for every n.
        for n in range(1, 65):
            want = _internal_ranges(MultiplyNode.balanced(0, n))
            g = uniform_multistage(np.random.default_rng(n), n + 1, 1)
            mats = list(g.costs)
            assert _product_ranges(
                monkeypatch, lambda: chain_product_tree(MIN_PLUS, mats), mats
            ) == want
            assert _product_ranges(monkeypatch, lambda: solve_polyadic(g), mats) == want
            tasks, _root = tasks_balanced_tree(n)
            names = [t.name for t in tasks if t.duration > 0]
            assert names == [f"t{lo}_{hi}" for lo, hi in want]
