"""Unit + property tests for matrix-chain parenthesization (eq. 6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import (
    brute_force_matrix_chain,
    count_scalar_multiplications,
    enumerate_parenthesizations,
    expression_from_splits,
    multiply_in_order,
    solve_matrix_chain,
)


class TestSolve:
    def test_textbook_instance(self):
        # Classic CLRS instance.
        order = solve_matrix_chain([30, 35, 15, 5, 10, 20, 25])
        assert order.cost == 15125

    def test_known_small_instance(self):
        order = solve_matrix_chain([10, 20, 50, 1, 100])
        assert order.cost == 2200
        assert order.expression == ((1, (2, 3)), 4)

    def test_single_matrix(self):
        order = solve_matrix_chain([4, 7])
        assert order.cost == 0
        assert order.expression == 1
        assert order.num_matrices == 1

    def test_two_matrices(self):
        order = solve_matrix_chain([2, 3, 4])
        assert order.cost == 24
        assert order.expression == (1, 2)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            solve_matrix_chain([5])
        with pytest.raises(ValueError):
            solve_matrix_chain([5, 0, 3])

    def test_non_integral_dims_rejected_everywhere(self):
        # (2.9, 3.5, 4) used to truncate to (2, 3, 4) and cost 24 silently.
        from repro import MatrixChainProblem
        from repro.systolic import (
            BroadcastParenthesizer,
            MatrixChainSpec,
            SystolicParenthesizer,
        )

        for bad in [(2.9, 3.5, 4), (2, np.float64(3.5), 4), (2, float("nan"), 4)]:
            for entry in (
                solve_matrix_chain,
                BroadcastParenthesizer().run,
                SystolicParenthesizer("fast").run,
                MatrixChainProblem,
                MatrixChainSpec,
            ):
                with pytest.raises(ValueError, match="integers"):
                    entry(bad)
        # NumPy integers and integral floats are integers.
        assert solve_matrix_chain(np.array([2, 3, 4], dtype=np.int32)).cost == 24
        assert solve_matrix_chain((2.0, np.int64(3), 4)).dims == (2, 3, 4)

    def test_dims_whose_costs_overflow_int64_rejected(self):
        # 3e6³ used to wrap to 8553255926290448384, which rtl reported validated.
        from repro import MatrixChainProblem
        from repro.systolic import MatrixChainSpec

        for entry in (solve_matrix_chain, MatrixChainProblem, MatrixChainSpec):
            with pytest.raises(ValueError, match="overflow"):
                entry((3_000_000,) * 3)
        big = 2**21 - 1  # one multiplication of (2^21 - 1)³ < 2^63 still fits
        assert solve_matrix_chain((big,) * 3).cost == big**3
        assert solve_matrix_chain((10**9, 10**9)).cost == 0  # no multiplication


class TestBruteForceAgreement:
    def test_matches_dp_on_randoms(self, rng):
        for _ in range(10):
            dims = list(rng.integers(1, 40, size=rng.integers(2, 8)))
            assert solve_matrix_chain(dims).cost == brute_force_matrix_chain(dims).cost

    @given(
        dims=st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=7)
    )
    @settings(max_examples=60, deadline=None)
    def test_dp_never_beaten(self, dims):
        dp = solve_matrix_chain(dims)
        n = len(dims) - 1
        for expr in enumerate_parenthesizations(n):
            cost, _ = count_scalar_multiplications(dims, expr)
            assert dp.cost <= cost
        # And the DP's own expression achieves its reported cost.
        cost, _ = count_scalar_multiplications(dims, dp.expression)
        assert cost == dp.cost


class TestEnumeration:
    def test_catalan_counts(self):
        catalan = [1, 1, 2, 5, 14, 42]
        for n in range(1, 6):
            assert sum(1 for _ in enumerate_parenthesizations(n)) == catalan[n - 1]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            list(enumerate_parenthesizations(0))


class TestCounting:
    def test_noncontiguous_rejected(self):
        with pytest.raises(ValueError, match="non-contiguous"):
            count_scalar_multiplications([2, 3, 4, 5], ((1, 3), 2))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            count_scalar_multiplications([2, 3], (1, 2))

    def test_result_shape(self):
        cost, shape = count_scalar_multiplications([2, 3, 4], (1, 2))
        assert shape == (2, 4)
        assert cost == 24


class TestDeepChains:
    """Split tables far deeper than Python's recursion limit (n = 3000).

    Expressions are checked by walking them, never with ``==``: comparing
    deep tuples recurses in C.
    """

    N = 3000

    def _dims(self):
        rng = np.random.default_rng(3000)
        return tuple(int(d) for d in rng.integers(1, 9, self.N + 1))

    def test_left_deep(self):
        n, dims = self.N, self._dims()
        expr = expression_from_splits({(1, j): j - 1 for j in range(2, n + 1)}, n)
        cost, shape = count_scalar_multiplications(dims, expr)
        assert cost == sum(dims[0] * dims[k] * dims[k + 1] for k in range(1, n))
        assert shape == (dims[0], dims[n])
        for j in range(n, 1, -1):  # (((1, 2), 3) … , n)
            expr, last = expr
            assert last == j
        assert expr == 1

    def test_right_deep(self):
        n, dims = self.N, self._dims()
        expr = expression_from_splits({(i, n): i for i in range(1, n)}, n)
        cost, _ = count_scalar_multiplications(dims, expr)
        assert cost == sum(dims[i - 1] * dims[i] * dims[n] for i in range(1, n))
        for i in range(1, n):  # (1, (2, … (n-1, n)))
            first, expr = expr
            assert first == i
        assert expr == n

    def test_single_matrix_and_bad_splits(self):
        assert expression_from_splits({}, 1) == 1
        with pytest.raises(ValueError, match="outside"):
            expression_from_splits({(1, 3): 3}, 3)
        with pytest.raises(ValueError):
            expression_from_splits({}, 0)


class TestExecution:
    def test_multiply_matches_numpy(self, rng):
        dims = [3, 4, 2, 5]
        mats = [rng.uniform(-1, 1, (dims[i], dims[i + 1])) for i in range(3)]
        order = solve_matrix_chain(dims)
        product, cost = multiply_in_order(mats, order.expression)
        assert np.allclose(product, mats[0] @ mats[1] @ mats[2])
        assert cost == order.cost

    def test_dp_order_beats_naive_on_skewed_dims(self, rng):
        dims = [100, 2, 100, 2, 100]
        mats = [rng.uniform(0, 1, (dims[i], dims[i + 1])) for i in range(4)]
        order = solve_matrix_chain(dims)
        _, dp_cost = multiply_in_order(mats, order.expression)
        naive = (((1, 2), 3), 4)
        _, naive_cost = multiply_in_order(mats, naive)
        assert dp_cost < naive_cost

    def test_incompatible_matrices_rejected(self, rng):
        mats = [rng.uniform(0, 1, (2, 3)), rng.uniform(0, 1, (4, 5))]
        with pytest.raises(ValueError, match="incompatible"):
            multiply_in_order(mats, (1, 2))
