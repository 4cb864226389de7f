"""Unit tests for the Section-6.2 parenthesization arrays (Props. 2-3)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import solve_matrix_chain
from repro.systolic import (
    BroadcastParenthesizer,
    MatrixChainSpec,
    SystolicParenthesizer,
    t_d_recurrence,
    t_p_recurrence,
)
from repro.systolic.triangular import _interval_dp


class TestRecurrences:
    def test_proposition_2_closed_form(self):
        # T_d(N) = N for all N.
        for n in range(1, 80):
            assert t_d_recurrence(n) == n

    def test_proposition_3_closed_form(self):
        # T_p(N) = 2N for all N.
        for n in range(1, 80):
            assert t_p_recurrence(n) == 2 * n

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            t_d_recurrence(0)
        with pytest.raises(ValueError):
            t_p_recurrence(-1)


class TestBroadcastMapping:
    def test_cost_matches_dp(self, rng):
        for _ in range(5):
            dims = list(rng.integers(1, 40, size=rng.integers(3, 10)))
            run = BroadcastParenthesizer().run(dims)
            assert run.order.cost == solve_matrix_chain(dims).cost

    def test_schedule_length_is_n(self, rng):
        for n in (2, 3, 5, 8, 13, 21):
            dims = list(rng.integers(1, 20, size=n + 1))
            run = BroadcastParenthesizer().run(dims)
            assert run.steps == n

    def test_processor_count(self, rng):
        dims = list(rng.integers(1, 9, size=7))  # N = 6
        run = BroadcastParenthesizer().run(dims)
        assert run.num_processors == 6 * 5 // 2

    def test_alternatives_total(self, rng):
        # Every (i, j, k) alternative evaluated exactly once: sum over
        # spans s of (n - s + 1)(s - 1).
        n = 6
        dims = list(rng.integers(1, 9, size=n + 1))
        run = BroadcastParenthesizer().run(dims)
        expected = sum((n - s + 1) * (s - 1) for s in range(2, n + 1))
        assert run.alternatives_evaluated == expected

    def test_per_size_completion_matches_recurrence(self, rng):
        n = 10
        dims = list(rng.integers(1, 9, size=n + 1))
        run = BroadcastParenthesizer().run(dims)
        comp = run.per_size_completion
        for size in range(1, n + 1):
            assert comp[size] == t_d_recurrence(size)


class TestSystolicMapping:
    def test_cost_matches_dp(self, rng):
        for _ in range(5):
            dims = list(rng.integers(1, 40, size=rng.integers(3, 10)))
            run = SystolicParenthesizer().run(dims)
            assert run.order.cost == solve_matrix_chain(dims).cost

    def test_schedule_length_is_2n(self, rng):
        for n in (2, 3, 5, 8, 13):
            dims = list(rng.integers(1, 20, size=n + 1))
            run = SystolicParenthesizer().run(dims)
            assert run.steps == 2 * n

    def test_per_size_completion_matches_recurrence(self, rng):
        n = 9
        dims = list(rng.integers(1, 9, size=n + 1))
        run = SystolicParenthesizer().run(dims)
        comp = run.per_size_completion
        for size in range(1, n + 1):
            assert comp[size] == t_p_recurrence(size)

    def test_exactly_twice_broadcast_time(self, rng):
        dims = list(rng.integers(1, 15, size=8))
        b = BroadcastParenthesizer().run(dims)
        s = SystolicParenthesizer().run(dims)
        assert s.steps == 2 * b.steps


class TestEdgeCases:
    def test_single_matrix(self):
        run = BroadcastParenthesizer().run([3, 4])
        assert run.order.cost == 0
        assert run.steps == 1  # T_d(1) = 1
        run2 = SystolicParenthesizer().run([3, 4])
        assert run2.steps == 2  # T_p(1) = 2

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            BroadcastParenthesizer().run([5])
        with pytest.raises(ValueError):
            SystolicParenthesizer().run([5, -1, 3])

    def test_expression_is_executable(self, rng):
        from repro.dp import count_scalar_multiplications

        dims = list(rng.integers(1, 20, size=7))
        run = SystolicParenthesizer().run(dims)
        cost, _shape = count_scalar_multiplications(dims, run.order.expression)
        assert cost == run.order.cost


@given(
    dims=st.lists(st.integers(min_value=1, max_value=25), min_size=3, max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_property_both_mappings_solve_eq6_on_schedule(dims):
    n = len(dims) - 1
    ref = solve_matrix_chain(dims).cost
    b = BroadcastParenthesizer().run(dims)
    s = SystolicParenthesizer().run(dims)
    assert b.order.cost == ref and b.steps == n
    assert s.order.cost == ref and s.steps == 2 * n


def _eq6_triple_loop(dims):
    """Plain eq. (6) in Python: spans, cells, splits; the lowest split
    wins ties.  The reference for the vectorized kernel."""
    n = len(dims) - 1
    M = [[0] * (n + 2) for _ in range(n + 2)]
    S = [[0] * (n + 2) for _ in range(n + 2)]
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            best = None
            for k in range(i, j):
                cost = M[i][k] + M[k + 1][j] + dims[i - 1] * dims[k] * dims[j]
                if best is None or cost < best:
                    best, S[i][j] = cost, k
            M[i][j] = best
    return M, S


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_interval_tables_match_triple_loop(tie_heavy):
    rng = np.random.default_rng(40 + tie_heavy)
    for n in range(1, 41):
        # Dims in 1..3 make many splits cost the same.
        dims = tuple(int(d) for d in rng.integers(1, 4 if tie_heavy else 60, n + 1))
        M, S = _interval_dp(MatrixChainSpec(dims), np.int64)
        ref_m, ref_s = _eq6_triple_loop(dims)
        assert M.tolist() == ref_m, dims
        assert S.tolist() == ref_s, dims


@pytest.mark.parametrize("design", [BroadcastParenthesizer, SystolicParenthesizer])
def test_fast_schedule_shared_per_design_and_n(design):
    # The fast schedule depends only on (design, n): rtl agrees with it,
    # other dims of the same n get the same read-only counters.
    rng = np.random.default_rng(16)
    for n in range(1, 17):
        dims = tuple(int(d) for d in rng.integers(1, 30, n + 1))
        rtl = design().run(dims, backend="rtl")
        fast = design().run(dims, backend="fast")
        assert dataclasses.replace(rtl.report, backend="fast") == fast.report
        assert rtl.subproblem_completion == fast.subproblem_completion
        ties = tuple(int(d) for d in rng.integers(1, 4, n + 1))
        other = design().run(ties, backend="fast")
        assert other.report == fast.report
        assert other.subproblem_completion == fast.subproblem_completion
        assert other.alternatives_evaluated == fast.alternatives_evaluated
        with pytest.raises(TypeError):
            other.subproblem_completion[(1, 1)] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            other.report.pe_busy_ticks = ()


def test_fast_schedule_not_shared_across_designs():
    for n in range(1, 17):
        dims = tuple(range(1, n + 2))
        b = BroadcastParenthesizer().run(dims, backend="fast")
        s = SystolicParenthesizer().run(dims, backend="fast")
        assert (b.steps, s.steps) == (n, 2 * n)
        assert b.report.design != s.report.design
        assert b.subproblem_completion != s.subproblem_completion
