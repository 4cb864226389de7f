"""Unit tests for the generalized triangular-recurrence array engine."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import random_obst_weights, solve_matrix_chain, solve_obst
from repro.systolic import (
    BroadcastParenthesizer,
    MatrixChainSpec,
    ObstSpec,
    SystolicParenthesizer,
    TriangularArray,
    obst_t_d,
    t_d_recurrence,
    t_p_recurrence,
)

from .test_rtl_golden_streams import _digest


class TestMatrixChainSpec:
    def test_values_match_dp(self, rng):
        dims = list(rng.integers(1, 30, size=7))
        run = TriangularArray("broadcast").run(MatrixChainSpec(dims))
        assert run.value == solve_matrix_chain(dims).cost

    def test_schedules_match_dedicated_engine(self, rng):
        # The generalized engine must reproduce the Prop-2/3 schedules
        # of the dedicated parenthesizer exactly.
        for n in (3, 5, 8, 12):
            dims = list(rng.integers(1, 20, size=n + 1))
            gb = TriangularArray("broadcast").run(MatrixChainSpec(dims))
            gs = TriangularArray("systolic").run(MatrixChainSpec(dims))
            db = BroadcastParenthesizer().run(dims)
            ds = SystolicParenthesizer().run(dims)
            assert gb.steps == db.steps == t_d_recurrence(n)
            assert gs.steps == ds.steps == t_p_recurrence(n)
            assert gb.value == db.order.cost
            assert gs.value == ds.order.cost
            # Both backends of the generalized array agree with the
            # parenthesizer cell by cell, leaves included.
            for backend in ("rtl", "fast"):
                for transfer, engine in (
                    ("broadcast", BroadcastParenthesizer),
                    ("systolic", SystolicParenthesizer),
                ):
                    g = TriangularArray(transfer).run(
                        MatrixChainSpec(dims), backend=backend
                    )
                    d = engine().run(dims, backend=backend)
                    assert g.completion == dict(d.subproblem_completion)
                    assert g.alternatives_evaluated == d.alternatives_evaluated
                    assert g.steps == d.steps

    def test_subproblem_values_all_correct(self, rng):
        dims = list(rng.integers(1, 20, size=6))
        run = TriangularArray("broadcast").run(MatrixChainSpec(dims))
        for (i, j), v in run.values.items():
            assert v == solve_matrix_chain(dims[i - 1 : j + 1]).cost


class TestObstSpec:
    def test_value_matches_dp(self):
        for seed in range(5):
            p, q = random_obst_weights(np.random.default_rng(seed), 6)
            run = TriangularArray("broadcast").run(ObstSpec(p, q))
            assert run.value == solve_obst(p, q).cost

    def test_value_equals_dp_exactly(self):
        # 20 seeds x n = 1..10 x both transfers x rtl/fast: 800 runs, each
        # bit-equal to the sequential DP's cost.
        for seed, n in itertools.product(range(20), range(1, 11)):
            p, q = random_obst_weights(np.random.default_rng(seed), n)
            cost = solve_obst(p, q).cost
            for transfer, backend in itertools.product(
                ("broadcast", "systolic"), ("rtl", "fast")
            ):
                run = TriangularArray(transfer).run(ObstSpec(p, q), backend=backend)
                assert run.value == cost, (seed, n, transfer, backend)

    def test_broadcast_schedule_is_n_plus_1(self):
        for n in (1, 2, 4, 7, 12):
            p, q = random_obst_weights(np.random.default_rng(n), n)
            run = TriangularArray("broadcast").run(ObstSpec(p, q))
            assert run.steps == obst_t_d(n) == n + 1

    def test_systolic_schedule_doubles(self):
        for n in (2, 5, 9):
            p, q = random_obst_weights(np.random.default_rng(n), n)
            b = TriangularArray("broadcast").run(ObstSpec(p, q))
            s = TriangularArray("systolic").run(ObstSpec(p, q))
            assert pytest.approx(s.value) == b.value
            # Systolic transfer doubles the per-halving cost, same shape
            # as Prop. 3: 2n + O(1).
            assert 2 * n <= s.steps <= 2 * n + 3

    def test_decisions_reconstruct_roots(self):
        p, q = random_obst_weights(np.random.default_rng(3), 5)
        run = TriangularArray("broadcast").run(ObstSpec(p, q))
        sol = solve_obst(p, q)
        # The winning alternative at the goal is the optimal root
        # (modulo cost ties): alternative index r - i.
        i, j = 1, 5
        chosen_root = i + run.decisions[(i, j)]
        alt_cost = (
            run.values[(i, chosen_root - 1)]
            + run.values[(chosen_root + 1, j)]
        )
        best_cost = run.values[(i, sol.root[(i, j)] - 1)] + run.values[(sol.root[(i, j)] + 1, j)]
        assert alt_cost == pytest.approx(best_cost)

    def test_zero_keys(self):
        run = TriangularArray("broadcast").run(ObstSpec([], [1.0]))
        assert run.value == pytest.approx(1.0)
        assert run.num_processors == 0


class TestEngineOptions:
    def test_capacity_one_slows_schedule(self, rng):
        dims = list(rng.integers(1, 20, size=9))
        fast = TriangularArray("broadcast", alternatives_per_step=2).run(
            MatrixChainSpec(dims)
        )
        slow = TriangularArray("broadcast", alternatives_per_step=1).run(
            MatrixChainSpec(dims)
        )
        assert slow.steps > fast.steps
        assert slow.value == fast.value

    def test_large_capacity_hits_dependency_floor(self, rng):
        dims = list(rng.integers(1, 20, size=9))
        run = TriangularArray("broadcast", alternatives_per_step=100).run(
            MatrixChainSpec(dims)
        )
        # With unlimited fold capacity only the dependency chain remains:
        # ceil(log2) halvings, each 1 step.
        assert run.steps <= t_d_recurrence(8)

    def test_validation(self):
        with pytest.raises(ValueError, match="transfer"):
            TriangularArray("warp")
        with pytest.raises(ValueError):
            TriangularArray(alternatives_per_step=0)

    def test_alternatives_counted_once(self, rng):
        dims = list(rng.integers(1, 20, size=6))
        run = TriangularArray("broadcast").run(MatrixChainSpec(dims))
        n = 5
        expected = sum((n - s + 1) * (s - 1) for s in range(2, n + 1))
        assert run.alternatives_evaluated == expected


@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_property_obst_array_equals_dp(n, seed):
    p, q = random_obst_weights(np.random.default_rng(seed), n)
    run = TriangularArray("broadcast").run(ObstSpec(p, q))
    assert run.value == solve_obst(p, q).cost
    assert run.steps == n + 1


def _obst_spec(n):
    return ObstSpec(*random_obst_weights(np.random.default_rng(60 + n), n))


def _chain_spec(n):
    # Few distinct dimensions, so the tie-breaking between splits is pinned too.
    dims = np.random.default_rng(70 + n).integers(1, 6, size=n + 1)
    return MatrixChainSpec([int(d) for d in dims])


PIN_SPECS = {
    "obst0": lambda: _obst_spec(0),
    "obst1": lambda: _obst_spec(1),
    "obst7": lambda: _obst_spec(7),
    "chain1": lambda: _chain_spec(1),
    "chain9": lambda: _chain_spec(9),
}

#: ``(untraced digest, traced digest)`` of the rtl run per
#: ``spec-transfer-alternatives_per_step`` case (see
#: ``test_rtl_golden_streams._digest``: events, report, value and decisions).
GOLDEN = {
    "obst0-broadcast-1": ("1e4a3d2a1f8ccc6a711251dfb5441c1745a85032a2aad27203a350df1de640ec",
                          "4b6ca1515ebab3915f19dd2ee23f8358b4f90613154a4ce4319fb7ca11eb22b3"),
    "obst0-broadcast-2": ("1e4a3d2a1f8ccc6a711251dfb5441c1745a85032a2aad27203a350df1de640ec",
                          "4b6ca1515ebab3915f19dd2ee23f8358b4f90613154a4ce4319fb7ca11eb22b3"),
    "obst0-systolic-1": ("20deff035647e4627ef942209dfe41f7af4ad1bd4991b821c336e5c0289a6a4f",
                         "167ad3e2c36b1d68476a998ac709b623cb7168b130a59fd6a646b2f966d0ae24"),
    "obst0-systolic-2": ("20deff035647e4627ef942209dfe41f7af4ad1bd4991b821c336e5c0289a6a4f",
                         "167ad3e2c36b1d68476a998ac709b623cb7168b130a59fd6a646b2f966d0ae24"),
    "obst1-broadcast-1": ("05cfa1cb0355eed6a805f50ef13c6bf03bb0639b52c57d9975ca6d3c26617b52",
                          "ca6be7b45ca8fe3d7dc5e81adbf5bf5efbe480307abe1cf2f1f9a781db7ed349"),
    "obst1-broadcast-2": ("05cfa1cb0355eed6a805f50ef13c6bf03bb0639b52c57d9975ca6d3c26617b52",
                          "ca6be7b45ca8fe3d7dc5e81adbf5bf5efbe480307abe1cf2f1f9a781db7ed349"),
    "obst1-systolic-1": ("841f8ab4973db87b629145cf17bc1d6a1dcff779e5e48734ab63681b13433976",
                         "8a0b74e5c6647b0ad38d5f0c6ccf708313abb7a85a79407c8e337e7a4d931f4a"),
    "obst1-systolic-2": ("841f8ab4973db87b629145cf17bc1d6a1dcff779e5e48734ab63681b13433976",
                         "8a0b74e5c6647b0ad38d5f0c6ccf708313abb7a85a79407c8e337e7a4d931f4a"),
    "obst7-broadcast-1": ("78c228257b2a962441755b6e377bb85664e2c8cf2336fad51ca3f56a1c7b441b",
                          "4ec3e371bde700dd6d777ebef45ee57d1a48a08b087012590d5b051faa80ca9b"),
    "obst7-broadcast-2": ("cfc9689033aa5dc1b6f6c68815c23569db3fdfedd1e62510c0764d0ea6e0c5db",
                          "4fd5848659caf3cab5fa30bb8a01f74c7bef82a9c3f23867a43ce6dfa150b961"),
    "obst7-systolic-1": ("a0e128eea168308f0258a7205c24ceefdb4d9bd2b271659601ee024ca763ab2d",
                         "989b4a43e0108f6a3208a05df27c2265e0629550a3d701ac7abba8d384b8cb4f"),
    "obst7-systolic-2": ("4de7bb6903c1ef55bb77e6fda3a5c52d573cf333fdd7a62ec8645e2e32d38c43",
                         "fa24aca622bb672ecc3997a26cfbb4db9a567daf037b6ea9145c73098efc12a2"),
    "chain1-broadcast-1": ("8af1d70f8413c14b18af7724dc454e7bf69af52155a760e0b1293d61489f0416",
                           "2971340932a76591fbed60afe1321c597e0aca834840eefd8798b3612096f438"),
    "chain1-broadcast-2": ("8af1d70f8413c14b18af7724dc454e7bf69af52155a760e0b1293d61489f0416",
                           "2971340932a76591fbed60afe1321c597e0aca834840eefd8798b3612096f438"),
    "chain1-systolic-1": ("a65abd85de1a640db9d6786a48f889ec608a551b5023c7c8e2390b7a0a6e761c",
                          "d81dd8f2f7de44cbe3fe5a54efe633c3fbe4fff82613fd7d824c2bd8658359e6"),
    "chain1-systolic-2": ("a65abd85de1a640db9d6786a48f889ec608a551b5023c7c8e2390b7a0a6e761c",
                          "d81dd8f2f7de44cbe3fe5a54efe633c3fbe4fff82613fd7d824c2bd8658359e6"),
    "chain9-broadcast-1": ("0414a4e6ac9b612c24f37ad19b5c3b867767fdf0ffbdf443ae5a0b3b788cfe4f",
                           "27b7c6c29adb37a0834cff1bb69e63e2027829eba4d6c397c3b0278f43d11db9"),
    "chain9-broadcast-2": ("e5790bf0d235dfe0d488d038bf333ac058672dbca7d2f8c142ff361e57112d64",
                           "f56d493adf9359a452be0e14c118d4484800c8c64da544fa17339bb0b503a43b"),
    "chain9-systolic-1": ("a04ec6de7010e99304832d66a7082dbb253bf6a439c08f1f7566ebd9a798d67c",
                          "7640a29cf0769d6d9c4039924e76be25b7027c53d9dd57dbf0317b88d356880c"),
    "chain9-systolic-2": ("bd3333be26c7ec5a10c0e53c6d9a25a64d3dfd935d91ccd09b8c7e87b49f8e58",
                          "d5c36bae41363ed3fd5da48a13709f3f36cb181beb014196dd1b83cc2367e73c"),
}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "case",
    [
        f"{spec}-{transfer}-{aps}"
        for spec, transfer, aps in itertools.product(
            PIN_SPECS, ("broadcast", "systolic"), (1, 2)
        )
    ],
)
def test_rtl_stream_matches_golden(case, traced):
    spec_name, transfer, aps = case.split("-")
    spec = PIN_SPECS[spec_name]()
    arr = TriangularArray(transfer, alternatives_per_step=int(aps))
    run = arr.run(spec, backend="rtl", record_trace=traced)
    assert _digest(run) == GOLDEN[case][traced]
    fast = arr.run(spec, backend="fast")
    assert fast.certified
    assert run.completion == fast.completion
    assert run.values == fast.values


@pytest.mark.parametrize(
    "transfer, engine",
    [("broadcast", BroadcastParenthesizer), ("systolic", SystolicParenthesizer)],
)
def test_fast_array_and_parenthesizer_share_one_schedule(transfer, engine):
    rng = np.random.default_rng(21)
    for n in range(1, 25):
        dims = [int(d) for d in rng.integers(1, 40, size=n + 1)]
        run = TriangularArray(transfer, backend="fast").run(MatrixChainSpec(dims))
        paren = engine("fast").run(dims)
        assert run.completion == paren.subproblem_completion
        assert run.steps == paren.steps
        assert run.report.serial_ops == paren.report.serial_ops
        assert run.value == paren.order.cost
        assert run.certified and paren.certified


class _NoSubproblems(ObstSpec):
    def subproblems(self):
        raise AssertionError("the fast path must not enumerate alternatives")


def test_fast_path_never_enumerates_subproblems():
    p, q = random_obst_weights(np.random.default_rng(8), 9)
    for transfer in ("broadcast", "systolic"):
        fast = TriangularArray(transfer).run(_NoSubproblems(p, q), backend="fast")
        rtl = TriangularArray(transfer).run(ObstSpec(p, q), backend="rtl")
        assert fast.certified
        assert (fast.value, fast.completion) == (rtl.value, rtl.completion)
