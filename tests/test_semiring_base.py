"""Unit tests for the Semiring abstraction and its law checker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.semiring import (
    ALL_SEMIRINGS,
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_MAX,
    MIN_PLUS,
    PLUS_TIMES,
    Semiring,
    SemiringError,
    by_name,
)


SAMPLE = {
    "min-plus": np.array([0.0, 1.0, 2.5, 7.0, np.inf]),
    "max-plus": np.array([0.0, 1.0, 2.5, 7.0, -np.inf]),
    "plus-times": np.array([0.0, 1.0, 2.5, 7.0, -3.0]),
    "max-times": np.array([0.0, 0.25, 0.5, 1.0]),
    "min-max": np.array([-np.inf, 0.0, 1.0, 5.0, np.inf]),
    "boolean": np.array([0.0, 1.0]),
}


class TestLaws:
    @pytest.mark.parametrize("sr", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_axioms_hold_on_samples(self, sr: Semiring):
        sr.check_laws(SAMPLE[sr.name])

    def test_broken_semiring_detected(self):
        # subtraction is not associative: the checker must object.
        broken = Semiring(
            name="broken",
            add=np.subtract,
            mul=np.add,
            zero=0.0,
            one=0.0,
            add_reduce=np.subtract.reduce,
        )
        with pytest.raises(SemiringError):
            broken.check_laws(np.array([1.0, 2.0, 5.0]))

    def test_wrong_identity_detected(self):
        bad_zero = Semiring(
            name="bad-zero",
            add=np.minimum,
            mul=np.add,
            zero=0.0,  # should be +inf for min
            one=0.0,
            add_reduce=np.minimum.reduce,
        )
        with pytest.raises(SemiringError):
            bad_zero.check_laws(np.array([1.0, 2.0]))

    def test_false_idempotence_detected(self):
        lying = Semiring(
            name="lying",
            add=np.add,
            mul=np.multiply,
            zero=0.0,
            one=1.0,
            add_reduce=np.add.reduce,
            idempotent_add=True,  # plus is not idempotent
        )
        with pytest.raises(SemiringError):
            lying.check_laws(np.array([1.0, 2.0]))

    def test_empty_sample_rejected(self):
        with pytest.raises(SemiringError):
            MIN_PLUS.check_laws(np.array([]))


class TestScalarOps:
    def test_min_plus_scalar(self):
        assert MIN_PLUS.scalar_add(3.0, 5.0) == 3.0
        assert MIN_PLUS.scalar_mul(3.0, 5.0) == 8.0

    def test_max_plus_scalar(self):
        assert MAX_PLUS.scalar_add(3.0, 5.0) == 5.0
        assert MAX_PLUS.scalar_mul(3.0, 5.0) == 8.0

    def test_plus_times_scalar(self):
        assert PLUS_TIMES.scalar_add(3.0, 5.0) == 8.0
        assert PLUS_TIMES.scalar_mul(3.0, 5.0) == 15.0

    def test_min_plus_infinity_annihilates(self):
        assert MIN_PLUS.scalar_mul(np.inf, 5.0) == np.inf
        assert MIN_PLUS.scalar_add(np.inf, 5.0) == 5.0

    def test_min_plus_mixed_infinities_stay_zero(self):
        # (+inf) ⊗ (-inf) must be the annihilator, not NaN.
        assert MIN_PLUS.scalar_mul(np.inf, -np.inf) == np.inf
        assert MAX_PLUS.scalar_mul(-np.inf, np.inf) == -np.inf


class TestArrayHelpers:
    def test_zeros_is_add_identity(self):
        z = MIN_PLUS.zeros((2, 3))
        assert z.shape == (2, 3)
        assert np.all(np.isinf(z))

    def test_ones_is_mul_identity(self):
        o = MIN_PLUS.ones(4)
        assert np.all(o == 0.0)

    def test_eye_structure(self):
        e = MIN_PLUS.eye(3)
        assert np.all(np.diag(e) == 0.0)
        off = e[~np.eye(3, dtype=bool)]
        assert np.all(np.isinf(off))

    def test_eye_is_matmul_identity(self):
        from repro.semiring import matmul

        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        e = MIN_PLUS.eye(2)
        assert np.allclose(matmul(MIN_PLUS, a, e), a)
        assert np.allclose(matmul(MIN_PLUS, e, a), a)

    def test_asarray_dtype(self):
        out = MIN_PLUS.asarray([1, 2, 3])
        assert out.dtype == np.float64


class TestRegistry:
    def test_by_name_roundtrip(self):
        for sr in ALL_SEMIRINGS:
            assert by_name(sr.name) is sr

    def test_by_name_unknown(self):
        with pytest.raises(KeyError, match="unknown semiring"):
            by_name("tropical-deluxe")

    def test_all_names_unique(self):
        names = [s.name for s in ALL_SEMIRINGS]
        assert len(names) == len(set(names))

    def test_idempotence_flags(self):
        assert MIN_PLUS.idempotent_add
        assert MAX_PLUS.idempotent_add
        assert MIN_MAX.idempotent_add
        assert BOOLEAN.idempotent_add
        assert MAX_TIMES.idempotent_add
        assert not PLUS_TIMES.idempotent_add


def _same(x: float, y: float) -> bool:
    """Equal values, with infinities of matching sign."""
    return x == y or (np.isinf(x) and np.isinf(y) and np.sign(x) == np.sign(y))


class TestScalarArrayAgreement:
    """The pure-Python scalar forms equal the vectorized ufuncs."""

    @pytest.mark.parametrize("sr", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_scalar_forms_match_arrays(self, sr: Semiring):
        elems = [float(x) for x in SAMPLE[sr.name]] + [sr.zero, sr.one]
        for a in elems:
            for b in elems:
                want_add = float(sr.add(sr.asarray(a), sr.asarray(b)))
                want_mul = float(sr.mul(sr.asarray(a), sr.asarray(b)))
                got_add, got_mul = sr.scalar_add(a, b), sr.scalar_mul(a, b)
                assert type(got_add) is float and type(got_mul) is float
                assert _same(got_add, want_add), (sr.name, "add", a, b)
                assert _same(got_mul, want_mul), (sr.name, "mul", a, b)

    @pytest.mark.parametrize("sr", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_stock_semirings_carry_scalar_forms(self, sr: Semiring):
        assert sr.scalar_add_op is not None and sr.scalar_mul_op is not None

    def test_raw_mul_is_the_bare_add_for_min_and_max_plus(self):
        assert MIN_PLUS.raw_mul is np.add and MAX_PLUS.raw_mul is np.add
        assert PLUS_TIMES.raw_mul is PLUS_TIMES.mul


#: Min-plus rebuilt without any specialised forms: every scalar step and
#: every kernel ⊗ runs the generic vectorized path.
CUSTOM_MIN_PLUS = Semiring(
    name="custom-min-plus",
    add=np.minimum,
    mul=np.add,
    zero=np.inf,
    one=0.0,
    add_reduce=np.minimum.reduce,
    add_argreduce=np.argmin,
    idempotent_add=True,
)


class TestCustomSemiring:
    def test_falls_back_to_vectorized_forms(self):
        assert CUSTOM_MIN_PLUS.scalar_add_op is None
        assert CUSTOM_MIN_PLUS.raw_mul is np.add
        assert CUSTOM_MIN_PLUS.scalar_add(3.0, 5.0) == 3.0
        assert CUSTOM_MIN_PLUS.scalar_mul(3.0, 5.0) == 8.0

    @pytest.mark.parametrize("backend", ["rtl", "fast"])
    def test_solves_through_solve_and_solve_batch(self, backend):
        from repro import solve, solve_batch
        from repro.dp import solve_backward
        from repro.graphs import MultistageGraph, NodeValueProblem

        rng = np.random.default_rng(7)
        graph = MultistageGraph(
            costs=tuple(rng.uniform(0, 9, s) for s in [(1, 4), (4, 4), (4, 4), (4, 1)]),
            semiring=CUSTOM_MIN_PLUS,
        )
        problem = NodeValueProblem(
            values=tuple(rng.uniform(0, 5, 4) for _ in range(5)),
            edge_cost=lambda x, y: (x - y) ** 2,
            semiring=CUSTOM_MIN_PLUS,
        )
        stock = MultistageGraph(costs=graph.costs)
        stock_problem = NodeValueProblem(problem.values, problem.edge_cost)
        problems = [graph, problem]
        want = [solve_backward(stock).optimum, solve(stock_problem, backend="fast").optimum]
        looped = [solve(p, backend=backend) for p in problems]
        batched = solve_batch(problems, backend=backend)
        for w, a, b in zip(want, looped, batched):
            assert a.validated and b.validated
            assert a.optimum == pytest.approx(w)
            assert b.optimum == pytest.approx(w)
