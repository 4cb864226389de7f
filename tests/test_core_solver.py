"""Unit tests for the Table-1 dispatch solver."""

from __future__ import annotations

import collections
import dataclasses
import re
import sys

import numpy as np
import pytest

import repro
from repro import DPClass, MatrixChainProblem, ValidationError, solve
from repro.core import solver as solver_mod
from repro.dp import banded_objective, eliminate, solve_backward, solve_matrix_chain
from repro.graphs import (
    StagePath,
    fig1a_graph,
    fig1b_problem,
    random_multistage,
    traffic_light_problem,
    uniform_multistage,
)


class TestNodeValueDispatch:
    def test_uniform_problem_goes_to_feedback_array(self, rng):
        rep = solve(traffic_light_problem(rng, 6, 4))
        assert rep.method == "fig5-feedback-array"
        assert rep.validated
        assert isinstance(rep.solution, StagePath)

    def test_optimum_matches_oracle(self, rng):
        p = traffic_light_problem(rng, 5, 3)
        rep = solve(p)
        from repro.dp import solve_node_value

        assert np.isclose(rep.optimum, solve_node_value(p).optimum)

    def test_long_node_value_problem_goes_to_dnc(self, rng):
        p = traffic_light_problem(rng, 30, 3)
        rep = solve(p)
        assert rep.dp_class is DPClass.POLYADIC_SERIAL
        assert rep.method.startswith("divide-and-conquer")
        assert rep.validated


class TestGraphDispatch:
    def test_fig1a_goes_to_pipelined(self):
        rep = solve(fig1a_graph())
        assert rep.method == "fig3-pipelined-array"
        assert rep.optimum == 6.0

    def test_prefer_broadcast(self):
        rep = solve(fig1a_graph(), prefer="broadcast")
        assert rep.method == "fig4-broadcast-array"
        assert rep.optimum == 6.0

    def test_prefer_sequential(self):
        rep = solve(fig1a_graph(), prefer="sequential")
        assert rep.method == "sequential-sweep"
        assert rep.optimum == 6.0

    def test_long_graph_goes_to_dnc(self, rng):
        g = uniform_multistage(rng, 40, 3)
        rep = solve(g)
        assert rep.method.startswith("divide-and-conquer")
        assert np.isclose(rep.optimum, solve_backward(g).optimum)

    def test_prefer_dnc_on_short_graph(self, rng):
        g = uniform_multistage(rng, 6, 3)
        rep = solve(g, prefer="dnc")
        assert rep.method.startswith("divide-and-conquer")
        assert np.isclose(rep.optimum, solve_backward(g).optimum)

    def test_awkward_shape_falls_back_to_sequential(self, rng):
        g = random_multistage(rng, [2, 4, 3, 5])  # non-uniform, multi-sink
        rep = solve(g)
        assert rep.method == "sequential-sweep"
        assert rep.validated


class TestChainDispatch:
    def test_default_systolic_mapping(self):
        rep = solve(MatrixChainProblem((10, 20, 50, 1, 100)))
        assert rep.method == "parenthesizer-systolic"
        assert rep.optimum == 2200.0
        assert rep.validated

    def test_broadcast_mapping(self):
        rep = solve(MatrixChainProblem((10, 20, 50, 1, 100)), prefer="broadcast")
        assert rep.method == "parenthesizer-broadcast"
        assert rep.optimum == 2200.0

    def test_solution_is_executable_order(self, rng):
        dims = tuple(int(x) for x in rng.integers(1, 30, size=7))
        rep = solve(MatrixChainProblem(dims))
        assert rep.solution.cost == solve_matrix_chain(dims).cost


class TestNonserialDispatch:
    def test_banded_uses_grouping_transform(self, rng):
        obj = banded_objective(rng, [3, 2, 3, 2])
        rep = solve(obj)
        assert rep.method == "grouping-transform+serial-sweep"
        assert np.isclose(rep.optimum, eliminate(obj).optimum)
        assert rep.validated

    def test_non_banded_uses_elimination_alone(self, rng):
        from repro.dp import NonserialObjective

        domains = {v: np.arange(2.0) for v in ("a", "b", "c", "d")}
        t = rng.uniform(0, 9, (2, 2, 2))
        obj = NonserialObjective(
            domains=domains,
            terms=(
                (("a", "b"), lambda x, y: x + y),
                (("b", "c", "d"), lambda x, y, z: t[x.astype(int), y.astype(int), z.astype(int)]),
                (("a", "d"), lambda x, y: x * y),
            ),
        )
        rep = solve(obj)
        assert rep.method == "variable-elimination"
        assert rep.validated

    def test_assignment_achieves_optimum(self, rng):
        obj = banded_objective(rng, [2, 3, 2, 3])
        rep = solve(obj)
        assert np.isclose(obj.evaluate(rep.solution), rep.optimum)


class TestReport:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            solve([1, 2, 3])

    def test_report_carries_recommendation(self):
        rep = solve(fig1a_graph())
        assert rep.recommendation.dp_class is rep.dp_class

    def test_validation_failure_raises(self):
        from repro.core.solver import SolveReport
        from repro.core.classification import recommend

        rec = recommend(fig1a_graph())
        with pytest.raises(AssertionError, match="disagrees"):
            SolveReport(
                dp_class=DPClass.MONADIC_SERIAL,
                method="bogus",
                optimum=1.0,
                reference=2.0,
                validated=False,
                solution=None,
                detail=None,
                recommendation=rec,
            )


def _count_calls(monkeypatch, fn, calls, key):
    """Wrap ``fn`` at every ``repro`` import site that holds it."""

    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)


@pytest.fixture
def dnc_calls(monkeypatch):
    """Counts of semiring matmuls and oracle passes made during a test."""
    calls = collections.Counter()
    _count_calls(monkeypatch, repro.semiring.matrix.matmul, calls, "matmul")
    # The oracle is called through the names the solver imports.
    for name in ("solve_node_value", "solve_backward"):
        _count_calls(monkeypatch, getattr(solver_mod, name), calls, "oracle")
    return calls


class TestDivideAndConquerRoute:
    @staticmethod
    def _problems(rng):
        return [traffic_light_problem(rng, 30, 3), uniform_multistage(rng, 40, 3)]

    @pytest.mark.parametrize("backend", ["fast", "auto"])
    def test_fast_route_is_work_honest(self, rng, dnc_calls, backend):
        for problem in self._problems(rng):
            dnc_calls.clear()
            rep = solve(problem, backend=backend)
            assert rep.method.startswith("divide-and-conquer")
            assert dnc_calls["matmul"] == 0
            assert dnc_calls["oracle"] == 0  # certified, not re-solved
            assert rep.validation == "certificate"
            assert rep.detail.product is None
            assert rep.solution.shape == (problem.stage_sizes[0],)

    def test_rtl_route_still_multiplies_the_string(self, rng, dnc_calls):
        for problem in self._problems(rng):
            dnc_calls.clear()
            rep = solve(problem, backend="rtl")
            n = problem.num_stages - 1
            assert dnc_calls["matmul"] == n - 1 == rep.detail.total_multiplications
            assert dnc_calls["oracle"] == 1
            assert rep.detail.product.shape == (
                problem.stage_sizes[0], problem.stage_sizes[-1]
            )
            assert rep.validated

    def test_product_disagreeing_with_chain_raises(self, rng, monkeypatch):
        real = solver_mod.simulate_chain_product

        def skewed(*args, **kwargs):
            res = real(*args, **kwargs)
            if res.product is None:
                return res
            product = res.product.copy()
            product[-1] += 1.0  # one source's costs go up by one
            return dataclasses.replace(res, product=product)

        monkeypatch.setattr(solver_mod, "simulate_chain_product", skewed)
        g = uniform_multistage(rng, 40, 3)
        assert solve(g, backend="fast").validated  # no product to disagree
        with pytest.raises(ValidationError, match="disagrees"):
            solve(g, backend="rtl")

    def test_validation_error_is_exported_assertion_error(self):
        assert issubclass(ValidationError, AssertionError)
        assert repro.ValidationError is repro.core.ValidationError is ValidationError


class TestBroadcastPathDispatch:
    def test_broadcast_route_returns_traced_path(self):
        from repro.graphs import StagePath

        rep = solve(fig1a_graph(), prefer="broadcast")
        assert isinstance(rep.solution, StagePath)
        assert rep.solution.cost == 6.0
        assert np.isclose(
            fig1a_graph().path_cost(rep.solution.nodes), rep.optimum
        )

    def test_broadcast_route_on_framed_uniform_graph(self, rng):
        from repro.graphs import StagePath, add_virtual_terminals

        g = uniform_multistage(rng, 5, 4)
        rep = solve(g, prefer="broadcast")
        assert isinstance(rep.solution, StagePath)
        framed = add_virtual_terminals(g)
        assert np.isclose(framed.path_cost(rep.solution.nodes), rep.optimum)
        assert np.isclose(rep.optimum, solve_backward(g).optimum)


class TestBackendThreading:
    def test_fast_backend_matches_rtl_everywhere(self, rng):
        problems = [
            traffic_light_problem(rng, 5, 4),
            fig1a_graph(),
            MatrixChainProblem((30, 35, 15, 5, 10, 20)),
        ]
        for problem in problems:
            rtl = solve(problem, backend="rtl")
            fast = solve(problem, backend="fast")
            auto = solve(problem, backend="auto")
            assert rtl.optimum == fast.optimum == auto.optimum
            assert rtl.method == fast.method

    def test_unknown_backend_rejected(self):
        from repro.systolic import SystolicError

        with pytest.raises(SystolicError):
            solve(fig1a_graph(), backend="gpu")


class TestPreferValidation:
    @pytest.mark.parametrize(
        "problem",
        [fig1a_graph(), MatrixChainProblem((10, 20, 50, 1, 100))],
        ids=["graph", "chain"],
    )
    def test_unknown_prefer_raises_instead_of_falling_back(self, problem):
        with pytest.raises(ValueError, match="unknown prefer 'broadcst'"):
            solve(problem, prefer="broadcst", backend="fast")

    def test_typo_is_rejected_before_the_cache(self):
        from repro import SolveCache

        cache = SolveCache(capacity=4)
        with pytest.raises(ValueError):
            solve(fig1a_graph(), prefer="pipelnied", backend="fast", cache=cache)
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "prefer", [None, "pipelined", "broadcast", "sequential", "dnc", "systolic"]
    )
    def test_every_known_prefer_is_accepted(self, prefer):
        assert solve(fig1a_graph(), prefer=prefer, backend="fast").validated

    @pytest.mark.parametrize("prefer", [None, "pipelined", "broadcast", "systolic"])
    def test_healthy_batch_and_fault_runs_take_one_array(self, prefer):
        from repro import solve_batch
        from repro.faults import FaultPlan

        g = uniform_multistage(np.random.default_rng(5), 5, 3)
        healthy = solve(g, prefer=prefer, backend="fast").method
        (row,) = solve_batch([g], prefer=prefer, backend="fast")
        faulty = solve(g, prefer=prefer, fault_plan=FaultPlan(specs=())).method
        assert healthy.endswith("-array")
        assert healthy == row.method == faulty.removesuffix("+faults")

    @pytest.mark.parametrize("prefer", ["sequential", "dnc"])
    def test_fault_run_refuses_a_non_array_prefer(self, prefer):
        from repro.faults import FaultPlan

        g = uniform_multistage(np.random.default_rng(5), 5, 3)
        with pytest.raises(TypeError, match=re.escape(f"prefer={prefer!r}")):
            solve(g, prefer=prefer, fault_plan=FaultPlan(specs=()))

    def test_default_dnc_graph_runs_fig3_under_faults(self):
        from repro.faults import FaultPlan

        g = uniform_multistage(np.random.default_rng(5), 40, 3)
        assert solve(g, backend="fast").method.startswith("divide-and-conquer")
        faulty = solve(g, fault_plan=FaultPlan(specs=()))
        assert faulty.method == "fig3-pipelined-array+faults"
