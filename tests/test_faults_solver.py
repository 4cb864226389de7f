"""solve(fault_plan=...): the dispatch solver's recovery integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solve
from repro.core.problem import MatrixChainProblem
from repro.dp.nonserial import NonserialObjective
from repro.faults import FaultDetected, FaultPlan, FaultSpec
from repro.graphs import NodeValueProblem, random_multistage


@pytest.fixture()
def graph():
    return random_multistage(np.random.default_rng(1), [1, 3, 3, 1])


@pytest.fixture()
def node_value_problem(rng):
    values = tuple(rng.uniform(0, 5, 3) for _ in range(4))
    return NodeValueProblem(values=values, edge_cost=lambda a, b: np.abs(a - b))


def _flip(reg, *, pe=0, tick=1):
    # δ = −1000 beats every legal min-plus candidate: provably effective.
    return FaultPlan(
        specs=(FaultSpec(mode="transient_flip", pe=pe, reg=reg, tick=tick, delta=-1000.0),)
    )


class TestRecoveredDispatch:
    def test_graph_retry_recovers_and_validates(self, graph):
        report = solve(graph, fault_plan=_flip("ACC"), recovery="retry")
        assert report.method == "fig3-pipelined-array+faults"
        assert report.validated
        assert report.faults is not None
        assert report.faults.outcome == "recovered" and report.faults.effective
        assert np.isclose(report.optimum, report.reference)

    def test_feedback_retry_recovers(self, node_value_problem):
        report = solve(node_value_problem, fault_plan=_flip("PAIR"), recovery="retry")
        assert report.method == "fig5-feedback-array+faults"
        assert report.validated and report.faults.outcome == "recovered"
        assert report.solution is not None  # the traced optimal path

    def test_chain_retry_recovers(self):
        chain = MatrixChainProblem(dims=(4, 7, 3, 5, 2))
        report = solve(chain, fault_plan=_flip("M"), recovery="retry")
        assert report.method.endswith("+faults")
        assert report.validated and report.faults.outcome == "recovered"

    def test_clean_plan_reports_clean(self, graph):
        report = solve(graph, fault_plan=FaultPlan(), recovery="retry")
        assert report.validated and report.faults.outcome == "clean"

    def test_broadcast_preference_is_honored(self, graph):
        report = solve(
            graph, fault_plan=_flip("ACC"), recovery="retry", prefer="broadcast"
        )
        assert report.method == "fig4-broadcast-array+faults"
        assert report.validated

    def test_chain_broadcast_preference_is_honored(self):
        chain = MatrixChainProblem(dims=(4, 7, 3, 5, 2))
        report = solve(
            chain, fault_plan=_flip("M"), recovery="retry", prefer="broadcast"
        )
        assert report.method == "parenthesizer-broadcast+faults"
        assert report.validated


class TestDegradedDispatch:
    def test_spare_policy_degrades_and_validates(self, graph):
        plan = FaultPlan(specs=(FaultSpec(mode="dead_pe", pe=1, tick=2),))
        report = solve(graph, fault_plan=plan, recovery="spare")
        assert report.validated
        assert report.faults.outcome == "degraded"
        assert report.faults.degraded  # the eq. 9 comparison rides along

    def test_warn_policy_returns_flagged_result(self, graph):
        with pytest.warns(RuntimeWarning, match="degrade-and-warn"):
            report = solve(graph, fault_plan=_flip("ACC"), recovery="warn")
        # No AssertionError despite the disagreement: the report is
        # explicitly flagged instead.
        assert not report.validated
        assert report.faults.outcome == "detected"
        assert report.optimum != pytest.approx(report.reference)


class TestFailurePaths:
    def test_fail_fast_raises(self, graph):
        with pytest.raises(FaultDetected):
            solve(graph, fault_plan=_flip("ACC"), recovery="fail_fast")

    def test_unrecoverable_plan_raises(self, graph):
        # A persistent stuck-at survives every retry: no usable result.
        plan = FaultPlan(
            specs=(FaultSpec(mode="stuck_at", pe=0, reg="ACC", tick=1, value=-1000.0),)
        )
        with pytest.raises(FaultDetected):
            solve(graph, fault_plan=plan, recovery="retry")

    def test_non_array_problems_are_rejected(self):
        objective = NonserialObjective(
            domains={"a": np.array([0.0, 1.0]), "b": np.array([0.0, 1.0])},
            terms=((("a", "b"), lambda a, b: a + b),),
        )
        # So are serial problems whose uneven stages no array takes.
        ragged = random_multistage(np.random.default_rng(2), [1, 3, 2, 1])
        uneven = NodeValueProblem(
            values=([0.0, 1.0], [0.0, 1.0, 2.0], [0.0]),
            edge_cost=lambda a, b: np.abs(a - b),
        )
        for problem in (objective, ragged, uneven):
            with pytest.raises(TypeError, match="fault injection"):
                solve(problem, fault_plan=FaultPlan())
