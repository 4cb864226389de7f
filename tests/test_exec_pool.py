"""Report pickling.

Every report (including nested fault and hazard payloads) survives a
process boundary unchanged: the unpickled clone is ``==`` to the report
and agrees with it field by field, so callers may ship reports between
processes.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro import MatrixChainProblem, solve
from repro.faults import FaultPlan, FaultSpec
from repro.graphs import random_multistage, traffic_light_problem, uniform_multistage

from .test_exec_batch import assert_same_report


class TestReportPickleRoundTrip:
    def _roundtrip(self, report):
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert_same_report(clone, report)
        assert clone.faults == report.faults
        return clone

    def test_fast_graph_report(self, rng):
        self._roundtrip(solve(uniform_multistage(rng, 4, 3), backend="fast"))

    def test_rtl_feedback_report(self, rng):
        report = solve(traffic_light_problem(rng, 5, 4), backend="rtl")
        clone = self._roundtrip(report)
        assert clone.detail.report == report.detail.report

    def test_chain_report(self, rng):
        dims = tuple(int(d) for d in rng.integers(2, 30, size=5))
        self._roundtrip(solve(MatrixChainProblem(dims), backend="fast"))

    def test_report_with_fault_payload(self):
        graph = random_multistage(np.random.default_rng(1), [1, 3, 3, 1])
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    mode="transient_flip", pe=0, reg="ACC", tick=1, delta=-1000.0
                ),
            )
        )
        report = solve(graph, fault_plan=plan, recovery="retry")
        assert report.faults is not None and report.faults.injections
        clone = self._roundtrip(report)
        assert clone.faults == report.faults

    def test_strict_rtl_report_with_hazard_counters(self, rng):
        report = solve(uniform_multistage(rng, 4, 3), backend="rtl", strict=True)
        clone = self._roundtrip(report)
        assert clone.detail.report.hazards == 0
