"""Eq.-29 shard planning and report pickling.

``plan_shards`` is the paper's granularity result read as a scheduler:
the computation shards carry ``T_c = ceil((n-1)/K)``-ish equal loads and
the wind-down tail halves (eq. 29's ``T_w = log2`` term).  It is paper
analysis in :mod:`repro.dnc`; the batch engine runs every batch in one
process and does not use it.  The pickle round-trips pin that every
report (including nested fault and hazard payloads) survives a process
boundary unchanged, so callers may ship reports between processes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import MatrixChainProblem, solve
from repro.dnc import kt2, plan_shards, schedule_time
from repro.faults import FaultPlan, FaultSpec
from repro.graphs import random_multistage, traffic_light_problem, uniform_multistage

from .test_exec_batch import assert_same_report


class TestPlanShards:
    @pytest.mark.parametrize("n,workers", [(1, 1), (7, 2), (64, 2), (257, 4), (1000, 8)])
    def test_sizes_partition_the_items(self, n, workers):
        plan = plan_shards(n, workers)
        assert sum(plan.sizes) == n
        assert all(s > 0 for s in plan.sizes)
        offsets = plan.offsets()
        assert offsets[0][0] == 0 and offsets[-1][1] == n
        for (_, hi), (lo, _) in zip(offsets, offsets[1:]):
            assert hi == lo

    def test_kt2_strategy_minimizes_kt2_over_worker_range(self):
        n, workers = 256, 4
        plan = plan_shards(n, workers)
        assert plan.kt2 == min(kt2(n, k) for k in range(1, workers + 1))
        assert plan.schedule == schedule_time(n, plan.num_workers)

    def test_kt2_wind_down_tail_halves(self):
        plan = plan_shards(257, 4)
        # Computation shards all carry T_c items; the residue drains in
        # halving steps, eq. 29's log2 wind-down.
        t_c = plan.schedule.computation
        head = [s for s in plan.sizes if s == t_c]
        tail = plan.sizes[len(head):]
        assert sum(tail) == 257 - t_c * len(head)
        for a, b in zip(tail, tail[1:]):
            assert b <= a

    def test_even_strategy_splits_equally(self):
        plan = plan_shards(100, 4, strategy="even")
        assert plan.sizes == (25, 25, 25, 25)
        plan = plan_shards(10, 3, strategy="even")
        assert sum(plan.sizes) == 10
        assert max(plan.sizes) - min(plan.sizes) <= 1

    def test_zero_items_empty_plan(self):
        plan = plan_shards(0, 4)
        assert plan.sizes == ()
        assert plan.offsets() == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(4, 0)
        with pytest.raises(ValueError):
            plan_shards(4, 2, strategy="bogus")


class TestReportPickleRoundTrip:
    def _roundtrip(self, report):
        clone = pickle.loads(pickle.dumps(report))
        # Field-wise: dataclass == would hit ndarray truth-value ambiguity.
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
