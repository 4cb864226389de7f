"""Hazard sanitizer × batch engine: strict runs stay per-instance.

``strict=True`` wires a :class:`~repro.analysis.HazardSanitizer` into
every machine the run builds.  Sanitizers are stateful monitors, so the
batch engine must never share one across instances: strict batches skip
the vectorized kernels and loop ``solve()``, one machine and one
sanitizer per instance.  The fixture designs under ``tests/fixtures``
also pin sanitizer isolation across processes — a seeded hazard is
detected identically in every worker, and a clean design stays clean,
with no cross-talk between concurrent runs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import solve, solve_batch
from repro.analysis import HazardError
from repro.graphs import uniform_multistage

from .fixtures import clean_shift, hazard_staged_read, hazard_write_write
from .test_exec_batch import assert_same_report


class TestStrictBatches:
    def test_strict_rtl_batch_matches_looped_solve(self, rng):
        probs = [uniform_multistage(rng, 4, 3) for _ in range(4)]
        result = solve_batch(probs, backend="rtl", strict=True)
        assert result.stats.vectorized_groups == 0
        for rep, problem in zip(result, probs):
            assert_same_report(rep, solve(problem, backend="rtl", strict=True))
            assert rep.detail.report.hazards == 0

    def test_strict_fast_batch_skips_vectorized_kernels(self, rng):
        probs = [uniform_multistage(rng, 4, 3) for _ in range(4)]
        result = solve_batch(probs, backend="fast", strict=True)
        assert result.stats.vectorized_groups == 0
        for rep, problem in zip(result, probs):
            assert_same_report(rep, solve(problem, backend="fast", strict=True))


class TestFixtureDesignsAcrossWorkers:
    """Seeded-hazard fixtures run per-worker with independent sanitizers."""

    def test_hazard_detected_identically_in_every_worker(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            reports = [
                f.result()
                for f in [pool.submit(hazard_write_write.run, "record")
                          for _ in range(4)]
            ]
        counts = {r.hazards for r in reports}
        assert len(counts) == 1
        assert counts.pop() > 0

    def test_clean_design_stays_clean_beside_hazardous_neighbors(self):
        # Interleave clean and broken designs across the same pool: a
        # shared sanitizer would leak the neighbor's hazards into the
        # clean run's report.
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(clean_shift.run, "record"),
                pool.submit(hazard_staged_read.run, "record"),
                pool.submit(clean_shift.run, "record"),
                pool.submit(hazard_write_write.run, "record"),
            ]
            clean_a, dirty_a, clean_b, dirty_b = [f.result() for f in futures]
        assert clean_a.hazards == 0 and clean_b.hazards == 0
        assert dirty_a.hazards > 0 and dirty_b.hazards > 0

    def test_raise_mode_propagates_from_worker(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            future = pool.submit(hazard_write_write.run, "raise")
            with pytest.raises(HazardError):
                future.result()
