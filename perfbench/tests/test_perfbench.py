"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import gc
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def fingerprint(obj):
    """An identity-free, comparable form of a report, down to array bytes."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        return (type(obj).__name__, *(fingerprint(getattr(obj, f.name)) for f in fields))
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), fingerprint(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    if isinstance(obj, enum.Enum):
        return repr(obj)
    return obj


def _reports(name: str, *, traced: bool, calls: int = 2) -> list:
    wl = workloads.build(name, seed=7)
    out = []
    with spans.Tracer() if traced else contextlib.nullcontext():
        for call in wl.calls[:calls]:
            out += [fingerprint(r) for r in wl.reports(call, wl.issue(call))]
    return out


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_and_untraced_runs_return_identical_reports(name):
    assert _reports(name, traced=True) == _reports(name, traced=False)


def test_every_wrapper_is_removed_after_the_traced_run():
    before = spans.current_targets()
    wl = workloads.build("rtl_arrays", seed=1)
    with spans.Tracer() as tracer:
        during = spans.current_targets()
        wl.issue(wl.calls[0])
    after = spans.current_targets()
    assert all(a is b for a, b in zip(before, after, strict=True))
    assert not any(a is d for a, d in zip(before, during, strict=True))
    assert tracer.span_count > 0


def test_every_listed_layer_metric_is_computed_and_mapped():
    with spans.Tracer() as tracer:
        wl = workloads.build("rtl_arrays", seed=1)
        wl.issue(wl.calls[0])
    metrics = spans.layer_metrics(
        tracer, problems=1, node_value_layers=15, evictions=0, overhead_frac=0.0
    )
    assert list(metrics) == list(spans.UNITS)
    assert set(spans.MOVES) == set(spans.UNITS)


@pytest.mark.parametrize(
    "index, corrupt, reason",
    [
        (1, lambda case: setattr(case, "optimum", case.optimum + 1.0), "optimum"),
        (3, lambda case: case.counters.update(steps=case.counters["steps"] + 1), "counter"),
    ],
)
def test_a_wrong_expectation_counts_in_failed_frac(index, corrupt, reason):
    wl = workloads.build("solve_mixed", seed=2)
    wl.compute_expected()
    cycle = len(wl.calls)
    clean, _ = run.run_loop(wl, 0, min_calls=cycle)
    assert (clean.problems, clean.failed) == (cycle, 0)
    corrupt(wl.calls[index].cases[0])
    broken, _ = run.run_loop(wl, 0, min_calls=cycle)
    assert broken.failures == {reason: 1}
    assert broken.failed / broken.problems == pytest.approx(1 / cycle)


def test_the_speed_reference_allocates_nothing_the_collector_tracks():
    speed.seconds()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for _ in range(10):
            speed.seconds()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "solve_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
