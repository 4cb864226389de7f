#!/usr/bin/env python3
"""End-to-end benchmark of ``repro.solve()`` and ``repro.solve_batch()``.

Run from the repository root::

    python3 perfbench/run.py --workload solve_mixed --seed 1 --seconds 10 --trace 0

Each workload (``workloads.py``) runs as a closed loop from one process
and one thread: the next call is issued only after the previous one
returns.  Every report is checked, between calls and outside their
timing, against the sequential oracles and the paper's closed-form
counters.  ``problems_per_s`` counts problems per second of call time.
``setup_s`` is the median of :data:`SETUP_REPEATS` cold set-ups, each in a
fresh interpreter.  Every end-to-end time is scaled to the speed
reference of ``speed.py``, timed after each call and after each set-up;
the run record keeps the unscaled values.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced (``spans.py``) sub-runs, prints the per-layer
metrics and writes the spans to ``perfbench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record: host,
versions, seed, commit, failures and the workload's input properties.
Without the ``src/repro`` sources beside this directory the command exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

# numpy runs one thread; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Speed-reference runs after each cold set-up.
SETUP_REFERENCES = 100
#: Untraced runs make at least this many calls, which leaves at least ten
#: of them above the 90th percentile.
MIN_CALLS = 110
#: Traced runs alternate this many untraced and traced sub-runs.
SUBRUNS = 10
#: The traced sub-runs issue no further call once this many spans are held
#: in memory.
SPAN_BUDGET = 300_000
#: Run in a fresh interpreter: times ``import repro``, building every
#: problem instance and one warm-up call, so first-call and process-wide
#: lazy initialisation are paid as a user pays them.  Then prints the
#: speed reference's median time.
SETUP_PROBE = """\
import statistics, sys, time
t = time.perf_counter()
import repro
sys.path.insert(0, {bench!r})
import workloads
workloads.build({name!r}, {seed!r}).warm_up()
print(time.perf_counter() - t)
import speed
print(statistics.median(speed.seconds() for _ in range({references!r})))
"""


@dataclasses.dataclass
class Loop:
    """What one closed-loop phase submitted, how long each call took, what failed."""

    call_seconds: list[float] = dataclasses.field(default_factory=list)
    reference_seconds: list[float] = dataclasses.field(default_factory=list)
    problems: int = 0
    node_value_layers: int = 0
    failures: collections.Counter = dataclasses.field(default_factory=collections.Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def problems_per_s(self) -> float:
        return self.problems / sum(self.call_seconds)

    def record(self, cases: list[Any], reasons: list[str | None]) -> None:
        self.problems += len(cases)
        self.node_value_layers += sum(c.node_value_layers for c in cases)
        self.failures.update(r for r in reasons if r is not None)


def run_loop(
    wl: Any, seconds: float, *, min_calls: int, start: int = 0, tracer: Any = None,
    reference: bool = False,
) -> tuple[Loop, int]:
    """Issue ``wl``'s calls in cycle order from index ``start``, for ``seconds``
    and at least ``min_calls`` calls.

    Returns the phase and the cycle index to continue from.  An installed
    ``tracer`` also ends the phase once it holds :data:`SPAN_BUDGET` spans.
    With ``reference``, the speed reference is timed after every call.
    """
    loop = Loop()
    deadline = time.perf_counter() + seconds
    i = start
    while len(loop.call_seconds) < min_calls or (
        time.perf_counter() < deadline
        and (tracer is None or tracer.span_count < SPAN_BUDGET)
    ):
        call = wl.calls[i % len(wl.calls)]
        i += 1
        t0 = time.perf_counter()
        try:
            out = wl.issue(call)
        except Exception:  # the run goes on; every problem of the call failed
            loop.call_seconds.append(time.perf_counter() - t0)
            if "exception" not in loop.failures:
                traceback.print_exc(file=sys.stderr)
            loop.record(call.cases, ["exception"] * len(call.cases))
        else:
            loop.call_seconds.append(time.perf_counter() - t0)
            loop.record(call.cases, wl.check(call, wl.reports(call, out)))
        if reference:
            loop.reference_seconds.append(speed.seconds())
    return loop, i


def _cold_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Seconds :data:`SETUP_PROBE` takes in a fresh interpreter, timed inside
    it, and the speed reference's median seconds in that interpreter."""
    probe = SETUP_PROBE.format(bench=str(HERE), name=name, seed=seed, references=SETUP_REFERENCES)
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    setup, reference = proc.stdout.split()[-2:]
    return float(setup), float(reference)


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _problems_per_s(loops: list[Loop]) -> float:
    return sum(loop.problems for loop in loops) / sum(sum(loop.call_seconds) for loop in loops)


def _evictions(wl: Any) -> int:
    return wl.cache.stats.evictions if wl.cache is not None else 0


def _call_metrics(loop: Loop, scale: float) -> dict[str, tuple[float, str]]:
    calls_ms = [s * 1e3 * scale for s in loop.call_seconds]
    return {
        "problems_per_s": (loop.problems_per_s / scale, "1/s"),
        "call_p50_ms": (statistics.median(calls_ms), "ms"),
        "call_p90_ms": (statistics.quantiles(calls_ms, n=10)[-1], "ms"),
    }


def _untraced(
    workloads: Any, args: argparse.Namespace
) -> tuple[dict, list[Loop], Any, dict]:
    setups = [_cold_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    wl = workloads.build(args.workload, args.seed)
    wl.warm_up()
    wl.compute_expected()
    loop, _ = run_loop(wl, args.seconds, min_calls=MIN_CALLS, reference=True)
    reference_s = statistics.median(loop.reference_seconds)
    scale = speed.REFERENCE_S / reference_s
    metrics = {
        **_call_metrics(loop, scale),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(s * speed.REFERENCE_S / r for s, r in setups), "s"),
    }
    unscaled = {
        **{name: value for name, (value, _) in _call_metrics(loop, 1.0).items()},
        "setup_s": statistics.median(s for s, _ in setups),
    }
    scaling = {
        "reference_s": speed.REFERENCE_S,
        "measured_s": reference_s,
        "setup_measured_s": [r for _, r in setups],
        "unscaled": unscaled,
    }
    return metrics, [loop], wl, scaling


def _traced(
    workloads: Any, spans: Any, args: argparse.Namespace
) -> tuple[dict, list[Loop], Any, Any]:
    wl = workloads.build(args.workload, args.seed)
    wl.warm_up()
    wl.compute_expected()
    # Untraced and traced sub-runs alternate, so drift in machine speed
    # over the run falls on both sides of trace.overhead_frac alike.
    plain, traced, tracer = [], [], spans.Tracer()
    i = evictions = 0
    for _ in range(SUBRUNS):
        loop, i = run_loop(wl, args.seconds / (2 * SUBRUNS), min_calls=1, start=i)
        plain.append(loop)
        before = _evictions(wl)
        with tracer:
            loop, i = run_loop(
                wl, args.seconds / (2 * SUBRUNS), min_calls=1, start=i, tracer=tracer
            )
        traced.append(loop)
        evictions += _evictions(wl) - before
    metrics = spans.layer_metrics(
        tracer,
        problems=sum(loop.problems for loop in traced),
        node_value_layers=sum(loop.node_value_layers for loop in traced),
        evictions=evictions,
        overhead_frac=_problems_per_s(traced) / _problems_per_s(plain) - 1.0,
    )
    return metrics, plain + traced, wl, tracer


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _emit(
    metrics: dict[str, tuple[float, str]], record: dict[str, Any], attempted: int, failed: int
) -> None:
    width = max(len(name) for name in metrics) + 2
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}{value!r} {unit}")
    print(f"{'failed_frac':<{width}}{failed / attempted!r} ratio ({failed} of {attempted} problems)")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: src/repro is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.BUILDERS)}",
            file=sys.stderr,
        )
        return 2
    tracer = None
    if args.trace:
        import spans

        metrics, loops, wl, tracer = _traced(workloads, spans, args)
    else:
        metrics, loops, wl, scaling = _untraced(workloads, args)

    failures: collections.Counter = collections.Counter()
    for loop in loops:
        failures.update(loop.failures)
    attempted = sum(loop.problems for loop in loops)
    failed = sum(failures.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "calls": sum(len(loop.call_seconds) for loop in loops),
        "problems": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": dict(failures),
        "inputs": wl.properties(),
        "cache": dataclasses.asdict(wl.cache.stats) if wl.cache is not None else None,
    }
    if not args.trace:
        record["speed"] = scaling
    if tracer is not None:
        record["layer_moves"] = spans.MOVES
        layer_ms = sum(v for name, (v, u) in metrics.items() if u == "ms" and name != "trace.call_ms")
        print(
            f"layer self times add up to {layer_ms!r} ms "
            f"of trace.call_ms {metrics['trace.call_ms'][0]!r} ms"
        )
        tracer.dump(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json", record)
    _emit(metrics, record, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
