"""Reporting helpers shared by the benchmark modules."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import statistics
from typing import Any

__all__ = ["print_table", "speed_kernel_s", "write_bench_record"]

#: The speed reference the end-to-end benchmark times beside its calls.
SPEED_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "speed.py"
#: Kernel runs per :func:`speed_kernel_s` reading.
SPEED_SAMPLES = 201


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Uniform fixed-width table printer for reproduced artifacts."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def speed_kernel_s() -> float:
    """Median seconds of the ``perfbench/speed.py`` kernel in this
    interpreter now.

    The host's speed drifts over minutes; records that carry this figure
    can be scaled to one another (a time times ``b / a`` reads as if
    measured when the kernel took ``b``).  A benchmark that runs its
    timings in other interpreters calls it there, with ``benchmarks/`` on
    ``sys.path``."""
    spec = importlib.util.spec_from_file_location("_perfbench_speed", SPEED_PY)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load the speed reference {SPEED_PY}")
    speed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(speed)
    return statistics.median(speed.seconds() for _ in range(SPEED_SAMPLES))


def write_bench_record(
    name: str,
    *,
    design: str,
    backend: str,
    n: int,
    m: int,
    wall_seconds: float,
    iterations: int,
    pu: float,
    extra: dict[str, Any] | None = None,
    out_dir: str | pathlib.Path | None = None,
    speed_reference_s: float | None = None,
) -> pathlib.Path:
    """Emit a uniform ``BENCH_<name>.json`` record and return its path.

    Every benchmark writes the same shape — design, backend, problem
    size (N matrices × m values), wall-clock seconds, paper iterations,
    PU, the host's CPU count (``nproc``) and the speed reference's median
    seconds (``speed_reference_s``) — so downstream tooling (and the CI
    smoke step) can diff runs without per-benchmark parsers, and scale
    times taken on a faster or slower host.  Pass ``speed_reference_s``
    when it was timed beside the measurements; without it, the kernel is
    timed here, once, after them.  ``out_dir`` defaults to the current
    working directory; scratch records there are gitignored, while records
    checked in deliberately live under ``benchmarks/results/``.
    """
    record: dict[str, Any] = {
        "bench": name,
        "design": design,
        "backend": backend,
        "N": int(n),
        "m": int(m),
        "wall_seconds": float(wall_seconds),
        "iterations": int(iterations),
        "pu": float(pu),
        "nproc": os.cpu_count(),
        "speed_reference_s": (
            speed_kernel_s() if speed_reference_s is None else float(speed_reference_s)
        ),
    }
    if extra:
        record.update(extra)
    out = pathlib.Path(out_dir or ".") / f"BENCH_{name}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    return out
