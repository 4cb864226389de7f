"""Reporting helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

__all__ = ["print_table", "write_bench_record"]


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
) -> pathlib.Path:
    """Emit a uniform ``BENCH_<name>.json`` record and return its path.

    Every benchmark writes the same shape — design, backend, problem
    size (N matrices × m values), wall-clock seconds, paper iterations,
    PU, and the host's CPU count (``nproc``) — so downstream tooling (and the CI smoke step) can diff runs
    without per-benchmark parsers.  ``out_dir`` defaults to the current
    working directory; scratch records there are gitignored, while
    records checked in deliberately live under ``benchmarks/results/``.
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
    }
    if extra:
        record.update(extra)
    out = pathlib.Path(out_dir or ".") / f"BENCH_{name}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    return out
