"""THROUGHPUT — the batch engine vs. a looped ``solve()``.

The paper's arrays are throughput devices: Section 4 feeds the Fig. 3
pipeline a *stream* of matrix strings.  :func:`repro.exec.solve_batch`
implements that reading in software — stacked vectorized kernels and a
digest-keyed solve cache, in one process — and this module measures
each level against the baseline everyone would write first: a Python
loop over :func:`repro.solve`.

Reproduced artifact: ``BENCH_throughput.json`` with

* looped vs. batched wall-clock curves over batch sizes,
* the acceptance floor — batched ≥ 5x over looped at batch 64 of
  same-shape monadic-serial instances (fast backend),
* second-pass cache stats (must be all hits, zero misses),
* the host's CPU count (``nproc``), as every record carries it.

The checked-in copy under ``benchmarks/results/`` is regenerated with::

    PYTHONPATH=src python benchmarks/bench_throughput.py

(``--quick`` trims the batch-size grid; ``--out DIR`` redirects the
record.)
"""

from __future__ import annotations

import argparse
import pathlib
import time

import numpy as np

from repro import SolveCache, solve, solve_batch
from repro.graphs import traffic_light_problem

from _benchutil import print_table, write_bench_record

N_STAGES, M_VALUES = 6, 5
BATCH_SIZES = (16, 64, 256, 1024)
QUICK_BATCH_SIZES = (16, 64)
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _problems(rng: np.random.Generator, batch: int) -> list:
    return [traffic_light_problem(rng, N_STAGES, M_VALUES) for _ in range(batch)]


def _measure(batch_sizes: tuple[int, ...]) -> list[dict]:
    """Looped / batched walls plus cache stats per batch size."""
    rng = np.random.default_rng(0xBEEF)
    solve_batch(_problems(rng, 2))  # warm imports out of the timed region
    rows = []
    for batch in batch_sizes:
        probs = _problems(rng, batch)

        start = time.perf_counter()
        looped = [solve(p, backend="fast") for p in probs]
        looped_s = time.perf_counter() - start

        start = time.perf_counter()
        batched = solve_batch(probs)
        batched_s = time.perf_counter() - start
        for rep, ref in zip(batched.reports, looped):
            assert rep.optimum == ref.optimum
            assert rep.solution.nodes == ref.solution.nodes

        cache = SolveCache(capacity=2 * batch)
        solve_batch(probs, cache=cache)
        second = solve_batch(probs, cache=cache)

        rows.append(
            {
                "batch": batch,
                "looped_seconds": looped_s,
                "batched_seconds": batched_s,
                "batched_speedup": looped_s / batched_s,
                "fill_factor": batched.stats.fill_factor,
                "second_pass_cache_hits": second.stats.cache_hits,
                "second_pass_cache_misses": second.stats.executed,
            }
        )
    return rows


def _render(rows: list[dict]) -> None:
    print_table(
        f"solve_batch throughput, {N_STAGES} stages x {M_VALUES} values",
        ["batch", "looped s", "batched s", "batched x", "2nd-pass hits"],
        [
            [r["batch"], f"{r['looped_seconds']:.4f}",
             f"{r['batched_seconds']:.4f}", f"{r['batched_speedup']:.1f}",
             f"{r['second_pass_cache_hits']}/{r['batch']}"]
            for r in rows
        ],
    )


def _record(rows: list[dict], out_dir: pathlib.Path) -> pathlib.Path:
    floor = next(r for r in rows if r["batch"] >= 64)
    return write_bench_record(
        "throughput",
        design="batch-engine",
        backend="fast",
        n=N_STAGES,
        m=M_VALUES,
        wall_seconds=floor["batched_seconds"],
        iterations=floor["batch"],
        pu=floor["fill_factor"],
        extra={
            "curves": rows,
            "batched_speedup_at_64": floor["batched_speedup"],
        },
        out_dir=out_dir,
    )


def test_throughput(tmp_path):
    rows = _measure(QUICK_BATCH_SIZES)
    _render(rows)
    _record(rows, tmp_path)
    floor = next(r for r in rows if r["batch"] >= 64)
    assert floor["batched_speedup"] >= 5.0, (
        f"batched only {floor['batched_speedup']:.1f}x over looped solve()"
    )
    for row in rows:
        assert row["second_pass_cache_hits"] == row["batch"]
        assert row["second_pass_cache_misses"] == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="trim the batch-size grid to its first two points",
    )
    parser.add_argument(
        "--out", default=None,
        help="directory for BENCH_throughput.json (default: benchmarks/results)",
    )
    args = parser.parse_args()
    sizes = QUICK_BATCH_SIZES if args.quick else BATCH_SIZES
    rows = _measure(sizes)
    _render(rows)
    out_dir = pathlib.Path(args.out) if args.out else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _record(rows, out_dir)
    floor = next(r for r in rows if r["batch"] >= 64)
    print(f"\nwrote {path} (batched {floor['batched_speedup']:.1f}x at batch 64)")


if __name__ == "__main__":
    main()
