"""Cold start: what a fresh interpreter pays before its first answer.

``import repro`` loads the solve path only; the AND/OR search, the
dataflow engine, fault injection, branch-and-bound, ``io`` and the
telemetry sinks and exporters load on first use.  Each probe below runs
in its own fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``, so every
module it imports is compiled from source, as on a host without a
bytecode cache:

* ``import`` — ``import repro`` alone (numpy's import included; its share
  is recorded as ``numpy_s``);
* ``fast <kind>`` — ``import repro`` plus the first fast ``solve()`` of
  one problem of each kind of the end-to-end benchmark's ``solve_mixed``
  workload, at its sizes: ``gain`` (Fig. 5), ``sss`` and ``curve``
  (Fig. 3), ``chain`` (the systolic parenthesizer);
* ``rtl sss`` — ``import repro`` plus the first rtl Fig. 3 ``solve()``
  (the ``rtl_arrays`` single-source/sink member).

Building the problem is not timed.  Each interpreter also counts the
``repro`` modules loaded after the import and after the solve, and times
the ``perfbench/speed.py`` kernel (``_benchutil.speed_kernel_s``, recorded
as ``speed_s``) so runs on a faster or slower host can be scaled to one
another; the record's ``speed_reference_s`` is the median of the
probes' ``speed_s`` medians, so it was timed beside the measurements.
Probes alternate within each repeat; each figure is the median over the
``REPEATS`` repeats.

The checked-in ``BENCH_cold_start.json`` under ``benchmarks/results/``
is regenerated by running this file directly::

    PYTHONPATH=src python benchmarks/bench_cold_start.py [--parent PATH]

``--parent`` embeds, under ``"parent"``, the record this same script
writes when run in a checkout of the code before the change.  Import
times move with the checkout's path, so run both from directories whose
paths have equal length.  The record's paper fields (``iterations``,
``pu``) do not apply and read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

from _benchutil import print_table, write_bench_record

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
REPEATS = 15

#: Probe name -> (problem expression, backend, the method it routes to);
#: ``None`` probes the import alone.
PROBES: dict[str, tuple[str, str, str] | None] = {
    "import": None,
    "fast gain": ("graphs.gain_schedule_problem(rng, 32, 16)", "fast", "fig5-feedback-array"),
    "fast sss": ("graphs.single_source_sink(rng, 30, 16)", "fast", "fig3-pipelined-array"),
    "fast curve": (
        "graphs.curve_tracking_problem(rng, 32, 16)", "fast", "fig3-pipelined-array"
    ),
    "fast chain": (
        "repro.MatrixChainProblem(tuple(int(d) for d in rng.integers(4, 65, size=25)))",
        "fast", "parenthesizer-systolic",
    ),
    "rtl sss": ("graphs.single_source_sink(rng, 14, 8)", "rtl", "fig3-pipelined-array"),
}

#: Runs first in every probe interpreter.
IMPORT = """\
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import repro
t2 = time.perf_counter()
import json, sys

def modules():
    return sum(m == "repro" or m.startswith("repro.") for m in sys.modules)

out = {"import_s": t2 - t0, "numpy_s": t1 - t0, "modules_after_import": modules()}
"""
#: Then, on a solve probe, the first solve() of one problem.
SOLVE = """\
from repro import graphs
rng = numpy.random.default_rng(0)
problem = {problem}
t3 = time.perf_counter()
report = repro.solve(problem, backend={backend!r})
out["solve_s"] = time.perf_counter() - t3
out["first_answer_s"] = out["import_s"] + out["solve_s"]
out["modules_after_solve"] = modules()
if not (report.validated and report.method.startswith({method!r})):
    raise SystemExit(f"unexpected report: {{report.method}}, validated {{report.validated}}")
"""
#: Last, the speed reference.
SPEED = """\
sys.path.insert(0, {benchmarks!r})
from _benchutil import speed_kernel_s
out["speed_s"] = speed_kernel_s()
print(json.dumps(out))
"""


def _probe(spec: tuple[str, str, str] | None) -> dict:
    """One fresh interpreter's figures for probe ``spec``."""
    code = IMPORT
    if spec is not None:
        problem, backend, method = spec
        code += SOLVE.format(problem=problem, backend=backend, method=method)
    code += SPEED.format(benchmarks=str(BENCH_DIR))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _measure(repeats: int) -> dict[str, dict]:
    runs: dict[str, list[dict]] = {name: [] for name in PROBES}
    for _ in range(repeats):
        for name, spec in PROBES.items():
            runs[name].append(_probe(spec))
    probes = {}
    for name, rows in runs.items():
        figures: dict = {"interpreters": len(rows)}
        for key in rows[0]:
            values = [row[key] for row in rows]
            if key.startswith("modules_"):
                assert len(set(values)) == 1, (name, key, values)  # deterministic
                figures[key] = values[0]
            else:
                figures[f"{key}_median"] = statistics.median(values)
        probes[name] = figures
    return probes


def _print(probes: dict, parent: dict | None = None) -> None:
    old = (parent or {}).get("probes", {})
    rows = []
    for name, p in probes.items():
        total = p.get("first_answer_s_median", p["import_s_median"])
        row = [
            name, p["modules_after_import"], p.get("modules_after_solve", "-"),
            f"{p['import_s_median'] * 1e3:.0f}", f"{total * 1e3:.0f}",
            f"{p['speed_s_median'] * 1e6:.0f}",
        ]
        if parent is not None:
            q = old.get(name)
            row += [
                q["modules_after_import"] if q else "-",
                f"{q.get('first_answer_s_median', q['import_s_median']) * 1e3:.0f}"
                if q else "-",
            ]
        rows.append(row)
    headers = ["probe", "modules", "after solve", "import ms", "import+solve ms", "speed µs"]
    if parent is not None:
        headers += ["parent modules", "parent import+solve ms"]
    print_table("cold start (medians over fresh interpreters)", headers, rows)


def _record(probes: dict, out_dir: pathlib.Path, parent: dict | None = None) -> pathlib.Path:
    extra: dict = {"probes": probes}
    if parent is not None:
        extra["parent"] = {
            key: parent[key] for key in ("nproc", "speed_reference_s", "probes") if key in parent
        }
    speeds = [p["speed_s_median"] for p in probes.values()]
    return write_bench_record(
        "cold_start",
        design="solve-path",
        backend="fast",
        n=32,
        m=16,
        wall_seconds=probes["import"]["import_s_median"],
        iterations=0,
        pu=0.0,
        extra=extra,
        out_dir=out_dir,
        speed_reference_s=statistics.median(speeds),
    )


def test_cold_start(tmp_path):
    probes = _measure(repeats=1)
    _print(probes)
    _record(probes, tmp_path)  # scratch record; the committed copy comes from main()
    (loaded,) = {p["modules_after_import"] for p in probes.values()}
    for name, spec in PROBES.items():
        if spec is not None:
            assert probes[name]["modules_after_solve"] >= loaded, name


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path,
                        help="a record of this script from the code before the change")
    args = parser.parse_args()
    parent = json.loads(args.parent.read_text()) if args.parent else None
    probes = _measure(REPEATS)
    _print(probes, parent)
    print(f"wrote {_record(probes, RESULTS_DIR, parent)}")


if __name__ == "__main__":
    main()
