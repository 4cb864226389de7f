"""Batch rows: what building one row of a stacked fast kernel costs.

``solve_batch`` runs a group of same-shape problems through one stacked
fast kernel (``exec.vectorized.run_payload``) and then builds frozen
results per row: a ``StagePath`` and a ``FeedbackArrayResult`` (Fig. 5)
or a ``PipelinedArrayResult`` (Fig. 3), and a ``SolveReport``.  The
kernels and ``core.solver._certified`` build them with
``repro._readonly.row_builder``, which writes each instance dict in field
order; a constructor call runs the frozen ``__init__`` (one
``object.__setattr__`` per field) and ``__post_init__``.  This bench
measures both on the same code:

* ``per_row`` — µs per row of a ``B``-row column of each type, built by
  ``cls(**fields)`` ("old") and by ``row_builder(cls)(**fields)``
  ("new");
* ``run_payload`` — ms per ``run_payload`` call on a Fig. 5 group
  (node-value problems of 6 stages × 5 values, the ``batch_nodevalue``
  members) and a Fig. 3 group (uniform 6-stage graphs of width 5), at
  B = 192 and 512, with rows built by ``row_builder`` ("new") and by the
  constructors ("old": ``row_builder`` replaced by the class itself in
  the three modules that build rows).

Old and new rows are checked equal.  Each figure is the least and the
median of its repeats, old and new alternating.  The checked-in
``BENCH_batch_rows.json`` under ``benchmarks/results/`` is regenerated
by running this file directly::

    PYTHONPATH=src python benchmarks/bench_batch_rows.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import pathlib
import statistics
import sys
import time

import numpy as np

from repro import graphs
from repro._readonly import row_builder
from repro.core import solver
from repro.exec.grouping import group_problems
from repro.exec.vectorized import prepare_payload, run_payload
from repro.graphs import StagePath
from repro.systolic import feedback_array, pipelined_array
from repro.systolic.feedback_array import FeedbackArrayResult, feedback_pu
from repro.systolic.pipelined_array import PipelinedArrayResult
from _benchutil import print_table, write_bench_record

SIZES = (192, 512)
STAGES, WIDTH = 6, 5
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: The modules whose ``row_builder`` builds batch rows.
BUILDERS = (feedback_array, pipelined_array, solver)


@contextlib.contextmanager
def _constructors():
    """Rows built by their classes' constructors, as before ``row_builder``."""
    saved = [m.row_builder for m in BUILDERS]
    for module in BUILDERS:
        module.row_builder = lambda cls: cls
    try:
        yield
    finally:
        for module, builder in zip(BUILDERS, saved):
            module.row_builder = builder


def _payload(kind, batch):
    rng = np.random.default_rng(batch)
    if kind == "feedback":
        make = (graphs.traffic_light_problem, graphs.production_problem)
        problems = [make[i % 2](rng, STAGES, WIDTH) for i in range(batch)]
    else:
        problems = [graphs.uniform_multistage(rng, STAGES, WIDTH) for _ in range(batch)]
    (group,) = group_problems(problems, list(range(batch)), prefer=None, vectorize=True)
    assert group.kind == kind
    return prepare_payload(group)


def _pair_times(old, new, repeats, per, unit):
    """Least and median time per ``per`` of ``old()`` and ``new()``, in
    ``unit`` (``"us"`` or ``"ms"``), old and new alternating."""
    times: dict[str, list[float]] = {"old": [], "new": []}
    scale = {"us": 1e6, "ms": 1e3}[unit]
    for i in range(repeats):
        order = (("old", old), ("new", new)) if i % 2 == 0 else (("new", new), ("old", old))
        for name, run in order:
            start = time.perf_counter()
            run()
            times[name].append((time.perf_counter() - start) * scale / per)
    return {
        f"{name}_{stat}_{unit}": fn(values)
        for name, values in times.items()
        for stat, fn in (("least", min), ("median", statistics.median))
    }


def _fields(row):
    return {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}


def _per_row(repeats):
    """One entry per row type: µs per row of a column of ``SIZES[-1]`` rows."""
    batch = SIZES[-1]
    feedback = run_payload(_payload("feedback", batch))
    pipelined = run_payload(_payload("pipelined", batch))
    samples = {
        StagePath: [r.solution for r in feedback],
        FeedbackArrayResult: [r.detail for r in feedback],
        PipelinedArrayResult: [r.detail for r in pipelined],
        solver.SolveReport: feedback,
    }
    out = []
    for cls, rows in samples.items():
        columns = [_fields(r) for r in rows]
        build = row_builder(cls)
        old = [cls(**f) for f in columns]
        new = [build(**f) for f in columns]
        assert old == new == rows
        out.append({
            "type": cls.__name__,
            "fields": len(dataclasses.fields(cls)),
            "rows": batch,
            **_pair_times(
                lambda: [cls(**f) for f in columns],
                lambda: [build(**f) for f in columns],
                repeats, batch, "us",
            ),
            "dict_bytes_old": sys.getsizeof(vars(old[0])),
            "dict_bytes_new": sys.getsizeof(vars(new[0])),
        })
    return out


def _run_payload(repeats):
    """One entry per (design, B): ms per ``run_payload`` call, old and new."""
    out = []
    for kind in ("feedback", "pipelined"):
        for batch in SIZES:
            payload = _payload(kind, batch)
            new_rows = run_payload(payload)
            with _constructors():
                assert run_payload(payload) == new_rows

            def old():
                with _constructors():
                    run_payload(payload)

            times = _pair_times(old, lambda: run_payload(payload), repeats, 1, "ms")
            out.append({"design": solver._ARRAYS[kind][1], "B": batch, **times})
    return out


def _print(per_row, payloads):
    print_table(
        "batch row construction, µs per row (least / median)",
        ["type", "fields", "rows", "old", "new", "dict B old/new"],
        [
            [r["type"], r["fields"], r["rows"],
             f"{r['old_least_us']:.2f} / {r['old_median_us']:.2f}",
             f"{r['new_least_us']:.2f} / {r['new_median_us']:.2f}",
             f"{r['dict_bytes_old']} / {r['dict_bytes_new']}"]
            for r in per_row
        ],
    )
    print_table(
        "run_payload, ms per call (least / median)",
        ["design", "B", "old", "new"],
        [
            [r["design"], r["B"],
             f"{r['old_least_ms']:.3f} / {r['old_median_ms']:.3f}",
             f"{r['new_least_ms']:.3f} / {r['new_median_ms']:.3f}"]
            for r in payloads
        ],
    )


def _record(per_row, payloads, out_dir):
    head = payloads[0]
    return write_bench_record(
        "batch_rows",
        design=head["design"],
        backend="fast",
        n=STAGES,
        m=WIDTH,
        wall_seconds=head["new_least_ms"] / 1e3,
        iterations=(STAGES + 1) * WIDTH,
        pu=feedback_pu(STAGES, WIDTH),
        extra={"per_row": per_row, "run_payload": payloads},
        out_dir=out_dir,
    )


def test_batch_row_cost(tmp_path):
    per_row, payloads = _per_row(repeats=3), _run_payload(repeats=3)
    _print(per_row, payloads)
    _record(per_row, payloads, tmp_path)  # scratch record; the committed copy comes from main()
    for r in per_row:
        assert r["dict_bytes_new"] <= r["dict_bytes_old"]


def main() -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    per_row, payloads = _per_row(repeats=200), _run_payload(repeats=200)
    _print(per_row, payloads)
    print(f"wrote {_record(per_row, payloads, RESULTS_DIR)}")


if __name__ == "__main__":
    main()
