"""The contract Fig. 3 and Fig. 4 share: one front end checks the string,
one fast kernel evaluates it, and every backend answers alike.

Both designs evaluate the eq.-8 matrix string right to left and differ
only in how data moves, so each check here runs on both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import GraphError, random_multistage, single_source_sink
from repro.semiring import MAX_PLUS, MIN_PLUS, PLUS_TIMES, matvec
from repro.systolic import (
    BroadcastArrayResult,
    BroadcastMatrixStringArray,
    PipelinedArrayResult,
    PipelinedMatrixStringArray,
    SystolicError,
)

DESIGNS = [PipelinedMatrixStringArray, BroadcastMatrixStringArray]


def _string(rng, m=3, n=3, rows=None):
    rows = m if rows is None else rows
    head = rng.integers(0, 9, (rows, m)).astype(float)
    return [head, *rng.integers(0, 9, (n, m, m)).astype(float), np.ones((m, 1))]


MALFORMED = {
    "not-a-column-vector": lambda r: [np.ones((3, 3)), np.ones((3, 2))],
    "bare-square-string": lambda r: [np.ones((3, 3)), np.ones((3, 3))],
    "wrong-width": lambda r: [np.ones((3, 2)), np.ones((3, 1))],
    "non-square-interior": lambda r: [np.ones((3, 3)), np.ones((2, 3)), np.ones((3, 1))],
    "row-vector-not-leftmost": lambda r: [
        np.ones((3, 3)), np.ones((1, 3)), np.ones((3, 1))
    ],
    "one-operand": lambda r: [np.ones((3, 1))],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_strings_raise_the_same_error(rng, name):
    messages = set()
    for cls in DESIGNS:
        with pytest.raises(SystolicError) as info:
            cls().run(MALFORMED[name](rng), backend="fast")
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("cls", DESIGNS)
@pytest.mark.parametrize(
    "sr, bad, match",
    [
        (MIN_PLUS, np.nan, "NaN"),
        (MIN_PLUS, -np.inf, "wrong infinity"),
        (MAX_PLUS, np.inf, "wrong infinity"),
        (MIN_PLUS, -1e308, "overflow"),
        (MAX_PLUS, 1e308, "overflow"),
        (PLUS_TIMES, np.nan, "NaN"),
    ],
)
def test_bad_costs_raise_graph_error_at_entry(rng, cls, sr, bad, match):
    mats = _string(rng)
    if match == "overflow":  # every path sums two costs near the wrong infinity
        mats[1][:] = mats[2][:] = bad
    else:
        mats[1][0, 0] = bad
    for backend in ("fast", "auto", "rtl"):
        with pytest.raises(GraphError, match=match):
            cls(sr).run(mats, backend=backend)


@pytest.mark.parametrize("cls", DESIGNS)
def test_semiring_mismatch_on_run_graph(rng, cls):
    g = single_source_sink(rng, 4, 3)
    with pytest.raises(SystolicError, match="different semirings"):
        cls(MAX_PLUS).run_graph(g)


@pytest.mark.parametrize("cls", DESIGNS)
def test_traced_run_graph_runs_rtl(rng, cls):
    g = single_source_sink(rng, 4, 3)
    res = cls(backend="fast").run_graph(g, record_trace=True)
    assert res.report.backend == "rtl"
    assert res.events and res.trace
    assert {e.kind for e in res.events} >= {"op", "io"}


def test_one_result_type():
    assert BroadcastArrayResult is PipelinedArrayResult
    assert PipelinedArrayResult.backend_fields == ("value", "decisions")


def test_decisions_are_fig4_only(rng):
    with pytest.raises(TypeError, match="track_decisions"):
        PipelinedMatrixStringArray().run(_string(rng), track_decisions=True)
    with pytest.raises(TypeError, match="bogus"):
        BroadcastMatrixStringArray().run(_string(rng), bogus=True)


def _reference(sr, mats):
    """Per-layer ``semiring.matvec``, right to left, and each layer's
    first attaining column (the ARG registers), sink side first."""
    x = np.asarray(mats[-1], dtype=float)[:, 0]
    decisions = []
    for mat in mats[-2::-1]:
        y = matvec(sr, mat, x)
        if sr.add_argreduce is not None:
            decisions.append(sr.add_argreduce(sr.mul(mat, x[None, :]), axis=1))
        x = y
    return x, decisions


@pytest.mark.parametrize("backend", ["fast", "auto", "rtl"])
@pytest.mark.parametrize("sr", [MIN_PLUS, MAX_PLUS, PLUS_TIMES], ids=lambda s: s.name)
@pytest.mark.parametrize("rows", ["square-head", "row-vector"])
def test_values_and_decisions_match_a_per_layer_reference(rows, sr, backend):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        head = 1 if rows == "row-vector" else m
        mats = _string(rng, m=m, n=int(rng.integers(0, 4)), rows=head)
        want, decisions = _reference(sr, mats)
        for cls in DESIGNS:
            res = cls(sr).run(mats, backend=backend)
            assert np.array_equal(np.asarray(res.value).reshape(-1), want)
            assert res.decisions is None
        if sr.add_argreduce is None:
            continue
        res = BroadcastMatrixStringArray(sr).run(
            mats, backend=backend, track_decisions=True
        )
        assert np.array_equal(np.asarray(res.value).reshape(-1), want)
        assert len(res.decisions) == len(decisions)
        for got, ref in zip(res.decisions, decisions):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("cls", DESIGNS)
def test_run_and_run_graph_agree(rng, cls):
    for sizes in ([1, 3, 3, 3, 1], [3, 3, 3, 1]):
        g = random_multistage(rng, sizes)
        for backend in ("fast", "auto", "rtl"):
            a = cls(backend=backend).run_graph(g)
            b = cls(backend=backend).run(g.as_matrices())
            assert np.array_equal(a.value, b.value)
            assert a.report == b.report
            assert a.certified == b.certified
