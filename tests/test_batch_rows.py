"""Batch rows are built column by column and equal constructor-built rows.

The stacked Fig. 5 and Fig. 3 kernels and ``core.solver._certified``
build their rows with ``repro._readonly.row_builder`` (the instance dict
written in field order, no ``__init__``), and keep the ``__post_init__``
invariants once per column.  A row must be indistinguishable from the
report a looped ``solve(backend="fast")`` returns and from its
constructor-built twin, on every selective semiring and batch size.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys

import numpy as np
import pytest

from repro import solve, solve_batch
from repro.core.solver import SolveReport, ValidationError
from repro.graphs import MultistageGraph, NodeValueProblem, StagePath
from repro.semiring import BOOLEAN, MAX_PLUS, MAX_TIMES, MIN_MAX, MIN_PLUS
from repro.systolic import feedback_array, pipelined_array

SELECTIVE = (MIN_PLUS, MAX_PLUS, MAX_TIMES, MIN_MAX, BOOLEAN)
SIZES = (1, 2, 17, 512)
STAGES, WIDTH = 5, 4


def _costs(sr, rng, shape):
    """Random costs in ``sr``'s domain, with ties."""
    if sr is MAX_TIMES:
        return rng.integers(0, 5, shape) / 4.0
    if sr is BOOLEAN:
        return rng.integers(0, 2, shape).astype(float)
    return rng.integers(-3, 6, shape).astype(float)


def _edge_cost(sr):
    if sr is MAX_TIMES:
        return lambda x, y: 1.0 / (1.0 + np.abs(x - y))
    if sr is BOOLEAN:
        return lambda x, y: (np.abs(x - y) < 2.5).astype(float)
    return lambda x, y: np.round(np.abs(x - y), 1) - 1.0


def _problems(design, sr, batch, seed=0):
    rng = np.random.default_rng([seed, batch, SELECTIVE.index(sr)])
    if design == "feedback":
        return [
            NodeValueProblem(
                values=tuple(rng.integers(0, 6, WIDTH).astype(float) for _ in range(STAGES)),
                edge_cost=_edge_cost(sr),
                semiring=sr,
            )
            for _ in range(batch)
        ]
    # A multi-source single-sink string: each row's solution is a vector.
    sizes = [WIDTH] * (STAGES - 1) + [1]
    return [
        MultistageGraph(
            costs=[_costs(sr, rng, shape) for shape in zip(sizes, sizes[1:])],
            semiring=sr,
        )
        for _ in range(batch)
    ]


def _twin(row):
    """``row`` rebuilt by the constructors, detail and path included."""
    fields = {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}
    if isinstance(row, SolveReport):
        fields["detail"] = _twin(row.detail)
        if isinstance(row.solution, StagePath):
            fields["solution"] = _twin(row.solution)
    elif isinstance(row, feedback_array.FeedbackArrayResult):
        fields["path"] = _twin(row.path)
    return type(row)(**fields)


def _batch(design, sr, batch):
    problems = _problems(design, sr, batch)
    result = solve_batch(problems, backend="fast")
    assert result.stats.vectorized_problems == batch
    return problems, list(result.reports)


DESIGNS = ("feedback", "pipelined")
CASES = [(d, sr, b) for d in DESIGNS for sr in SELECTIVE for b in SIZES]
IDS = [f"{d}-{sr.name}-B{b}" for d, sr, b in CASES]


@pytest.mark.parametrize(("design", "sr", "batch"), CASES, ids=IDS)
def test_rows_equal_solve_and_their_twins(design, sr, batch):
    problems, rows = _batch(design, sr, batch)
    for problem, row in zip(problems, rows):
        alone = solve(problem, backend="fast")
        twin = _twin(row)
        assert row == alone
        assert row == twin and twin == row
        assert row.validated and row.validation == "certificate"
        # Written in field order, the row dicts stay key-shared.
        for built, reference in ((row, twin), (row.detail, twin.detail)):
            assert sys.getsizeof(vars(built)) <= sys.getsizeof(vars(reference))


@pytest.mark.parametrize("design", DESIGNS)
def test_rows_survive_pickle_and_replace(design):
    problems, rows = _batch(design, MIN_PLUS, 17)
    assert pickle.loads(pickle.dumps(rows)) == rows
    for row in rows:
        assert dataclasses.replace(row) == row
        assert dataclasses.replace(row.detail) == row.detail
        # ``replace`` goes through the constructor, so ``__post_init__`` runs.
        with pytest.raises(ValidationError, match="the certificate rejects"):
            dataclasses.replace(row, validated=False)


@pytest.mark.parametrize("design", DESIGNS)
def test_row_arrays_are_read_only_and_own_their_memory(design):
    _, rows = _batch(design, MIN_PLUS, 17)
    for row in rows:
        arrays = (
            [row.detail.final_stage_values] if design == "feedback"
            else [row.solution, row.detail.value]
        )
        for array in arrays:
            assert not array.flags.writeable
            assert array.base is None
            with pytest.raises(ValueError):
                array[...] = 0


def _reject(monkeypatch, design, rows):
    """Patch the design's certificate to reject ``rows`` of every stack."""
    module, name = (
        (feedback_array, "certify_forward") if design == "feedback"
        else (pipelined_array, "certify_backward")
    )
    real = getattr(module, name)

    def rejecting(*args):
        verdicts = np.array(real(*args), dtype=bool)
        flat = verdicts.reshape(-1)
        flat[rows] = False
        return verdicts

    monkeypatch.setattr(module, name, rejecting)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("first", [0, 5, 16])
def test_a_rejected_row_raises_at_the_first_in_batch_order(monkeypatch, design, first):
    problems, rows = _batch(design, MIN_PLUS, 17)
    # A later rejected row with another optimum, so the message tells them apart.
    later = [k for k in range(first + 1, 17) if rows[k].optimum != rows[first].optimum]
    _reject(monkeypatch, design, later[:2] + [first])
    message = f"the certificate rejects architecture result {rows[first].optimum}"
    with pytest.raises(ValidationError) as err:
        solve_batch(problems, backend="fast")
    assert str(err.value) == message
    # A single fast solve() is a column of one and raises the same way.
    monkeypatch.undo()
    _reject(monkeypatch, design, [0])
    with pytest.raises(ValidationError) as err:
        solve(problems[first], backend="fast")
    assert str(err.value) == message
