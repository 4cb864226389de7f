"""Stacked multi-instance execution for the batch engine.

Each design has one fast kernel, written over ``...`` leading axes in
its own module, and this module feeds it a stack of ``B`` same-shape
instances instead of one:

* **Fig. 5 feedback** — the stage recurrence of
  :mod:`repro.systolic.feedback_array`: ``cand = mul(h[..., :, None], C)``
  reduced (and arg-reduced) along ``axis=-2``, per stage.  NumPy's
  arg-reductions keep the first-occurrence tie-break per batch row, so
  traced paths match too.
* **Fig. 3 pipelined** — the right-to-left mat-vec chain of
  :mod:`repro.systolic.pipelined_array`: the broadcast-then-reduce of
  :func:`repro.semiring.matvec` over the leading axes, with the raw ⊗ of
  checked costs.

``solve()`` runs the same kernel body on one problem's cost blocks,
and a batch on the members' blocks stacked stage-major, so a batch row
is bit-identical to a looped ``solve(backend="fast")`` — optimum, traced
path and closed-form counters included (the cross-backend fuzz suite
asserts exact equality).  This module holds only the plumbing around
the kernels: a group is prepared once into a *payload* (a plain dict of
stacked ``ndarray``s plus the semiring), the payload runs through its
kernel, and each batch row becomes one report.  Framing, method names
and answers are ``solve()``'s own (:mod:`repro.core.solver`).  Each
kernel certifies its own stacked tables (:mod:`repro.dp.certificate`),
so every row is validated by the same check as a
``solve(backend="fast")`` call, row by row: ``validation`` is
``"certificate"`` and ``reference`` the certified optimum.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.solver import _ARRAYS, SolveReport, _answers, _certified, _frame
from ..dp.certificate import require_argreduce
from ..graphs import MultistageGraph, NodeValueProblem
from ..systolic.feedback_array import _fast_kernel as feedback_kernel
from ..systolic.pipelined_array import _fast_kernel as pipelined_kernel
from ..systolic.pipelined_array import _operands
from .grouping import Group

__all__ = ["prepare_payload", "run_payload"]


# ----------------------------------------------------------------------
# Payload preparation
# ----------------------------------------------------------------------
def prepare_payload(group: Group) -> dict[str, Any]:
    """The execution payload of one vectorizable group."""
    if group.kind == "feedback":
        return _prepare_feedback(group)
    if group.kind == "pipelined":
        return _prepare_pipelined(group)
    raise ValueError(f"group kind {group.kind!r} has no vectorized payload")


def _stack(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The members' ``(n, rows, cols)`` blocks as one stage-major
    ``(n, B, rows, cols)`` array, so each stage's ``(B, rows, cols)``
    slice is contiguous for the kernel: ``np.stack(blocks, axis=1)``,
    as one concatenation along the row axis, without a view per block."""
    n, rows, cols = blocks[0].shape
    return np.concatenate(blocks, axis=1).reshape(n, len(blocks), rows, cols)


def _prepare_feedback(group: Group) -> dict[str, Any]:
    problems: list[NodeValueProblem] = group.problems
    first = problems[0]
    # A uniform problem has one cost block.
    layers = _stack([p.cost_blocks[0] for p in problems])
    return {
        "kind": "feedback",
        "semiring": first.semiring,
        "layers": layers,  # (N-1, B, m, m)
        "recommendation": group.recommendation,
        "problem": first,
    }


def _prepare_pipelined(group: Group) -> dict[str, Any]:
    problems: list[MultistageGraph] = group.problems
    first = problems[0]
    targets = [_frame(g) for g in problems]
    # Members share their stage sizes, so their cost blocks line up.
    mats = [_stack(run) for run in zip(*(t.cost_blocks for t in targets))]
    return {
        "kind": "pipelined",
        "semiring": first.semiring,
        "mats": mats,  # (n, B, rows, cols) per block; the last layer is the sink column
        "recommendation": group.recommendation,
        "problem": first,
    }


# ----------------------------------------------------------------------
# Payload execution
# ----------------------------------------------------------------------
def run_payload(payload: dict[str, Any]) -> list[SolveReport]:
    """Execute one payload, returning per-instance solve reports in order.

    Each row is named for the group's array and answered as
    ``solve()`` answers that array's run; any member stands for the
    group, since all share the route.
    """
    kind, sr = payload["kind"], payload["semiring"]
    require_argreduce(sr)
    if kind == "feedback":
        results = feedback_kernel(sr, sr.asarray(payload["layers"]))
    elif kind == "pipelined":
        blocks = [sr.asarray(a) for a in payload["mats"]]
        # As ``run_graph``: the last layer is the sink column.
        results = pipelined_kernel(sr, _operands(blocks), blocks[-1][-1, ..., 0])
    else:
        raise ValueError(f"unknown payload kind {kind!r}")
    optima, solutions = _answers(payload["problem"], results)
    return _certified(
        payload["recommendation"], _ARRAYS[kind][1], optima, solutions, results,
        [res.certified for res in results],
    )
