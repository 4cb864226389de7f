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
  :func:`repro.semiring.batched_matvec` with the raw ⊗ of checked costs.

``solve()`` runs the same kernel body on 2-D operands, so a batch row
is bit-identical to a looped ``solve(backend="fast")`` — optimum, traced
path and closed-form counters included (the cross-backend fuzz suite
asserts exact equality).  This module holds only the plumbing around
the kernels: a group is prepared once into a *payload* (a plain dict of
stacked ``ndarray``s plus the semiring), the payload runs through its
kernel, and each batch row becomes one report.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.solver import SolveReport
from ..graphs import MultistageGraph, NodeValueProblem, add_virtual_terminals
from ..graphs.multistage import GraphError
from ..systolic.feedback_array import _fast_kernel as feedback_kernel
from ..systolic.pipelined_array import _fast_kernel as pipelined_kernel
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


def _prepare_feedback(group: Group) -> dict[str, Any]:
    problems: list[NodeValueProblem] = group.problems
    first = problems[0]
    n_stages = first.num_stages
    m = first.stage_sizes[0]
    layers = [
        np.stack([p.cost_matrix(k) for p in problems])
        for k in range(n_stages - 1)
    ]
    return {
        "kind": "feedback",
        "semiring": first.semiring,
        "n_stages": n_stages,
        "m": m,
        "layers": layers,  # list of (B, m, m)
        "recommendations": list(group.recommendations),
    }


def _prepare_pipelined(group: Group) -> dict[str, Any]:
    problems: list[MultistageGraph] = group.problems
    first = problems[0]
    from ..core.solver import _graph_fits_linear_array

    framed = not _graph_fits_linear_array(first)
    targets = [add_virtual_terminals(g) if framed else g for g in problems]
    num_layers = targets[0].num_layers
    mats = [
        np.stack([np.asarray(t.costs[k]) for t in targets])
        for k in range(num_layers)
    ]
    return {
        "kind": "pipelined",
        "semiring": first.semiring,
        "mats": mats,  # list of (B, rows, cols); last is the (B, m, 1) sink column
        "recommendations": list(group.recommendations),
    }


# ----------------------------------------------------------------------
# Payload execution
# ----------------------------------------------------------------------
def run_payload(payload: dict[str, Any]) -> list[SolveReport]:
    """Execute one payload, returning per-instance solve reports in order."""
    kind = payload["kind"]
    if kind == "feedback":
        return _run_feedback(payload)
    if kind == "pipelined":
        return _run_pipelined(payload)
    raise ValueError(f"unknown payload kind {kind!r}")


def _run_feedback(payload: dict[str, Any]) -> list[SolveReport]:
    sr = payload["semiring"]
    if sr.add_argreduce is None:  # pragma: no cover - all stock semirings have one
        raise GraphError(f"semiring {sr.name!r} has no arg-reduction")
    results = feedback_kernel(sr, [sr.asarray(a) for a in payload["layers"]])
    return [
        SolveReport(
            dp_class=rec.dp_class,
            method="fig5-feedback-array",
            optimum=res.optimum,
            reference=res.optimum,
            validated=True,
            solution=res.path,
            detail=res,
            recommendation=rec,
        )
        for res, rec in zip(results, payload["recommendations"])
    ]


def _run_pipelined(payload: dict[str, Any]) -> list[SolveReport]:
    sr = payload["semiring"]
    mats = [sr.asarray(a) for a in payload["mats"]]
    # As ``_normalize_string``: the last operand is the sink column.
    results = pipelined_kernel(sr, mats[:-1], mats[-1][..., 0])
    reports = []
    for res, rec in zip(results, payload["recommendations"]):
        optimum = float(sr.add_reduce(np.asarray(res.value), axis=None))
        reports.append(
            SolveReport(
                dp_class=rec.dp_class,
                method="fig3-pipelined-array",
                optimum=optimum,
                reference=optimum,
                validated=True,
                solution=res.value,
                detail=res,
                recommendation=rec,
            )
        )
    return reports
