"""Partition a batch of problems into same-kernel, same-shape groups.

Every problem is classified and put on its route by the same function
``solve()`` uses (:func:`repro.core.solver._route`); problems routed to
the same fast systolic kernel with the same shape are grouped so one
stacked pass of that kernel (:mod:`repro.exec.vectorized`) carries the
whole group.  Everything else lands in scalar groups that loop
``solve()`` — partitioned by whether the problems are picklable, since
only picklable scalar groups can be shipped to a worker process.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.classification import Recommendation, recommend
from ..core.problem import MatrixChainProblem
from ..core.solver import _route
from ..graphs import MultistageGraph, NodeValueProblem

__all__ = ["Group", "group_problems", "VECTORIZED_KINDS"]

#: Group kinds executed by a stacked vectorized kernel.
VECTORIZED_KINDS = ("feedback", "pipelined")


@dataclasses.dataclass
class Group:
    """One executable unit of a batch: a kernel kind plus its members."""

    kind: str  # "feedback" | "pipelined" | "scalar"
    key: tuple[Any, ...]
    indices: list[int]  # positions in the original batch
    problems: list[Any]
    recommendations: list[Recommendation]
    picklable: bool  # safe to ship to a worker process

    def __len__(self) -> int:
        return len(self.indices)


def _plan(problem: object, rec: Recommendation, prefer: str | None) -> tuple[str, tuple[Any, ...], bool]:
    """(kind, group key, picklable) for one problem, on ``solve()``'s route."""
    if isinstance(problem, (NodeValueProblem, MultistageGraph)):
        route = _route(problem, rec, prefer)
        if route == "feedback":
            key = ("feedback", problem.num_stages, problem.stage_sizes[0],
                   problem.semiring.name)
            return "feedback", key, True
        if route == "pipelined":
            key = ("pipelined", problem.stage_sizes, problem.semiring.name)
            return "pipelined", key, True
        # ``edge_cost`` is frequently a closure, so node-value problems
        # are conservatively treated as unpicklable; their *vectorized*
        # payloads (materialized cost matrices) still ship fine.
        picklable = isinstance(problem, MultistageGraph)
        return "scalar", ("scalar", picklable), picklable
    if isinstance(problem, MatrixChainProblem):
        return "scalar", ("scalar", True), True
    return "scalar", ("scalar", False), False


def group_problems(
    problems: list[Any],
    indices: list[int],
    *,
    prefer: str | None,
    vectorize: bool,
) -> list[Group]:
    """Partition ``problems`` (at batch positions ``indices``) into groups.

    With ``vectorize=False`` (side-effectful or cycle-accurate batches)
    every problem joins a scalar group — the kernels below are fast-path
    only — but scalar grouping by picklability still applies, so rtl
    batches can be sharded across workers.
    """
    groups: dict[tuple[Any, ...], Group] = {}
    for pos, problem in zip(indices, problems):
        rec = recommend(problem)
        kind, key, picklable = _plan(problem, rec, prefer)
        if not vectorize and kind in VECTORIZED_KINDS:
            kind, key = "scalar", ("scalar", picklable)
        group = groups.get(key)
        if group is None:
            group = Group(
                kind=kind, key=key, indices=[], problems=[],
                recommendations=[], picklable=picklable,
            )
            groups[key] = group
        group.indices.append(pos)
        group.problems.append(problem)
        group.recommendations.append(rec)
    return list(groups.values())
