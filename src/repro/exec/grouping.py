"""Partition a batch of problems into same-kernel, same-shape groups.

Every serial problem is classified and put on its route by the same
function ``solve()`` uses (:func:`repro.core.solver._route`); problems
routed to the same fast systolic kernel with the same shape are grouped
so one stacked pass of that kernel (:mod:`repro.exec.vectorized`)
carries the whole group.  Everything else lands in one scalar group, in
batch order, that loops ``solve()`` (which classifies it there).

A recommendation and a route depend only on a problem's type, stage
sizes and semiring, so each is computed once per such *signature* in a
call, not once per problem: a batch of same-shape rows costs one
``recommend()``, and the vectorized group carries that one
:class:`~repro.core.classification.Recommendation` for all its rows.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.classification import Recommendation, recommend
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
    #: The Table-1 row every member shares; ``None`` for the scalar group,
    #: whose members ``solve()`` classifies one by one.
    recommendation: Recommendation | None = None

    def __len__(self) -> int:
        return len(self.indices)


_SCALAR = ("scalar",)
_SERIAL = (NodeValueProblem, MultistageGraph)


def _plan(problem: object, rec: Recommendation, prefer: str | None) -> tuple[Any, ...]:
    """The group key of one problem on ``solve()``'s route; its first item is the kind."""
    if isinstance(problem, _SERIAL):
        route = _route(problem, rec, prefer)
        if route == "feedback":
            return ("feedback", problem.num_stages, problem.stage_sizes[0],
                    problem.semiring.name)
        if route == "pipelined":
            return ("pipelined", problem.stage_sizes, problem.semiring.name)
    return _SCALAR


def group_problems(
    problems: list[Any],
    indices: list[int],
    *,
    prefer: str | None,
    vectorize: bool,
) -> list[Group]:
    """Partition ``problems`` (at batch positions ``indices``) into groups.

    With ``vectorize=False`` (side-effectful or cycle-accurate batches)
    every problem joins the one scalar group, in batch order — the
    kernels below are fast-path only.
    """
    if not vectorize:
        if not problems:
            return []
        return [Group("scalar", _SCALAR, list(indices), list(problems))]
    # Signature -> (group key, recommendation).  Every input of
    # ``recommend`` and ``_route`` is a function of the signature.
    plans: dict[tuple[Any, ...], tuple[tuple[Any, ...], Recommendation | None]] = {}
    groups: dict[tuple[Any, ...], Group] = {}
    for pos, problem in zip(indices, problems):
        key, rec = _SCALAR, None
        if isinstance(problem, _SERIAL):
            signature = (type(problem), problem.stage_sizes, problem.semiring.name)
            plan = plans.get(signature)
            if plan is None:
                rec = recommend(problem)
                key = _plan(problem, rec, prefer)
                plan = plans[signature] = (key, None if key is _SCALAR else rec)
            key, rec = plan
        group = groups.get(key)
        if group is None:
            group = groups[key] = Group(key[0], key, [], [], rec)
        group.indices.append(pos)
        group.problems.append(problem)
    return list(groups.values())
