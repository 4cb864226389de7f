"""Canonical problem digests for the solve cache.

A digest is a SHA-256 over a canonical byte serialization of everything
that determines a problem's answer: the problem kind, the semiring, the
shape, and the cost data, hashed one cost block at a time (a block is
a maximal run of same-shape layers, so the blocks follow from the
content alone).  Two problems with equal digests are interchangeable as
far as :func:`repro.core.solver.solve` is concerned.

Node-value problems are digested through their *materialized* cost
matrices — the paper's own eq.-(4) equivalence between the node-value
and edge-cost forms — because the ``edge_cost`` callable itself has no
canonical byte form.  A node-value problem owns read-only copies of its
values and builds its cost blocks once, and an edge-cost graph owns
read-only blocks of its costs, so neither digest can go stale: each is
computed once per problem and memoized on it.  Problems with no
canonical serialization (general nonserial objectives, whose terms are
arbitrary callables) digest to ``None`` and are simply never cached.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.problem import MatrixChainProblem
from ..graphs import MultistageGraph, NodeValueProblem

__all__ = ["problem_digest", "cache_key"]


#: Attribute under which a node-value problem's or graph's digest is memoized.
_MEMO = "_problem_digest"


def _update_array(h: "hashlib._Hash", a: np.ndarray) -> None:
    a = np.ascontiguousarray(a)
    h.update(a.dtype.str.encode())
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def _node_value_digest(problem: NodeValueProblem) -> str:
    h = hashlib.sha256()
    h.update(b"node_value\x00")
    h.update(problem.semiring.name.encode())
    for v in problem.values:
        _update_array(h, v)
    # Eq.-4 equivalence: the materialized edge costs are the canonical
    # content of the stage cost function.
    for block in problem.cost_blocks:
        _update_array(h, block)
    return h.hexdigest()


def _graph_digest(graph: MultistageGraph) -> str:
    h = hashlib.sha256()
    h.update(b"multistage_graph\x00")
    h.update(graph.semiring.name.encode())
    for block in graph.cost_blocks:
        _update_array(h, block)
    return h.hexdigest()


def problem_digest(problem: object) -> str | None:
    """SHA-256 hex digest of a problem's canonical form, or ``None``.

    ``None`` means the problem has no canonical byte serialization and
    must bypass the cache.
    """
    if isinstance(problem, (NodeValueProblem, MultistageGraph)):
        memo: str | None = vars(problem).get(_MEMO)
        if memo is None:
            # The frozen dataclass refuses attribute assignment; the memo
            # goes straight into its ``__dict__``, as ``cached_property`` does.
            memo = vars(problem)[_MEMO] = (
                _node_value_digest(problem)
                if isinstance(problem, NodeValueProblem)
                else _graph_digest(problem)
            )
        return memo
    if isinstance(problem, MatrixChainProblem):
        h = hashlib.sha256()
        h.update(b"matrix_chain\x00")
        h.update(repr(problem.dims).encode())
        return h.hexdigest()
    return None


def cache_key(
    problem: object, *, backend: str, prefer: str | None
) -> tuple[str, str, str] | None:
    """The cache key for one ``solve()`` configuration, or ``None``.

    The key folds in the backend and architecture preference: the same
    problem solved on a different architecture may legitimately return a
    different (equal-cost) solution object, so those results are cached
    separately.
    """
    digest = problem_digest(problem)
    if digest is None:
        return None
    return (digest, backend, prefer or "")
