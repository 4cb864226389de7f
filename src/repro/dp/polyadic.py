"""Polyadic-serial DP: all-pairs stage costs and divide-and-conquer (eq. 3, 15).

The polyadic formulation ``f₃(i, j) = min_k [f₃(i, k) + f₃(k, j)]``
generalizes the monadic recursion to optimal paths between *any* two
stages.  In matrix form (paper eq. 15) the cost matrix between stages
``i`` and ``j`` factors through any intermediate stage ``k``:

    f₃(V_i, V_j) = f₃(V_i, V_k) · f₃(V_k, V_j)      (semiring product)

which lets the matrix string be evaluated as a balanced binary tree — the
divide-and-conquer algorithm whose parallel schedule Section 4 analyzes.
This module provides the functional model; :mod:`repro.dnc` provides the
schedule/timing model.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .._readonly import fields_equal, read_only, restore_read_only
from ..graphs import MultistageGraph
from ..semiring import MultiplyNode, chain_product_tree

__all__ = ["MultiplyNode", "PolyadicSolution", "stage_cost_matrix", "solve_polyadic"]


@dataclasses.dataclass(frozen=True)
class PolyadicSolution:
    """Result of the divide-and-conquer evaluation of a multistage graph;
    ``cost_matrix`` is read-only."""

    cost_matrix: np.ndarray  # optimal costs, first stage x last stage
    optimum: float
    tree: MultiplyNode
    num_multiplications: int

    __eq__ = fields_equal
    __setstate__ = restore_read_only

    def __post_init__(self) -> None:
        read_only(self.cost_matrix)


def stage_cost_matrix(graph: MultistageGraph, i: int, j: int) -> np.ndarray:
    """Optimal-cost matrix between stage ``i`` and stage ``j > i`` (eq. 15).

    Entry ``(a, b)`` is the optimal cost from vertex ``a`` of stage ``i``
    to vertex ``b`` of stage ``j``, evaluated by the balanced
    divide-and-conquer product (:func:`~repro.semiring.chain_product_tree`
    over layers ``i … j − 1``, whose splits are those of
    ``MultiplyNode.balanced(i, j)``: ``(lo + hi) // 2`` moves with ``lo``).
    """
    if not 0 <= i < j < graph.num_stages:
        raise ValueError(f"need 0 <= i < j < {graph.num_stages}, got ({i}, {j})")
    return chain_product_tree(graph.semiring, graph.costs[i:j])


def solve_polyadic(graph: MultistageGraph) -> PolyadicSolution:
    """Solve the whole graph by divide-and-conquer (paper Section 4).

    Produces the full first-stage × last-stage cost matrix, the AND-tree
    that structured the evaluation, and the multiplication count
    (``number of layers − 1`` internal nodes — each combining step is one
    semiring matmul).  The optimum equals the monadic solvers' optimum on
    the same graph; tests assert this.
    """
    tree = MultiplyNode.balanced(0, graph.num_layers)
    cost = stage_cost_matrix(graph, 0, graph.num_stages - 1)
    sr = graph.semiring
    optimum = float(sr.add_reduce(cost, axis=None))
    return PolyadicSolution(
        cost_matrix=cost,
        optimum=optimum,
        tree=tree,
        num_multiplications=tree.count_internal(),
    )
