"""Dataflow task graphs for matrix-string evaluation.

Builders turning the paper's two evaluation trees into
:class:`~repro.dataflow.engine.Task` graphs:

* :func:`tasks_from_expression` — the *optimal-order* tree from the
  secondary optimization problem (eq. 6): rectangular multiplies with
  per-task durations from the mesh array's cycle model, executed
  asynchronously exactly as the paper prescribes once "the optimal
  order is found".
* :func:`tasks_balanced_tree` — the uniform divide-and-conquer tree of
  Section 4 (all operands square), whose dataflow makespan on K
  processors reproduces the eq.-(29) rounds when durations are uniform.
"""

from __future__ import annotations

from typing import Sequence

from ..semiring import MultiplyNode
from ..systolic.mesh_array import mesh_cycles
from .engine import Task

__all__ = ["tasks_from_expression", "tasks_balanced_tree"]


def tasks_from_expression(
    dims: Sequence[int], expression, *, cycle_model=mesh_cycles
) -> tuple[list[Task], str]:
    """Task graph of an explicit parenthesization.

    Returns ``(tasks, root name)``.  Each internal node becomes a task
    named ``"m<i>_<j>"`` (the subchain it produces) whose duration is
    ``cycle_model(rows, inner, cols)`` — by default the mesh array's
    rectangular cycle count — depending on its children.  Leaves cost
    nothing (operands are resident).
    """
    dims = tuple(int(d) for d in dims)
    tasks: list[Task] = []

    def walk(expr) -> tuple[str | None, int, int]:
        """Returns (task name or None for a leaf, i, j) covering M_i..M_j."""
        if isinstance(expr, int):
            return None, expr, expr
        left, right = expr
        ln, li, lj = walk(left)
        rn, ri, rj = walk(right)
        if ri != lj + 1:
            raise ValueError(f"non-contiguous parenthesization at {expr}")
        rows, inner, cols = dims[li - 1], dims[lj], dims[rj]
        deps = tuple(n for n in (ln, rn) if n is not None)
        name = f"m{li}_{rj}"
        tasks.append(
            Task(name=name, duration=float(cycle_model(rows, inner, cols)), deps=deps)
        )
        return name, li, rj

    root, i, j = walk(expression)
    if root is None:
        # Single matrix: nothing to compute.
        root = f"m{i}_{j}"
        tasks.append(Task(name=root, duration=0.0))
    return tasks, root


def tasks_balanced_tree(
    n: int, *, duration: float = 1.0
) -> tuple[list[Task], str]:
    """The Section-4 balanced binary AND-tree as a uniform task graph.

    ``n`` leaves (resident matrices), ``n − 1`` internal multiply tasks
    of equal ``duration`` — the setting of eq. (29).  The tree is
    :meth:`MultiplyNode.balanced(0, n) <repro.semiring.MultiplyNode.balanced>`,
    the one :func:`~repro.semiring.chain_product_tree` evaluates; each
    internal node covering leaves ``lo … hi − 1`` becomes task
    ``"t<lo>_<hi>"``, emitted children first.  Note the adaptive round
    scheduler of :func:`repro.dnc.rounds_only` re-pairs segments each
    round (choosing its own tree), so it *lower-bounds* any schedule of
    this fixed tree; the fixed balanced tree matches it at K = 1 and
    K ≥ n/2 and loses slightly in between — a reproduction observation
    the tests pin down.
    """
    tasks: list[Task] = []

    def build(node: MultiplyNode) -> str | None:
        if node.is_leaf:
            return None
        assert node.left is not None and node.right is not None
        left = build(node.left)
        right = build(node.right)
        name = f"t{node.lo}_{node.hi}"
        deps = tuple(d for d in (left, right) if d is not None)
        tasks.append(Task(name=name, duration=duration, deps=deps))
        return name

    root = build(MultiplyNode.balanced(0, n))
    if root is None:
        root = "t0_1"
        tasks.append(Task(name=root, duration=0.0))
    return tasks, root
