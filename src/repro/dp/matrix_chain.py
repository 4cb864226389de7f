"""Optimal matrix-chain parenthesization (paper eq. 6) — polyadic-nonserial DP.

The "secondary optimization problem" of Section 4/6.2: given matrices
``M₁ × … × M_N`` with ``M_i`` of shape ``r_{i-1} × r_i``, find the
multiplication order minimizing scalar-multiplication count:

    m[i, j] = 0                                                if i == j
    m[i, j] = min_{i ≤ k < j} (m[i, k] + m[k+1, j] + r_{i-1}·r_k·r_j)

This module is the sequential oracle for the Section 6.2 systolic /
broadcast parenthesization arrays, and supplies order objects consumed by
the divide-and-conquer executor.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Sequence

import numpy as np

__all__ = [
    "ChainOrder",
    "solve_matrix_chain",
    "brute_force_matrix_chain",
    "multiply_in_order",
    "count_scalar_multiplications",
    "enumerate_parenthesizations",
    "expression_from_splits",
]


@dataclasses.dataclass(frozen=True)
class ChainOrder:
    """An evaluated parenthesization of a matrix chain.

    ``expression`` is a nested tuple of 1-based matrix indices, e.g.
    ``((1, 2), (3, 4))`` for ``(M₁M₂)(M₃M₄)``.  ``cost`` is its scalar
    multiplication count for the given dimension vector.
    """

    dims: tuple[int, ...]  # r_0, r_1, …, r_N
    expression: tuple | int
    cost: int

    @property
    def num_matrices(self) -> int:
        return len(self.dims) - 1


#: Stack marker of the explicit-stack tree walks below: join the two
#: subtrees finished last.
_JOIN = object()


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    raw = tuple(dims)
    try:
        dims = tuple(int(d) for d in raw)
    except (TypeError, ValueError, OverflowError):
        dims = ()
    if dims != raw:  # NumPy integers and integral floats compare equal
        raise ValueError(f"dimensions must be integers, got {raw}")
    if len(dims) < 2:
        raise ValueError("need at least one matrix (two dimensions)")
    if any(d <= 0 for d in dims):
        raise ValueError(f"all dimensions must be positive, got {dims}")
    # Every order costs at most (N - 1)·max(r)³, so the int64 tables are exact.
    if (len(dims) - 2) * max(dims) ** 3 >= 2**63:
        raise ValueError(f"chain costs overflow int64 for dimensions up to {max(dims)}")
    return dims


def solve_matrix_chain(dims: Sequence[int]) -> ChainOrder:
    """Dynamic-programming solution of eq. (6).

    ``dims`` is ``(r₀, r₁, …, r_N)``; matrix ``M_i`` (1-based) is
    ``r_{i-1} × r_i``.  Runs the classic ``O(N³)`` diagonal-by-diagonal
    recursion; the cost table's diagonal sweep is vectorized with NumPy
    so the inner minimization is one reduction per cell row.
    """
    dims = _check_dims(dims)
    n = len(dims) - 1
    r = np.asarray(dims, dtype=np.int64)
    m = np.zeros((n + 1, n + 1), dtype=np.int64)  # 1-based [i, j]
    split = np.zeros((n + 1, n + 1), dtype=np.int64)
    for span in range(2, n + 1):  # chain length
        for i in range(1, n - span + 2):
            j = i + span - 1
            ks = np.arange(i, j)
            costs = m[i, ks] + m[ks + 1, j] + r[i - 1] * r[ks] * r[j]
            best = int(np.argmin(costs))
            m[i, j] = costs[best]
            split[i, j] = ks[best]

    return ChainOrder(
        dims=dims, expression=expression_from_splits(split, n), cost=int(m[1, n])
    )


def expression_from_splits(splits: Any, n: int) -> tuple | int:
    """The nested-tuple expression of ``M_1 … M_n`` from a split table.

    ``splits[i, j]`` is the matrix ``k`` after which ``M_i … M_j`` splits
    (``i ≤ k < j``); a 2-D array and a dict keyed by ``(i, j)`` both
    index that way.  Built with an explicit stack, so a left- or
    right-deep optimum of any length does not hit Python's recursion
    limit.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    built: list[tuple | int] = []
    todo: list[Any] = [(1, n)]  # ranges still to build, and _JOIN marks
    while todo:
        item = todo.pop()
        if item is _JOIN:
            right = built.pop()
            built.append((built.pop(), right))
            continue
        i, j = item
        if i == j:
            built.append(i)
            continue
        k = int(splits[i, j])
        if not i <= k < j:
            raise ValueError(f"split {k} of ({i}, {j}) is outside [{i}, {j})")
        todo += (_JOIN, (k + 1, j), (i, k))
    return built[0]


def enumerate_parenthesizations(n: int):
    """Yield every full parenthesization of ``n`` matrices (Catalan many).

    1-based nested tuples; exponential — test oracle only.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def gen(i: int, j: int):
        if i == j:
            yield i
            return
        for k in range(i, j):
            for left in gen(i, k):
                for right in gen(k + 1, j):
                    yield (left, right)

    yield from gen(1, n)


def count_scalar_multiplications(
    dims: Sequence[int], expression: tuple | int
) -> tuple[int, tuple[int, int]]:
    """Cost of an explicit parenthesization; returns (cost, result shape).

    The result shape is ``(r_{i-1}, r_j)`` for the covered range
    ``i … j``; used to validate that DP costs match actually-executed
    multiplication counts.
    """
    dims = _check_dims(dims)
    # Post-order walk with an explicit stack (deep chains stay in bounds);
    # ``walked`` holds (cost, first_index, last_index) per finished subtree.
    walked: list[tuple[int, int, int]] = []
    todo: list[Any] = [expression]
    while todo:
        expr = todo.pop()
        if expr is _JOIN:
            cr, ri, rj = walked.pop()
            cl, li, lj = walked.pop()
            if ri != lj + 1:
                raise ValueError(
                    f"non-contiguous parenthesization at ({li}..{lj}, {ri}..{rj})"
                )
            walked.append((cl + cr + dims[li - 1] * dims[lj] * dims[rj], li, rj))
        elif isinstance(expr, int):
            if not 1 <= expr <= len(dims) - 1:
                raise ValueError(f"matrix index {expr} out of range")
            walked.append((0, expr, expr))
        else:
            left, right = expr
            todo += (_JOIN, right, left)
    cost, i, j = walked[0]
    return cost, (dims[i - 1], dims[j])


def brute_force_matrix_chain(dims: Sequence[int]) -> ChainOrder:
    """Exhaustive minimum over all parenthesizations (test oracle)."""
    dims = _check_dims(dims)
    n = len(dims) - 1
    best_expr: tuple | int | None = None
    best_cost = None
    for expr in enumerate_parenthesizations(n):
        cost, _ = count_scalar_multiplications(dims, expr)
        if best_cost is None or cost < best_cost:
            best_cost, best_expr = cost, expr
    assert best_expr is not None and best_cost is not None
    return ChainOrder(dims=dims, expression=best_expr, cost=int(best_cost))


def multiply_in_order(
    matrices: Sequence[np.ndarray], expression: tuple | int
) -> tuple[np.ndarray, int]:
    """Execute a parenthesization on real matrices.

    Returns the product and the scalar-multiplication count actually
    incurred (``rows × inner × cols`` summed over every 2-operand
    multiply).  Used by the examples to demonstrate that the DP order
    beats naive left-to-right evaluation.
    """
    mats = [np.asarray(m) for m in matrices]
    for a, b in itertools.pairwise(mats):
        if a.shape[1] != b.shape[0]:
            raise ValueError("matrix chain has incompatible shapes")

    def walk(expr) -> tuple[np.ndarray, int]:
        if isinstance(expr, int):
            return mats[expr - 1], 0
        left, right = expr
        a, ca = walk(left)
        b, cb = walk(right)
        cost = ca + cb + a.shape[0] * a.shape[1] * b.shape[1]
        return a @ b, cost

    return walk(expression)
