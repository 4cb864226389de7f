"""Vectorized matrix algebra over an arbitrary semiring.

These routines are the sequential reference implementation of the paper's
matrix-string formulation of monadic-serial DP (Section 3.1, eq. 8): the
systolic-array simulators are validated cell-for-cell against
:func:`matmul` / :func:`matvec` / :func:`chain_product`.

Implementation notes (per the HPC guides)
-----------------------------------------
* ``matmul`` is a single broadcast-then-reduce: an ``(n, k, m)`` temporary
  ``mul(A[:, :, None], B[None, :, :])`` reduced with ``add_reduce`` along
  axis 1.  No Python-level loops over matrix elements.
* For large operands the temporary is blocked along the first axis to
  bound peak memory (``block_rows``); blocking keeps the reduction
  cache-friendly without copying inputs.
* Decision extraction (``matmul_with_arg``) reuses the same temporary to
  return the winning ``k`` per output cell, which the DP tracebacks need.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .base import Semiring, SemiringError

__all__ = [
    "matmul",
    "matmul_with_arg",
    "matvec",
    "vecmat",
    "chain_product",
    "chain_product_tree",
    "MultiplyNode",
    "batched_matmul",
    "batched_chain_product",
    "matrix_power",
    "closure",
]

#: Rows per block in the broadcast-reduce matmul.  512 rows of a 512-wide
#: float64 temporary is ~2 MB per block — well inside L2/L3 on anything
#: this library will run on.
_DEFAULT_BLOCK_ROWS = 512


def _check_2d(name: str, a: np.ndarray) -> None:
    if a.ndim != 2:
        raise SemiringError(f"{name} must be 2-D, got shape {a.shape}")


def matmul(
    sr: Semiring,
    a: np.ndarray,
    b: np.ndarray,
    *,
    block_rows: int = _DEFAULT_BLOCK_ROWS,
) -> np.ndarray:
    """Semiring matrix product ``C[i, j] = ⊕_k  A[i, k] ⊗ B[k, j]``.

    For :data:`~repro.semiring.standard.MIN_PLUS` this is exactly the
    "matrix multiplication" of the paper's eq. (8):
    ``C[i, j] = min_k (A[i, k] + B[k, j])``.
    """
    a = sr.asarray(a)
    b = sr.asarray(b)
    _check_2d("a", a)
    _check_2d("b", b)
    n, k = a.shape
    k2, m = b.shape
    if k != k2:
        raise SemiringError(f"inner dimensions differ: {a.shape} x {b.shape}")
    out = np.empty((n, m), dtype=sr.dtype)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        # (rows, k, m) broadcast temporary, reduced over the shared axis.
        prod = sr.mul(a[lo:hi, :, None], b[None, :, :])
        out[lo:hi] = sr.add_reduce(prod, axis=1)
    return out


def matmul_with_arg(
    sr: Semiring, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`matmul` but also return the winning inner index.

    Returns ``(C, arg)`` where ``arg[i, j]`` is the ``k`` achieving the
    ⊕-reduction for cell ``(i, j)`` (ties broken toward the smallest
    ``k``, matching NumPy's arg-reduction convention).  Only available for
    semirings that define ``add_argreduce``.
    """
    if sr.add_argreduce is None:
        raise SemiringError(f"semiring {sr.name!r} has no arg-reduction")
    a = sr.asarray(a)
    b = sr.asarray(b)
    _check_2d("a", a)
    _check_2d("b", b)
    if a.shape[1] != b.shape[0]:
        raise SemiringError(f"inner dimensions differ: {a.shape} x {b.shape}")
    prod = sr.mul(a[:, :, None], b[None, :, :])
    arg = sr.add_argreduce(prod, axis=1)
    val = np.take_along_axis(prod, arg[:, None, :], axis=1)[:, 0, :]
    return val, arg


def matvec(sr: Semiring, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Semiring matrix-vector product ``y[i] = ⊕_k A[i, k] ⊗ x[k]``."""
    a = sr.asarray(a)
    x = sr.asarray(x)
    _check_2d("a", a)
    if x.ndim != 1:
        raise SemiringError(f"x must be 1-D, got shape {x.shape}")
    if a.shape[1] != x.shape[0]:
        raise SemiringError(f"shape mismatch: {a.shape} x {x.shape}")
    return sr.add_reduce(sr.mul(a, x[None, :]), axis=1)


def vecmat(sr: Semiring, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Semiring vector-matrix product ``y[j] = ⊕_k x[k] ⊗ A[k, j]``."""
    a = sr.asarray(a)
    x = sr.asarray(x)
    _check_2d("a", a)
    if x.ndim != 1:
        raise SemiringError(f"x must be 1-D, got shape {x.shape}")
    if a.shape[0] != x.shape[0]:
        raise SemiringError(f"shape mismatch: {x.shape} x {a.shape}")
    return sr.add_reduce(sr.mul(x[:, None], a), axis=0)


def chain_product(sr: Semiring, matrices: list[np.ndarray]) -> np.ndarray:
    """Left-to-right product of a string of matrices.

    Evaluates ``M_0 ⊗ M_1 ⊗ … ⊗ M_{n-1}`` in the fixed left-to-right
    order used by the monadic formulation (eq. 8 associates right-to-left;
    semiring associativity makes the result identical, which the tests
    verify).
    """
    if not matrices:
        raise SemiringError("chain_product needs at least one matrix")
    acc = sr.asarray(matrices[0])
    _check_2d("matrices[0]", acc)
    for idx, m in enumerate(matrices[1:], start=1):
        acc = matmul(sr, acc, m)
    return acc


@dataclasses.dataclass(frozen=True)
class MultiplyNode:
    """One node of the Section-4 divide-and-conquer AND-tree.

    A node covers the matrices (edge layers) ``lo … hi − 1``; a leaf is a
    single matrix, an internal node one multiplication of its children's
    products.  ``depth`` is the node's height above the leaves (leaves
    are depth 0); the tree height bounds the wind-down phase of the
    parallel schedule (Theorem 1).
    """

    lo: int  # first matrix covered (0-based)
    hi: int  # one past the last matrix covered
    left: "MultiplyNode | None" = None
    right: "MultiplyNode | None" = None

    @classmethod
    def balanced(cls, lo: int, hi: int) -> "MultiplyNode":
        """The balanced AND-tree over ``lo … hi − 1``: halved recursively
        at ``(lo + hi) // 2``, so ``hi − lo`` leaves, ``hi − lo − 1``
        multiplications and height ``⌈log₂(hi − lo)⌉``.  The one builder
        of the tree that :func:`chain_product_tree`,
        :func:`repro.dp.solve_polyadic` and
        :func:`repro.dataflow.tasks_balanced_tree` read."""
        if hi - lo < 1:
            raise ValueError(f"empty AND-tree range [{lo}, {hi})")
        if hi - lo == 1:
            return cls(lo, hi)
        mid = (lo + hi) // 2
        return cls(lo, hi, cls.balanced(lo, mid), cls.balanced(mid, hi))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def depth(self) -> int:
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth, self.right.depth)

    def count_internal(self) -> int:
        """Number of matrix multiplications in the subtree."""
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + self.left.count_internal() + self.right.count_internal()


def chain_product_tree(sr: Semiring, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Balanced-binary-tree product of a string of matrices.

    This is the evaluation order of the paper's divide-and-conquer
    algorithm (Section 4): :meth:`MultiplyNode.balanced` over the string,
    a balanced binary AND-tree of height ⌈log₂N⌉.  Associativity
    guarantees the same result as :func:`chain_product` up to rounding;
    the point of this entry is to serve as the functional model that the
    D&C scheduler (:mod:`repro.dnc`) timings refer to.
    """
    if not matrices:
        raise SemiringError("chain_product_tree needs at least one matrix")
    leaves = [sr.asarray(m) for m in matrices]
    for m in leaves:
        _check_2d("matrix", m)

    def evaluate(node: MultiplyNode) -> np.ndarray:
        if node.is_leaf:
            return leaves[node.lo]
        assert node.left is not None and node.right is not None
        return matmul(sr, evaluate(node.left), evaluate(node.right))

    return evaluate(MultiplyNode.balanced(0, len(leaves)))


def matrix_power(sr: Semiring, a: np.ndarray, n: int) -> np.ndarray:
    """``A`` to the ``n``-th semiring power (``n ≥ 0``) by binary exponentiation.

    ``n = 0`` returns the semiring identity matrix.  Over MIN_PLUS,
    ``matrix_power(a, n)[i, j]`` is the cheapest walk from ``i`` to ``j``
    using exactly ``n`` edges — the all-pairs analogue of the multistage
    recursion.
    """
    a = sr.asarray(a)
    _check_2d("a", a)
    if a.shape[0] != a.shape[1]:
        raise SemiringError(f"matrix_power needs a square matrix, got {a.shape}")
    if n < 0:
        raise SemiringError("matrix_power requires n >= 0")
    result = sr.eye(a.shape[0])
    base = a
    while n:
        if n & 1:
            result = matmul(sr, result, base)
        base = matmul(sr, base, base)
        n >>= 1
    return result


def closure(sr: Semiring, a: np.ndarray, *, max_iter: int | None = None) -> np.ndarray:
    """Reflexive-transitive closure ``A* = I ⊕ A ⊕ A² ⊕ …``.

    Only meaningful for idempotent semirings, where the series converges
    after at most ``n - 1`` squarings of ``(I ⊕ A)`` for an ``n × n``
    matrix (cheapest walks of unbounded length).  Raises on
    non-idempotent semirings rather than silently diverging.
    """
    if not sr.idempotent_add:
        raise SemiringError(
            f"closure is only defined here for idempotent semirings, not {sr.name!r}"
        )
    a = sr.asarray(a)
    _check_2d("a", a)
    if a.shape[0] != a.shape[1]:
        raise SemiringError(f"closure needs a square matrix, got {a.shape}")
    n = a.shape[0]
    acc = sr.add(sr.eye(n), a)
    steps = max_iter if max_iter is not None else max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(steps):
        nxt = matmul(sr, acc, acc)
        if np.array_equal(nxt, acc):
            break
        acc = nxt
    return acc


def batched_matmul(sr: Semiring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Semiring matmul over leading batch dimensions.

    ``a`` has shape ``(..., n, k)`` and ``b`` ``(..., k, m)``; batch
    dimensions broadcast.  This is the paper's Section-3.2 remark made
    concrete: "each matrix element is a vector with many quantized
    values" (Kalman filtering, inventory, production) — the same
    systolic schedule carries a whole batch per cell, multiplying the
    available parallelism by the batch size.
    """
    a = sr.asarray(a)
    b = sr.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise SemiringError("batched operands need at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise SemiringError(
            f"inner dimensions differ: {a.shape} x {b.shape}"
        )
    prod = sr.mul(a[..., :, :, None], b[..., None, :, :])
    return sr.add_reduce(prod, axis=-2)


def batched_chain_product(sr: Semiring, matrices: list[np.ndarray]) -> np.ndarray:
    """Left-to-right batched chain product (batch dims broadcast)."""
    if not matrices:
        raise SemiringError("batched_chain_product needs at least one matrix")
    acc = sr.asarray(matrices[0])
    for m in matrices[1:]:
        acc = batched_matmul(sr, acc, m)
    return acc
