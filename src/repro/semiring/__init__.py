"""Semiring algebra substrate.

The paper rewrites monadic-serial dynamic programming as matrix
multiplication over the closed semiring ``(R, MIN, +, +∞, 0)``
(Section 3.1).  This subpackage provides that semiring, several siblings,
and vectorized matrix routines over any of them.
"""

from .base import Semiring, SemiringError
from .standard import (
    ALL_SEMIRINGS,
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_MAX,
    MIN_PLUS,
    PLUS_TIMES,
    by_name,
)
from .matrix import (
    MultiplyNode,
    batched_chain_product,
    batched_matmul,
    chain_product,
    chain_product_tree,
    closure,
    matmul,
    matmul_with_arg,
    matrix_power,
    matvec,
    vecmat,
)

__all__ = [
    "Semiring",
    "SemiringError",
    "MIN_PLUS",
    "MAX_PLUS",
    "PLUS_TIMES",
    "MAX_TIMES",
    "MIN_MAX",
    "BOOLEAN",
    "ALL_SEMIRINGS",
    "by_name",
    "matmul",
    "matmul_with_arg",
    "batched_matmul",
    "batched_chain_product",
    "matvec",
    "vecmat",
    "chain_product",
    "chain_product_tree",
    "MultiplyNode",
    "matrix_power",
    "closure",
]
