"""Standard semiring instances.

The paper's central algebraic device (Section 3.1) is the closed semiring
``(R, MIN, +, +∞, 0)`` — :data:`MIN_PLUS` here.  The siblings let the same
machinery solve maximization problems (:data:`MAX_PLUS`), reliability-style
products (:data:`MAX_TIMES`), bottleneck/capacity paths (:data:`MIN_MAX`),
reachability (:data:`BOOLEAN`) and ordinary linear algebra
(:data:`PLUS_TIMES`, used to cross-check the semiring matmul against
``numpy.matmul``).
"""

from __future__ import annotations

import math

import numpy as np

from .base import Semiring

__all__ = [
    "MIN_PLUS",
    "MAX_PLUS",
    "PLUS_TIMES",
    "MAX_TIMES",
    "MIN_MAX",
    "BOOLEAN",
    "by_name",
    "ALL_SEMIRINGS",
]


def _inf_safe_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` treating ``(+inf) + (-inf)`` as ``+inf``.

    The guarded ⊗ of :data:`MIN_PLUS`, so ``mul`` stays well-defined on
    arbitrary operands.  Checked costs (no ``-inf``, no overflowing path
    sum) never produce ``(+inf) + (-inf)``, so the kernels they feed run
    the bare ``np.add`` (``raw_mul``) instead.
    """
    with np.errstate(invalid="ignore"):
        out = np.add(a, b)
    nan = np.isnan(out)
    if np.any(nan):
        out = np.where(nan, np.inf, out)
    return out


def _neg_inf_safe_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` treating ``(+inf) + (-inf)`` as ``-inf`` (max-plus zero)."""
    with np.errstate(invalid="ignore"):
        out = np.add(a, b)
    nan = np.isnan(out)
    if np.any(nan):
        out = np.where(nan, -np.inf, out)
    return out


# Scalar forms for the PEs, which step one pair of floats at a time: plain
# Python arithmetic, equal to the ufuncs above on every non-NaN pair.
def _scalar_min(a: float, b: float) -> float:
    return float(a if a <= b else b)


def _scalar_max(a: float, b: float) -> float:
    return float(a if a >= b else b)


def _scalar_sum(a: float, b: float) -> float:
    return float(a + b)


def _scalar_product(a: float, b: float) -> float:
    return float(a * b)


def _scalar_inf_safe_add(a: float, b: float) -> float:
    """Scalar :func:`_inf_safe_add`: ``(+inf) + (-inf)`` is ``+inf``."""
    r = float(a + b)
    return math.inf if r != r else r


def _scalar_neg_inf_safe_add(a: float, b: float) -> float:
    """Scalar :func:`_neg_inf_safe_add`: ``(+inf) + (-inf)`` is ``-inf``."""
    r = float(a + b)
    return -math.inf if r != r else r


#: Shortest-path / minimization semiring: ⊕ = min, ⊗ = +.
MIN_PLUS = Semiring(
    name="min-plus",
    add=np.minimum,
    mul=_inf_safe_add,
    zero=np.inf,
    one=0.0,
    add_reduce=np.minimum.reduce,
    add_argreduce=np.argmin,
    idempotent_add=True,
    scalar_add_op=_scalar_min,
    scalar_mul_op=_scalar_inf_safe_add,
    raw_mul_op=np.add,
)

#: Longest-path / maximization semiring: ⊕ = max, ⊗ = +.
MAX_PLUS = Semiring(
    name="max-plus",
    add=np.maximum,
    mul=_neg_inf_safe_add,
    zero=-np.inf,
    one=0.0,
    add_reduce=np.maximum.reduce,
    add_argreduce=np.argmax,
    idempotent_add=True,
    scalar_add_op=_scalar_max,
    scalar_mul_op=_scalar_neg_inf_safe_add,
    raw_mul_op=np.add,
)

#: Ordinary arithmetic semiring (path counting / reference checks).
PLUS_TIMES = Semiring(
    name="plus-times",
    add=np.add,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    add_reduce=np.add.reduce,
    add_argreduce=None,
    idempotent_add=False,
    scalar_add_op=_scalar_sum,
    scalar_mul_op=_scalar_product,
)

#: Reliability semiring: ⊕ = max, ⊗ = ×, elements in [0, 1].
MAX_TIMES = Semiring(
    name="max-times",
    add=np.maximum,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    add_reduce=np.maximum.reduce,
    add_argreduce=np.argmax,
    idempotent_add=True,
    scalar_add_op=_scalar_max,
    scalar_mul_op=_scalar_product,
)

#: Bottleneck semiring: ⊕ = min, ⊗ = max (minimize the worst edge).
MIN_MAX = Semiring(
    name="min-max",
    add=np.minimum,
    mul=np.maximum,
    zero=np.inf,
    one=-np.inf,
    add_reduce=np.minimum.reduce,
    add_argreduce=np.argmin,
    idempotent_add=True,
    scalar_add_op=_scalar_min,
    scalar_mul_op=_scalar_max,
)

#: Reachability semiring over {0.0, 1.0}: ⊕ = or, ⊗ = and.
BOOLEAN = Semiring(
    name="boolean",
    add=np.maximum,
    mul=np.minimum,
    zero=0.0,
    one=1.0,
    add_reduce=np.maximum.reduce,
    add_argreduce=np.argmax,
    idempotent_add=True,
    scalar_add_op=_scalar_max,
    scalar_mul_op=_scalar_min,
)

ALL_SEMIRINGS: tuple[Semiring, ...] = (
    MIN_PLUS,
    MAX_PLUS,
    PLUS_TIMES,
    MAX_TIMES,
    MIN_MAX,
    BOOLEAN,
)

_BY_NAME = {s.name: s for s in ALL_SEMIRINGS}


def by_name(name: str) -> Semiring:
    """Look up a built-in semiring by its ``name`` attribute.

    Raises ``KeyError`` with the list of known names on a miss.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown semiring {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
