"""Closed-semiring abstraction used throughout the library.

The paper (Section 3.1) reformulates the search for a minimum-cost path in
a multistage graph as matrix multiplication over the closed semiring
``(R ∪ {+∞}, MIN, +, +∞, 0)``: the semiring "addition" is ``min`` and the
semiring "multiplication" is ordinary ``+``.  Keeping the semiring
abstract lets every higher-level component (sequential DP solvers,
systolic-array simulators, divide-and-conquer schedulers) work unchanged
for minimization, maximization, path counting or reachability problems.

A :class:`Semiring` bundles

* ``add``        — the ⊕ operation (``min`` for shortest paths),
* ``mul``        — the ⊗ operation (``+`` for shortest paths),
* ``zero``       — identity of ⊕ and annihilator of ⊗ (``+inf``),
* ``one``        — identity of ⊗ (``0``),

in both *scalar* form and *vectorized* (NumPy ufunc-style) form.  The
vectorized entry points are what the performance-sensitive inner loops
use; per the HPC guides, all bulk operations are expressed as whole-array
NumPy reductions rather than Python-level element loops.

A semiring may also carry specialised forms of its operations: pure-Python
scalar ⊕/⊗ for the systolic PEs, which step one scalar at a time, and
:attr:`Semiring.raw_mul`, an array ⊗ without the guards that only
unchecked operands need.  Costs are checked once where they enter the
library (:func:`repro.graphs.check_cost_layers`); the kernels fed by
checked data run the raw forms.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

__all__ = ["Semiring", "SemiringError"]


class SemiringError(ValueError):
    """Raised when semiring laws are violated or operands are malformed."""


@dataclasses.dataclass(frozen=True)
class Semiring:
    """An algebraic structure ``(S, ⊕, ⊗, 0̄, 1̄)``.

    Parameters
    ----------
    name:
        Human-readable identifier (``"min-plus"`` etc.).
    add:
        Vectorized ⊕; must accept NumPy arrays and support broadcasting.
    mul:
        Vectorized ⊗; must accept NumPy arrays and support broadcasting.
    zero:
        Identity element of ⊕ and annihilator of ⊗.
    one:
        Identity element of ⊗.
    add_reduce:
        Reduction form of ⊕ along an axis (e.g. ``np.minimum.reduce``),
        called with ``axis=`` and, by the mat-vec chain that writes into
        a preallocated stack, ``out=``.  Required so matrix products can
        be computed as a single reduction over a broadcast temporary
        instead of a Python loop.
    add_argreduce:
        Optional arg-reduction of ⊕ (e.g. :func:`np.argmin`), used for
        decision/traceback extraction.  ``None`` when the semiring has no
        meaningful "winning operand" (e.g. plus-times).
    idempotent_add:
        Whether ``a ⊕ a == a`` holds; true for min/max semirings.  Several
        systolic schedules exploit idempotence (re-accumulating a partial
        result is harmless), so the simulators assert it when they rely
        on it.
    dtype:
        Natural NumPy dtype of semiring elements.
    scalar_add_op, scalar_mul_op:
        Optional pure-Python ⊕ / ⊗ on two floats, equal to the vectorized
        forms on every non-NaN pair (the annihilator rule included).
        ``None`` falls back to the vectorized form on 0-d arrays.
    raw_mul_op:
        Optional array ⊗ for operands checked at entry, for semirings
        whose ⊗ is ``+`` and whose zero is an infinity (min-plus,
        max-plus): it skips ``mul``'s ``(+∞) ⊗ (−∞) = 0̄`` guard, and
        :func:`repro.graphs.check_cost_layers` rejects the costs that
        could produce that pair.  ``None`` means ``mul``; read it
        through :attr:`raw_mul`.
    """

    name: str
    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero: float
    one: float
    add_reduce: Callable[..., np.ndarray]
    add_argreduce: Callable[..., np.ndarray] | None = None
    idempotent_add: bool = False
    dtype: np.dtype = dataclasses.field(default_factory=lambda: np.dtype(np.float64))
    scalar_add_op: Callable[[float, float], float] | None = None
    scalar_mul_op: Callable[[float, float], float] | None = None
    raw_mul_op: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Scalar conveniences
    # ------------------------------------------------------------------
    def scalar_add(self, a: float, b: float) -> float:
        """⊕ on two scalars (returns a Python float)."""
        if self.scalar_add_op is not None:
            return self.scalar_add_op(a, b)
        return float(self.add(np.asarray(a, dtype=self.dtype), np.asarray(b, dtype=self.dtype)))

    def scalar_mul(self, a: float, b: float) -> float:
        """⊗ on two scalars (returns a Python float)."""
        if self.scalar_mul_op is not None:
            return self.scalar_mul_op(a, b)
        return float(self.mul(np.asarray(a, dtype=self.dtype), np.asarray(b, dtype=self.dtype)))

    @property
    def scalar_ops(
        self,
    ) -> tuple[Callable[[float, float], float], Callable[[float, float], float]]:
        """``(⊕, ⊗)`` on two scalars, for binding to locals in PE loops:
        the pure-Python ops when the semiring has them, else
        :meth:`scalar_add` / :meth:`scalar_mul`."""
        return (
            self.scalar_add_op or self.scalar_add,
            self.scalar_mul_op or self.scalar_mul,
        )

    @property
    def raw_mul(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Array ⊗ for checked operands: ``raw_mul_op``, else ``mul``."""
        return self.mul if self.raw_mul_op is None else self.raw_mul_op

    # ------------------------------------------------------------------
    # Array helpers
    # ------------------------------------------------------------------
    def zeros(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Array filled with the ⊕-identity (the semiring "zero")."""
        return np.full(shape, self.zero, dtype=self.dtype)

    def ones(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Array filled with the ⊗-identity (the semiring "one")."""
        return np.full(shape, self.one, dtype=self.dtype)

    def eye(self, n: int) -> np.ndarray:
        """Semiring identity matrix: ``one`` on the diagonal, ``zero`` off it."""
        out = self.zeros((n, n))
        np.fill_diagonal(out, self.one)
        return out

    def asarray(self, values) -> np.ndarray:
        """Coerce ``values`` to this semiring's dtype without copying when possible."""
        return np.asarray(values, dtype=self.dtype)

    # ------------------------------------------------------------------
    # Law checking (used by tests and by ``validate=True`` call sites)
    # ------------------------------------------------------------------
    def check_laws(self, samples: np.ndarray, *, atol: float = 1e-9) -> None:
        """Verify the semiring axioms on a sample of elements.

        Checks associativity and commutativity of ⊕, associativity of ⊗,
        distributivity of ⊗ over ⊕, the identity laws, and the
        annihilator law.  Raises :class:`SemiringError` on the first
        violated axiom.  ``samples`` must be a 1-D array of candidate
        elements; the check is O(len(samples)³) so keep samples small.
        """
        s = self.asarray(samples).ravel()
        if s.size == 0:
            raise SemiringError("need at least one sample element")
        zero = self.asarray(self.zero)
        one = self.asarray(self.one)

        def eq(x, y):
            x, y = np.asarray(x, dtype=self.dtype), np.asarray(y, dtype=self.dtype)
            with np.errstate(invalid="ignore"):
                both_inf = np.isinf(x) & np.isinf(y) & (np.sign(x) == np.sign(y))
                close = np.isclose(x, y, atol=atol)
            return bool(np.all(both_inf | close))

        a = s[:, None, None]
        b = s[None, :, None]
        c = s[None, None, :]
        if not eq(self.add(self.add(a, b), c), self.add(a, self.add(b, c))):
            raise SemiringError(f"{self.name}: ⊕ is not associative")
        if not eq(self.add(a[..., 0], b[..., 0]), self.add(b[..., 0], a[..., 0])):
            raise SemiringError(f"{self.name}: ⊕ is not commutative")
        if not eq(self.mul(self.mul(a, b), c), self.mul(a, self.mul(b, c))):
            raise SemiringError(f"{self.name}: ⊗ is not associative")
        if not eq(self.mul(a, self.add(b, c)), self.add(self.mul(a, b), self.mul(a, c))):
            raise SemiringError(f"{self.name}: ⊗ does not left-distribute over ⊕")
        if not eq(self.mul(self.add(a, b), c), self.add(self.mul(a, c), self.mul(b, c))):
            raise SemiringError(f"{self.name}: ⊗ does not right-distribute over ⊕")
        if not eq(self.add(s, zero), s):
            raise SemiringError(f"{self.name}: 0̄ is not the ⊕-identity")
        if not eq(self.mul(s, one), s) or not eq(self.mul(one, s), s):
            raise SemiringError(f"{self.name}: 1̄ is not the ⊗-identity")
        if not eq(self.mul(s, zero), np.broadcast_to(zero, s.shape)):
            raise SemiringError(f"{self.name}: 0̄ does not annihilate under ⊗")
        if self.idempotent_add and not eq(self.add(s, s), s):
            raise SemiringError(f"{self.name}: ⊕ declared idempotent but is not")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name!r})"
