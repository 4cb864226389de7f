"""Closed-form analysis of parallel divide-and-conquer chain products.

Implements the analytical side of Section 4 of the paper:

* :func:`schedule_time` — eq. (29): the exact time to multiply ``N``
  matrices on ``K`` synchronous systolic arrays, split into computation
  (``T_c``) and wind-down (``T_w``) phases.
* :func:`processor_utilization` — ``PU(k, N)`` from eq. (20).
* :func:`asymptotic_pu` — the three limit cases of Proposition 1 as a
  function of ``c∞ = lim k(N)/(N/log₂N)``.
* :func:`at2_surface` / :func:`at2_lower_bound` — the Theorem 1 bound
  ``S(N)·T²(N) ≥ Θ(N·log₂N)·T₁²``, attained at ``S(N) = Θ(N/log₂N)``.
* :func:`optimal_granularity` — the ``N/log₂N`` rule of thumb and the
  exact integer argmin of ``K·T²`` (the quantity Figure 6 plots).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ScheduleTime",
    "schedule_time",
    "processor_utilization",
    "asymptotic_pu",
    "asymptotic_pu_limit",
    "at2_surface",
    "at2_lower_bound",
    "kt2",
    "kt2_curve",
    "optimal_granularity",
    "argmin_kt2",
]


@dataclasses.dataclass(frozen=True)
class ScheduleTime:
    """Eq. (29) decomposition of the parallel schedule length."""

    num_matrices: int
    num_processors: int
    computation: int  # T_c, in units of T1
    wind_down: int  # T_w, in units of T1

    @property
    def total(self) -> int:
        return self.computation + self.wind_down


def schedule_time(n: int, k: int) -> ScheduleTime:
    """Exact schedule length of eq. (29), in units of ``T₁``.

    ``T = ⌊(N−1)/K⌋ + ⌊log₂(N + K − 1 − K·⌊(N−1)/K⌋)⌋`` — computation
    rounds in which all ``K`` arrays are busy, then a tree-height-bound
    wind-down.  The curve is deliberately jagged: the paper notes the
    wind-down drops by one around divisibility boundaries, which is what
    makes Figure 6 non-smooth.
    """
    if n < 1:
        raise ValueError("need at least one matrix")
    if k < 1:
        raise ValueError("need at least one processor")
    if n == 1:
        return ScheduleTime(n, k, 0, 0)
    t_c = (n - 1) // k
    residue = n + k - 1 - k * t_c
    t_w = int(math.floor(math.log2(residue))) if residue >= 1 else 0
    return ScheduleTime(n, k, t_c, t_w)


def processor_utilization(n: int, k: int, *, time: int | None = None) -> float:
    """``PU(k, N) = (N − 1) / (K · T)`` (eq. 20).

    ``N − 1`` is the total multiplication count (nonterminals of the
    binary AND-tree); ``T`` defaults to the eq.-(29) schedule length but
    a measured schedule length may be supplied.
    """
    if time is None:
        time = schedule_time(n, k).total
    if time <= 0:
        return float("nan")
    return (n - 1) / (k * time)


def asymptotic_pu(
    k_of_n: Callable[[int], int], n_values: Sequence[int]
) -> list[tuple[int, float]]:
    """Evaluate ``PU(k(N), N)`` along a growth schedule of problem sizes.

    Used by the Proposition-1 benchmark to show convergence toward the
    limits of eq. (17) for ``k(N)`` in the three ``c∞`` regimes.
    """
    out = []
    for n in n_values:
        k = max(1, int(k_of_n(n)))
        out.append((n, processor_utilization(n, k)))
    return out


def asymptotic_pu_limit(c_infinity: float) -> float:
    """The limit value of eq. (17) for a given ``c∞``."""
    if c_infinity < 0:
        raise ValueError("c∞ must be nonnegative")
    if math.isinf(c_infinity):
        return 0.0
    return 1.0 / (1.0 + c_infinity)


def kt2(n: int, k: int, *, t1: float = 1.0) -> float:
    """``K·T²`` for the eq.-(29) schedule (the Figure 6 ordinate)."""
    t = schedule_time(n, k).total * t1
    return k * t * t


def kt2_curve(n: int, k_values: Sequence[int], *, t1: float = 1.0) -> np.ndarray:
    """Vector of ``K·T²`` over a processor-count sweep (Figure 6 series)."""
    return np.asarray([kt2(n, k, t1=t1) for k in k_values], dtype=np.float64)


def argmin_kt2(n: int, *, k_min: int = 1, k_max: int | None = None) -> tuple[int, float]:
    """Integer argmin of ``K·T²`` over ``[k_min, k_max]`` (default up to N).

    Figure 6 reports the minimizing ``K`` for ``N = 4096``; Theorem 1
    predicts it lies near ``N/log₂N``.
    """
    if k_max is None:
        k_max = n
    best_k, best_v = k_min, float("inf")
    for k in range(k_min, k_max + 1):
        v = kt2(n, k)
        if v < best_v:
            best_k, best_v = k, v
    return best_k, best_v


def optimal_granularity(n: int) -> float:
    """The asymptotically optimal array count ``N / log₂N`` (Theorem 1)."""
    if n < 2:
        return 1.0
    return n / math.log2(n)


def at2_surface(n: int, s: int, *, t1: float = 1.0) -> float:
    """``S(N)·T²(N)`` using the Theorem-1 lower-bound time model.

    ``T(N) ≥ (N/S − 1 + log₂S)·T₁`` (eq. 25); this evaluates
    ``S·T²`` at that bound so the benchmark can show the minimum-order
    region sits at ``S = Θ(N/log₂N)``.
    """
    if s < 1 or n < 1:
        raise ValueError("n and s must be positive")
    t = (n / s - 1 + (math.log2(s) if s > 1 else 0.0)) * t1
    t = max(t, t1)  # time can never drop below one multiplication
    return s * t * t


def at2_lower_bound(n: int, *, t1: float = 1.0) -> float:
    """The Theorem-1 bound value ``N·log₂N·T₁²`` (order constant 1)."""
    if n < 2:
        return t1 * t1
    return n * math.log2(n) * t1 * t1
