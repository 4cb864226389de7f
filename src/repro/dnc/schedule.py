"""Round-synchronous scheduler for K systolic arrays multiplying a chain.

The measured counterpart of :mod:`repro.dnc.analysis`: simulates the
parallel divide-and-conquer algorithm of Section 4 — ``K`` synchronous
matrix-multiplication systolic arrays reducing a string of ``N``
matrices pair-by-pair — and records per-round activity so the
computation/wind-down split, ``PU`` and ``K·T²`` are *measured*, not just
evaluated from eq. (29).

Each round, every array multiplies one disjoint **adjacent** pair of
current chain segments (adjacency keeps the product order legal — the
semiring is associative but not commutative in general); a round costs
``T₁``.  Two pairing policies are provided for the DESIGN.md ablation:

* ``"leftmost"`` — greedily pair segments left to right, the simplest
  hardware allocation.
* ``"balanced"``  — pair so the surviving segment count halves as evenly
  as possible; equivalent round count (both take
  ``n → n − min(K, ⌊n/2⌋)`` per round) but different trees, which is the
  point of the ablation: the *schedule length* is pairing-invariant.

Optionally executes the products on real semiring matrices to verify the
result against the sequential chain product.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from .._readonly import fields_equal, read_only, restore_read_only
from ..semiring import MIN_PLUS, Semiring, matmul

__all__ = ["ChainScheduleResult", "simulate_chain_product", "rounds_only"]


@dataclasses.dataclass(frozen=True)
class ChainScheduleResult:
    """Measured schedule of a K-array divide-and-conquer chain product."""

    num_matrices: int
    num_processors: int
    policy: str
    rounds: int  # total schedule length T, in units of T1
    computation_rounds: int  # rounds with all K arrays busy (T_c)
    wind_down_rounds: int  # remaining rounds (T_w)
    busy_per_round: tuple[int, ...]  # arrays active in each round
    total_multiplications: int  # always N - 1
    product: np.ndarray | None  # the chain product, when matrices given

    __eq__ = fields_equal
    __setstate__ = restore_read_only

    def __post_init__(self) -> None:
        read_only(self.product)

    @property
    def processor_utilization(self) -> float:
        """Measured PU: work over (arrays × rounds)."""
        denom = self.num_processors * self.rounds
        return self.total_multiplications / denom if denom else float("nan")

    @property
    def kt2(self) -> float:
        """Measured ``K·T²`` (Figure 6 ordinate) in ``T₁ = 1`` units."""
        return self.num_processors * self.rounds * self.rounds


def _pair_indices(n_segments: int, capacity: int, policy: str) -> list[int]:
    """Left indices of the disjoint adjacent pairs multiplied this round."""
    max_pairs = min(capacity, n_segments // 2)
    if max_pairs == 0:
        return []
    if policy == "leftmost":
        return [2 * i for i in range(max_pairs)]
    if policy == "balanced":
        # Spread the pairs across the chain so leftover segments stay
        # evenly distributed; still disjoint and adjacent.
        out: list[int] = []
        stride = n_segments / max_pairs
        used = -1
        for i in range(max_pairs):
            left = max(int(i * stride), used + 1)
            if left + 1 >= n_segments:
                break
            out.append(left)
            used = left + 1
        # Fill any shortfall greedily from the left.
        need = max_pairs - len(out)
        if need > 0:
            taken = set()
            for left in out:
                taken.add(left)
                taken.add(left + 1)
            left = 0
            while need > 0 and left + 1 < n_segments:
                if left not in taken and (left + 1) not in taken:
                    out.append(left)
                    taken.add(left)
                    taken.add(left + 1)
                    need -= 1
                    left += 2
                else:
                    left += 1
            out.sort()
        return out
    raise ValueError(f"unknown pairing policy {policy!r}")


def simulate_chain_product(
    n: int,
    k: int,
    *,
    policy: str = "leftmost",
    matrices: Sequence[np.ndarray] | None = None,
    semiring: Semiring = MIN_PLUS,
) -> ChainScheduleResult:
    """Simulate ``K`` arrays reducing an ``N``-matrix chain to one matrix.

    With ``matrices`` given (length ``N``), the scheduled multiplications
    are actually executed over ``semiring`` and the final product is
    returned for validation; otherwise only the schedule is simulated
    (segments tracked symbolically), which is what the Figure-6 sweep
    uses for ``N = 4096``.  A symbolic schedule is computed once per
    ``(n, k, policy)`` and shared.
    """
    if n < 1:
        raise ValueError("need at least one matrix")
    if k < 1:
        raise ValueError("need at least one processor")
    if matrices is None:
        return _symbolic_schedule(n, k, policy)
    if len(matrices) != n:
        raise ValueError(f"expected {n} matrices, got {len(matrices)}")
    # Copies: a one-matrix chain's product is its input, and making the
    # result read-only must leave the caller's matrix writable.
    segments = [np.array(m, dtype=semiring.dtype) for m in matrices]
    return _schedule(n, k, policy, segments, semiring)


@functools.lru_cache(maxsize=128)
def _symbolic_schedule(n: int, k: int, policy: str) -> ChainScheduleResult:
    """The schedule with segments tracked symbolically, once per
    ``(n, k, policy)``: the result is frozen, ``busy_per_round`` a tuple
    and ``product`` ``None``, so every caller can share it."""
    return _schedule(n, k, policy, [None] * n, MIN_PLUS)


def _schedule(
    n: int,
    k: int,
    policy: str,
    segments: list[np.ndarray | None],
    semiring: Semiring,
) -> ChainScheduleResult:
    """Reduce ``segments`` (matrices, or ``None`` placeholders) round by round."""
    busy: list[int] = []
    while len(segments) > 1:
        pairs = _pair_indices(len(segments), k, policy)
        if not pairs:  # cannot happen with >=2 segments, defensive
            raise RuntimeError("scheduler stalled")
        busy.append(len(pairs))
        merged: list[np.ndarray | None] = []
        pair_set = set(pairs)
        i = 0
        while i < len(segments):
            if i in pair_set:
                left, right = segments[i], segments[i + 1]
                if left is not None and right is not None:
                    merged.append(matmul(semiring, left, right))
                else:
                    merged.append(None)
                i += 2
            else:
                merged.append(segments[i])
                i += 1
        segments = merged

    rounds = len(busy)
    computation = sum(1 for b in busy if b == k)
    return ChainScheduleResult(
        num_matrices=n,
        num_processors=k,
        policy=policy,
        rounds=rounds,
        computation_rounds=computation,
        wind_down_rounds=rounds - computation,
        busy_per_round=tuple(busy),
        total_multiplications=int(sum(busy)),
        product=segments[0],
    )


def rounds_only(n: int, k: int) -> int:
    """Fast round count: ``n → n − min(K, ⌊n/2⌋)`` until one segment.

    Equals ``simulate_chain_product(n, k).rounds`` (property-tested) but
    runs in O(rounds) — used for the large Figure-6 sweeps.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    rounds = 0
    while n > 1:
        n -= min(k, n // 2)
        rounds += 1
    return rounds
