"""Optimal binary search trees — the paper's other polyadic example.

Section 2.1 names two canonical polyadic formulations: matrix-chain
ordering and "finding the optimal binary search tree".  This module
supplies the OBST substrate (Knuth's classic DP) so the Section-6.2
array machinery can be exercised on the second problem family:

    e[i, j] = min_{i ≤ r ≤ j} ( e[i, r−1] + e[r+1, j] + w(i, j) )

for keys ``i … j`` with access probabilities ``p₁ … p_n`` and miss
probabilities ``q₀ … q_n``; ``w(i, j) = Σ p + Σ q`` over the range and
``e[i, i−1] = q_{i−1}`` are the leaves.  Like eq. (6) this is a
polyadic-nonserial triangular recurrence — two recursive terms, arcs
spanning levels — and maps onto the same broadcast/serialized arrays
via :mod:`repro.systolic.triangular`.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

__all__ = ["ObstSolution", "solve_obst", "brute_force_obst", "expected_depth_cost", "random_obst_weights"]


@dataclasses.dataclass(frozen=True)
class ObstSolution:
    """Result of the OBST dynamic program.

    ``cost`` is the expected comparison count (weighted path length);
    ``root[i][j]`` (1-based keys, dict keyed by ``(i, j)``) is the
    optimal root of the subtree over keys ``i … j``; ``tree`` is the
    nested ``(key, left, right)`` structure with ``None`` leaves.
    """

    p: tuple[float, ...]
    q: tuple[float, ...]
    cost: float
    root: dict[tuple[int, int], int]
    tree: tuple | None

    @property
    def num_keys(self) -> int:
        return len(self.p)


def _check_weights(p: Sequence[float], q: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError("p and q must be 1-D")
    if q.size != p.size + 1:
        raise ValueError(f"need len(q) == len(p) + 1, got {p.size} and {q.size}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("probabilities must be finite")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("probabilities must be nonnegative")
    return p, q


def solve_obst(p: Sequence[float], q: Sequence[float]) -> ObstSolution:
    """Knuth's O(n³) OBST dynamic program (without the speedup —
    the array mappings need every (i, j, r) alternative anyway)."""
    p, q = _check_weights(p, q)
    n = p.size
    # e is an (n+2) x (n+1) table, 1-based i, (i-1)-based j.
    e = np.zeros((n + 2, n + 1))
    root: dict[tuple[int, int], int] = {}
    for i in range(1, n + 2):
        e[i, i - 1] = q[i - 1]
    # w(i, j) = sum(p_i..p_j) + sum(q_{i-1}..q_j) as prefix-sum
    # differences, the arithmetic of the triangular array's ObstSpec.local, so
    # the two agree to the last bit.
    pc = np.concatenate([[0.0], np.cumsum(p)])
    qc = np.concatenate([[0.0], np.cumsum(q)])
    for span in range(1, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            w = pc[j] - pc[i - 1] + qc[j + 1] - qc[i - 1]
            rs = np.arange(i, j + 1)
            costs = np.array([e[i, r - 1] + e[r + 1, j] for r in rs]) + w
            best = int(np.argmin(costs))
            e[i, j] = costs[best]
            root[(i, j)] = int(rs[best])

    def build(i: int, j: int):
        if j < i:
            return None
        r = root[(i, j)]
        return (r, build(i, r - 1), build(r + 1, j))

    return ObstSolution(
        p=tuple(p),
        q=tuple(q),
        cost=float(e[1, n]) if n else float(q[0]),
        root=root,
        tree=build(1, n) if n else None,
    )


def expected_depth_cost(p: Sequence[float], q: Sequence[float], tree) -> float:
    """Expected comparison count of an explicit tree (test oracle).

    Key ``k`` at depth ``d`` (root depth 1) contributes ``p_k · d``;
    miss interval ``q_k`` at leaf depth ``d`` contributes ``q_k · d``.
    """
    p, q = _check_weights(p, q)

    def walk(node, span: tuple[int, int], depth: int) -> float:
        i, j = span
        if node is None:
            if j != i - 1:
                raise ValueError(f"leaf must cover the empty span, got {span}")
            return q[i - 1] * depth
        r, left, right = node
        if not i <= r <= j:
            raise ValueError(f"root {r} outside span {span}")
        return (
            p[r - 1] * depth
            + walk(left, (i, r - 1), depth + 1)
            + walk(right, (r + 1, j), depth + 1)
        )

    n = p.size
    if n == 0:
        return float(q[0])
    return walk(tree, (1, n), 1)


def brute_force_obst(p: Sequence[float], q: Sequence[float]) -> tuple[float, tuple | None]:
    """Exhaustive minimum over all BSTs on the keys (Catalan many)."""
    p, q = _check_weights(p, q)
    n = p.size

    def gen(i: int, j: int):
        if j < i:
            yield None
            return
        for r in range(i, j + 1):
            for left in gen(i, r - 1):
                for right in gen(r + 1, j):
                    yield (r, left, right)

    best_cost, best_tree = float("inf"), None
    for tree in gen(1, n):
        c = expected_depth_cost(p, q, tree)
        if c < best_cost:
            best_cost, best_tree = c, tree
    return best_cost, best_tree


def random_obst_weights(
    rng: np.random.Generator, n_keys: int, *, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Random (p, q) weight vectors for ``n_keys`` keys."""
    if n_keys < 0:
        raise ValueError("n_keys must be nonnegative")
    p = rng.uniform(0.0, 1.0, n_keys)
    q = rng.uniform(0.0, 1.0, n_keys + 1)
    if normalize:
        total = p.sum() + q.sum()
        p, q = p / total, q / total
    return p, q
