"""Exact optimality certificates over the tables a fast kernel builds.

A fast array kernel is validated by checking the paper's recurrence on
the per-stage tables it already computed, instead of re-solving the
problem with a sequential oracle.  Each check is one vectorized pass
over all stages at once, where the kernel had to go stage by stage:

* :func:`certify_forward` — eq. (2), the Fig. 5 feedback array.  For
  every stage ``k`` and every value ``j``: no predecessor beats the
  recorded ``h_{k+1}[j]`` (``h_{k+1} ⊕ (h_k ⊗ C_k) == h_{k+1}``), and
  the predecessor in the path register reaches it (a gather equals
  ``h_{k+1}``).  Together they say ``h_{k+1}[j]`` is the ⊕ of its
  candidates and the traced path attains it.
* :func:`certify_backward` — eq. (1), the right-to-left mat-vec chain
  of the Fig. 3 array and the divide-and-conquer route:
  ``v_k == ⊕_j C_k[:, j] ⊗ v_{k+1}[j]`` for every stage, checked on each
  stacked block of same-shape layers.  The chain keeps no decisions, so
  this one recomputes the ⊕, but for all stages of a block at once.
* :func:`certify_interval` — eq. (6) and OBST, the Section-6.2 arrays:
  every cell of an interval table equals
  ``min_k V[x,k] + V[k+1,y] + local(x, y, k)`` for the recurrence's
  local term, the recorded split attains it, and the diagonal holds the
  leaves.

Comparisons are exact ``==``: a certificate repeats the kernel's own
⊗ on the same operands, and the ⊕ of every semiring with an
arg-reduction selects one of its operands, so no order of folding can
round differently.  A semiring without one has no certificate:
:func:`require_argreduce` raises the :class:`ValueError` the sequential
oracles raise.  Stages are processed in chunks of at most
:data:`CHUNK_ELEMENTS` elements per temporary, so a long chain costs no
more memory than a short one.  Each function returns the verdict per
instance of a ``(B, …)`` stack.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from ..semiring import Semiring

__all__ = [
    "CHUNK_ELEMENTS",
    "certify_backward",
    "certify_forward",
    "certify_interval",
    "require_argreduce",
]

#: Largest number of elements in one certificate temporary (256 KB of
#: float64): large enough that a chunk amortizes its per-op overhead,
#: small enough that a 256-stage chain leaves peak memory unchanged.
CHUNK_ELEMENTS = 1 << 15


def require_argreduce(sr: Semiring) -> None:
    """Raise :class:`ValueError` unless ``sr`` can extract decisions."""
    if sr.add_argreduce is None:
        raise ValueError(f"semiring {sr.name!r} does not support decision extraction")


def _chunks(stop: int, per_item: int) -> Iterator[tuple[int, int]]:
    """``[a, b)`` ranges covering ``[0, stop)`` within the element budget."""
    step = max(1, CHUNK_ELEMENTS // max(per_item, 1))
    for a in range(0, stop, step):
        yield a, min(a + step, stop)


def certify_forward(
    sr: Semiring,
    layers: np.ndarray,
    hs: np.ndarray,
    registers: np.ndarray,
    optima: np.ndarray,
    winners: np.ndarray,
) -> np.ndarray:
    """Certify a forward sweep ``h_{k+1}[j] = ⊕_i h_k[i] ⊗ C_k[i, j]``.

    ``layers`` is the ``(L, …, m, m)`` stack of cost layers (a problem's
    cost block, or a batch of them stage-major); ``hs`` is the
    ``(L+1, …, m)`` stack of stage vectors with ``hs[0] = 1̄``;
    ``registers`` the ``(L, …, m)`` path registers; ``optima`` and
    ``winners`` the ``(…)`` final fold and its winning index.  Returns the
    ``(…)`` boolean verdict.
    """
    require_argreduce(sr)
    optima, winners = np.asarray(optima), np.asarray(winners)
    final = hs[-1]
    ok = np.all(hs[0] == sr.one, axis=-1)
    ok &= np.all(sr.add(optima[..., None], final) == optima[..., None], axis=-1)
    ok &= np.take_along_axis(final, winners[..., None], axis=-1)[..., 0] == optima
    m = hs.shape[-1]
    per_stage = math.prod(hs.shape[1:-1]) * m * m
    for a, b in _chunks(len(registers), per_stage):
        cand = sr.raw_mul(hs[a:b, ..., :, None], layers[a:b])
        nxt = hs[a + 1 : b + 1, ..., None, :]
        beaten = sr.add(nxt, cand) != nxt
        reached = np.take_along_axis(cand, registers[a:b, ..., None, :], axis=-2) == nxt
        ok &= ~np.any(beaten, axis=(0, -2, -1)) & np.all(reached, axis=(0, -2, -1))
    return np.asarray(ok)


def certify_backward(
    sr: Semiring,
    blocks: Sequence[np.ndarray],
    vec: np.ndarray,
    runs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Certify a right-to-left chain ``v_k = ⊕_j C_k[:, j] ⊗ v_{k+1}[j]``.

    ``blocks`` are the operands, one ``(n, …, rows, cols)`` stack per run
    of same-shape layers; ``runs`` the chain's ``(values, inputs)`` per
    block (:func:`repro.systolic.pipelined_array._matvec_chain`), where
    ``values[j]`` is the stage vector layer ``j`` of the block produced
    and ``inputs[j]`` the one it read; the last input is the sink vector
    ``vec``.  Each chunk of a block is transposed once, so the ⊕ over
    ``j`` folds whole rows instead of running along short ones.  That
    changes the order of the ⊕, which is exact only for a ⊕ that
    selects an operand, so the semiring needs an arg-reduction.  Returns
    the ``(…)`` boolean verdict.
    """
    require_argreduce(sr)
    ok = np.all(runs[-1][1][-1] == vec, axis=-1)
    for block, (values, inputs) in zip(blocks, runs):
        for a, b in _chunks(len(block), math.prod(block.shape[1:])):
            flipped = np.ascontiguousarray(np.swapaxes(block[a:b], -1, -2))
            got = sr.add_reduce(sr.raw_mul(flipped, inputs[a:b, ..., :, None]), axis=-2)
            ok &= np.all(got == values[a:b], axis=(0, -1))
    return np.asarray(ok)


def certify_interval(
    table: np.ndarray,
    splits: np.ndarray,
    leaves: np.ndarray,
    local: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> bool:
    """Certify an interval table: eq. (6), OBST, any recurrence of that form.

    ``table`` and ``splits`` are 1-based ``(m+2, m+2)`` arrays over the
    intervals of a row of ``m`` leaves: ``V[x, y]`` the optimum of leaves
    ``x … y`` and ``K[x, y]`` the leaf it splits after.  ``local(x, y, k)``
    is the recurrence's local term over broadcast index arrays.  Every
    cell ``x < y`` must equal ``min_k V[x, k] + V[k+1, y] + local(x, y, k)``
    over ``x ≤ k < y`` (one ``(m, m, m)`` op, chunked by rows) and be
    attained at ``K[x, y]``; the diagonal must hold ``leaves``.
    """
    m = len(leaves)
    cells = table[1 : m + 1, 1 : m + 1]  # [x-1, y-1] = V[x, y]
    if np.any(np.diagonal(cells) != leaves):
        return False
    idx = np.arange(1, m + 1)
    below = table[2 : m + 2, 1 : m + 1].T  # [y-1, k-1] = V[k+1, y]
    never = np.inf if table.dtype.kind == "f" else np.iinfo(table.dtype).max
    for a, b in _chunks(m, m * m):
        x = idx[a:b, None, None]
        # cost[x, y, k] of splitting leaves x … y after leaf k.
        cost = cells[a:b, None, :] + below[None] + local(x, idx[:, None], idx)
        valid = (x <= idx) & (idx < idx[:, None])  # x <= k < y
        best = np.where(valid, cost, never).min(axis=-1)
        upper = idx[a:b, None] < idx  # cells with x < y
        split = splits[1 : m + 1, 1 : m + 1][a:b]
        in_range = (idx[a:b, None] <= split) & (split < idx)
        at_split = np.take_along_axis(cost, np.clip(split - 1, 0, m - 1)[..., None], axis=-1)
        good = (best == cells[a:b]) & in_range & (at_split[..., 0] == cells[a:b])
        if not np.all(good | ~upper):
            return False
    return True
