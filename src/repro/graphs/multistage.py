"""Multistage graphs — the paper's canonical serial-DP substrate.

A *multistage graph* (Figure 1 of the paper) partitions its vertices into
stages; edges run only between adjacent stages.  The minimum-cost path
problem on such a graph is the canonical monadic-serial DP problem
(Section 2.1) and the workload for all three systolic designs of
Section 3.

Two representations are provided, mirroring the paper's two input
regimes:

* :class:`MultistageGraph` — **edge-cost form**: one explicit cost matrix
  per pair of adjacent stages (the form fed to the Fig. 3 / Fig. 4
  matrix-multiplication arrays).
* :class:`NodeValueProblem` — **node-value form** (eq. 4): each stage is a
  discrete variable with ``m`` quantized values and edge costs are
  *computed* from the endpoint values by a stage cost function
  ``f(x, y)``.  The paper notes this reduces input bandwidth by an order
  of magnitude and is the form fed to the Fig. 5 feedback array.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..semiring import MIN_PLUS, Semiring

__all__ = ["MultistageGraph", "NodeValueProblem", "GraphError", "check_cost_layers"]


class GraphError(ValueError):
    """Raised for malformed multistage graphs or problems."""


def _has_nan(a: np.ndarray) -> bool:
    return a.dtype.kind in "fc" and bool(np.isnan(a).any())


def check_cost_layers(
    sr: Semiring, blocks: Iterable[np.ndarray], source: str
) -> None:
    """Check cost layers once, where they enter; raise :class:`GraphError`.

    ``blocks`` hold the layers in order, stacked as cost blocks: each an
    ``(n, …)`` array of ``n`` layers (:attr:`MultistageGraph.cost_blocks`),
    and layer ``k`` of a message counts across blocks.  Every layer is
    rejected if it holds NaN.  Semirings with an unguarded ⊗
    (``raw_mul_op``: min-plus and max-plus, whose ⊗ is ``+`` and whose
    zero is an infinity) also reject what would make that ⊗ differ from
    the guarded ``mul``, which maps ``(+inf) + (-inf)`` to the zero:

    * the wrong infinity, ``-inf`` under min-plus (``+inf`` under
      max-plus);
    * an overflow: the ⊗-sum over layers of each layer's extreme cost
      (its ⊕-reduction, clamped at ``one``) is not finite, so some
      partial path sum could overflow to the wrong infinity.

    One ⊕-reduction per block gives every layer's extreme cost and shows
    any NaN, since min and max propagate NaN; the extremes are then
    checked and folded layer by layer, in order.  Costs that pass can
    run through :attr:`Semiring.raw_mul`.  ``source`` starts every
    message, e.g. ``"edge_cost returned"``.
    """
    k = 0  # the index of the next layer
    if sr.raw_mul_op is None:
        for block in blocks:
            if block.dtype.kind in "fc":
                nan = np.isnan(block.reshape(len(block), -1)).any(axis=1)
                if nan.any():
                    raise GraphError(f"{source} NaN in layer {k + int(nan.argmax())}")
            k += len(block)
        return
    wrong = -sr.zero
    one = sr.one
    add, mul = sr.scalar_ops
    bound = one
    for block in blocks:
        for extreme in sr.add_reduce(block.reshape(len(block), -1), axis=1).tolist():
            if extreme != extreme:
                raise GraphError(f"{source} NaN in layer {k}")
            if extreme == wrong:
                raise GraphError(
                    f"{source} {wrong} in layer {k}, the wrong infinity for {sr.name}"
                )
            bound = mul(bound, add(extreme, one))
            k += 1
    if not math.isfinite(bound):
        raise GraphError(f"{source} costs whose path sums overflow under {sr.name}")


def _frozen(block: np.ndarray) -> np.ndarray:
    block.setflags(write=False)
    return block


def _blocks_of(sr: Semiring, layers: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One read-only ``(n, rows, cols)`` copy per maximal run of same-shape
    layers: each run is stacked in one ``np.array`` copy, so the caller's
    arrays are never aliased."""
    return tuple(
        _frozen(np.array(list(run), dtype=sr.dtype))
        for _, run in itertools.groupby(layers, key=np.shape)
    )


def _views(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Every layer of ``blocks``, in order, as a read-only view."""
    return tuple(itertools.chain.from_iterable(blocks))


@dataclasses.dataclass(frozen=True)
class MultistageGraph:
    """A multistage graph in edge-cost form.

    Parameters
    ----------
    costs:
        ``costs[k]`` is the cost matrix between stage ``k`` and stage
        ``k + 1`` with shape ``(size of stage k, size of stage k + 1)``;
        entry ``(i, j)`` is the cost of the edge from node ``i`` of stage
        ``k`` to node ``j`` of stage ``k + 1``.  ``semiring.zero``
        (``+inf`` for min-plus) encodes a missing edge.  The graph copies
        each maximal run of same-shape layers once into one read-only,
        C-contiguous block it owns (:attr:`cost_blocks`) and keeps
        ``costs`` as read-only views into those blocks, checked by
        :func:`check_cost_layers`.
    semiring:
        The cost algebra; min-plus by default (shortest path).

    The number of stages is ``len(costs) + 1``.
    """

    costs: tuple[np.ndarray, ...]
    semiring: Semiring = MIN_PLUS

    def __post_init__(self) -> None:
        if not self.costs:
            raise GraphError("a multistage graph needs at least one edge layer")
        sr = self.semiring
        mats = [np.asarray(c) for c in self.costs]
        for k, c in enumerate(mats):
            if c.ndim != 2:
                raise GraphError(f"costs[{k}] must be 2-D, got shape {c.shape}")
            if min(c.shape) < 1:
                raise GraphError(f"costs[{k}] has an empty stage: shape {c.shape}")
        for k in range(len(mats) - 1):
            if mats[k].shape[1] != mats[k + 1].shape[0]:
                raise GraphError(
                    f"stage-size mismatch between layers {k} and {k + 1}: "
                    f"{mats[k].shape} then {mats[k + 1].shape}"
                )
        blocks = _blocks_of(sr, mats)
        check_cost_layers(sr, blocks, "costs contain")
        costs = _views(blocks)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "_blocks", blocks)

    @classmethod
    def _adopt(
        cls,
        blocks: tuple[np.ndarray, ...],
        costs: tuple[np.ndarray, ...],
        semiring: Semiring,
    ) -> "MultistageGraph":
        """A graph over blocks built and checked elsewhere
        (:meth:`NodeValueProblem.to_graph`): no copy and no second check."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "costs", costs)
        object.__setattr__(graph, "semiring", semiring)
        object.__setattr__(graph, "_blocks", blocks)
        return graph

    def __reduce__(self) -> tuple[Any, ...]:
        # Copies and unpickled graphs go through the constructor, so they
        # own fresh blocks and start without a memoized digest or sizes.
        return (type(self), (self.costs, self.semiring))

    @property
    def cost_blocks(self) -> tuple[np.ndarray, ...]:
        """The read-only, C-contiguous ``(n, rows, cols)`` blocks the graph
        owns, one per maximal run of same-shape layers, source side first:
        one for a uniform graph, three for a ``[1, m, …, m, 1]`` graph, one
        per layer for a ragged one.  Every entry of ``costs`` is a view
        into one of them."""
        return self._blocks

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        """Number of vertex stages (``len(costs) + 1``)."""
        return len(self.costs) + 1

    @property
    def num_layers(self) -> int:
        """Number of edge layers between adjacent stages."""
        return len(self.costs)

    @functools.cached_property
    def stage_sizes(self) -> tuple[int, ...]:
        """Vertex count of every stage, source side first."""
        sizes = [s for b in self.cost_blocks for s in [b.shape[1]] * len(b)]
        return (*sizes, self.cost_blocks[-1].shape[2])

    @property
    def is_single_source_sink(self) -> bool:
        """True when the first and last stages each hold exactly one vertex."""
        sizes = self.stage_sizes
        return sizes[0] == 1 and sizes[-1] == 1

    def num_edges(self) -> int:
        """Total number of present (non-``zero``) edges."""
        return int(sum(np.count_nonzero(c != self.semiring.zero) for c in self.costs))

    # ------------------------------------------------------------------
    # Matrix-string view (Section 3.1)
    # ------------------------------------------------------------------
    def as_matrices(self) -> list[np.ndarray]:
        """The cost matrices as the string to be semiring-multiplied.

        Multiplying the returned string left-to-right (or in any other
        association — the semiring is associative) yields the matrix of
        optimal costs from every stage-0 vertex to every final-stage
        vertex, exactly eq. (8) of the paper.
        """
        return [c.copy() for c in self.costs]

    def serial_op_count(self) -> int:
        """Shift-multiply-accumulate count of the single-PE evaluation.

        Evaluates the matrix string right-to-left as matrix-vector
        products, the uniprocessor schedule the paper compares against.
        For an ``(N+1)``-stage single-source/sink graph with ``m`` nodes
        per intermediate stage this equals ``(N - 2)·m² + m`` (the
        denominator of eq. 9).
        """
        sizes = self.stage_sizes
        # Right-to-left: the last cost matrix collapses to a vector of
        # length sizes[-2] for free; each earlier layer k is a
        # (sizes[k] x sizes[k+1]) mat-vec.
        return int(sum(sizes[k] * sizes[k + 1] for k in range(self.num_layers - 1)))

    # ------------------------------------------------------------------
    # Path enumeration (brute-force oracle for tests)
    # ------------------------------------------------------------------
    def iter_paths(self) -> Iterator[tuple[int, ...]]:
        """Yield every source→sink path as a tuple of per-stage node indices.

        Exponential in the number of stages; intended only as a
        brute-force oracle on small instances.
        """
        ranges = [range(s) for s in self.stage_sizes]
        yield from itertools.product(*ranges)

    def path_cost(self, path: Sequence[int]) -> float:
        """⊗-accumulated cost of a full path (one node index per stage)."""
        if len(path) != self.num_stages:
            raise GraphError(
                f"path length {len(path)} != number of stages {self.num_stages}"
            )
        sizes = self.stage_sizes
        for k, node in enumerate(path):
            if not 0 <= node < sizes[k]:
                raise GraphError(f"path[{k}] = {node} outside stage of size {sizes[k]}")
        sr = self.semiring
        acc = sr.one
        for k in range(self.num_layers):
            acc = sr.scalar_mul(acc, float(self.costs[k][path[k], path[k + 1]]))
        return acc

    def brute_force_optimum(self) -> tuple[float, tuple[int, ...]]:
        """Best cost and path by exhaustive enumeration (small graphs only)."""
        sr = self.semiring
        best_cost = sr.zero
        best_path: tuple[int, ...] | None = None
        for path in self.iter_paths():
            c = self.path_cost(path)
            if sr.scalar_add(c, best_cost) == c and (
                best_path is None or c != best_cost
            ):
                best_cost, best_path = c, path
            elif best_path is None:
                best_cost, best_path = c, path
        assert best_path is not None
        return best_cost, best_path

    def reversed(self) -> "MultistageGraph":
        """The same graph traversed sink→source (matrices transposed, reversed)."""
        return MultistageGraph(
            costs=tuple(c.T for c in reversed(self.costs)), semiring=self.semiring
        )


@dataclasses.dataclass(frozen=True)
class NodeValueProblem:
    """A serial optimization problem in node-value form (paper eq. 4).

    ``min_X Σ_{i=1}^{N-1} g(X_i, X_{i+1})`` where each discrete variable
    ``X_i`` takes the quantized values ``values[i]`` and the stage cost
    ``g`` is computed from the endpoint values.  Only node values — not
    ``m²`` edge costs per layer — need to enter a systolic array, which is
    the input-bandwidth argument for the Fig. 5 design.

    Parameters
    ----------
    values:
        ``values[k]`` is the 1-D array of quantized values of variable
        ``X_{k+1}`` (stage ``k``).  The problem keeps read-only float64
        copies; NaN values raise :class:`GraphError`.
    edge_cost:
        Vectorized ``g``: called as ``edge_cost(xk, xk1)`` on broadcastable
        arrays of stage-``k`` and stage-``k+1`` values, returns elementwise
        costs.  The paper assumes ``g`` independent of the stage index
        (required for systolic feeding); a per-stage variant can be
        expressed by baking the stage index into the node values.  It
        runs once per layer, the first time any cost is read; costs that
        fail :func:`check_cost_layers` (NaN, the wrong infinity, an
        overflowing path sum) raise :class:`GraphError` then.
    semiring:
        Cost algebra, min-plus by default.
    """

    values: tuple[np.ndarray, ...]
    edge_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    semiring: Semiring = MIN_PLUS

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise GraphError("a node-value problem needs at least two stages")
        # Owned copies: later edits to the caller's arrays must not change
        # the problem, its cached costs or its cache digest.
        vals = tuple(np.array(v, dtype=np.float64) for v in self.values)
        for k, v in enumerate(vals):
            if v.ndim != 1:
                raise GraphError(f"values[{k}] must be 1-D, got shape {v.shape}")
            if v.size == 0:
                raise GraphError(f"values[{k}] is empty")
            if _has_nan(v):
                raise GraphError(f"values[{k}] contains NaN")
            v.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __reduce__(self) -> tuple[Any, ...]:
        # Copies and unpickled problems go through the constructor, so
        # they own fresh read-only values and start with empty caches.
        return (type(self), (self.values, self.edge_cost, self.semiring))

    @property
    def num_stages(self) -> int:
        """Number of variables / stages ``N``."""
        return len(self.values)

    @functools.cached_property
    def stage_sizes(self) -> tuple[int, ...]:
        """Number of quantized values in each stage."""
        return tuple(v.size for v in self.values)

    @functools.cached_property
    def is_uniform(self) -> bool:
        """True when every stage has the same number of quantized values."""
        sizes = self.stage_sizes
        return all(s == sizes[0] for s in sizes)

    @functools.cached_property
    def cost_blocks(self) -> tuple[np.ndarray, ...]:
        """Every layer's cost matrix, built on first use: one read-only,
        C-contiguous ``(n, rows, cols)`` block per maximal run of
        same-shape layers, as :attr:`MultistageGraph.cost_blocks`."""
        sizes, values = self.stage_sizes, self.values
        blocks = []
        k = 0
        for shape, run in itertools.groupby(zip(sizes, sizes[1:])):
            block = np.empty((len(list(run)), *shape), dtype=self.semiring.dtype)
            for layer in block:
                out = self.edge_cost(values[k][:, None], values[k + 1][None, :])
                if np.shape(out) != shape:
                    raise GraphError(
                        f"edge_cost returned shape {np.shape(out)}, expected {shape}; "
                        "it must be vectorized over broadcast inputs"
                    )
                # A copy: ``edge_cost`` may hand back an array it still owns.
                layer[...] = out
                k += 1
            blocks.append(_frozen(block))
        check_cost_layers(self.semiring, blocks, "edge_cost returned")
        return tuple(blocks)

    @functools.cached_property
    def _cost_layers(self) -> tuple[np.ndarray, ...]:
        """Every layer's cost matrix, as read-only views into :attr:`cost_blocks`."""
        return _views(self.cost_blocks)

    def cost_matrix(self, k: int) -> np.ndarray:
        """Materialized cost matrix between stage ``k`` and ``k + 1``.

        ``out[i, j] = g(values[k][i], values[k+1][j])`` — used to convert
        the problem to edge-cost form and by the sequential reference
        solver.  All layers are built together on the first call and
        shared by every later one, so the result is read-only.
        """
        if not 0 <= k < self.num_stages - 1:
            raise GraphError(f"layer index {k} out of range")
        return self._cost_layers[k]

    def to_graph(self) -> MultistageGraph:
        """The equivalent edge-cost multistage graph, built once.

        The graph adopts the problem's blocks and layer views without a
        copy, so every caller (oracle, divide-and-conquer route, fault
        harness) shares one graph and one set of blocks.
        """
        graph: MultistageGraph | None = vars(self).get("_graph")
        if graph is None:
            # Frozen dataclass: the memo goes straight into ``__dict__``,
            # as ``cached_property`` does.
            graph = vars(self)["_graph"] = MultistageGraph._adopt(
                self.cost_blocks, self._cost_layers, self.semiring
            )
        return graph

    def input_bandwidth(self) -> tuple[int, int]:
        """(node-value inputs, edge-cost inputs) for this instance.

        The first component is what the Fig. 5 array reads
        (``Σ m_k`` values); the second is what an edge-fed array would
        read (``Σ m_k·m_{k+1}`` costs).  Their ratio is the
        "order-of-magnitude reduction in input overhead" claimed in
        Section 3.2.
        """
        sizes = self.stage_sizes
        node_inputs = int(sum(sizes))
        edge_inputs = int(sum(sizes[k] * sizes[k + 1] for k in range(len(sizes) - 1)))
        return node_inputs, edge_inputs
