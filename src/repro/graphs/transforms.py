"""Graph transforms: adapting problems to array-shaped inputs.

The Fig. 3/4 linear arrays consume single-sink strings (the paper's
single-source/single-sink analysis); :func:`add_virtual_terminals`
adapts any uniform multistage graph by framing it with zero-cost
(⊗-identity) boundary stages, preserving the optimum — the standard
reduction the paper applies implicitly when it speaks of "the first and
last matrices degenerate into row and column vectors".
"""

from __future__ import annotations

from .multistage import MultistageGraph, _frozen

__all__ = ["add_virtual_terminals"]


def add_virtual_terminals(graph: MultistageGraph) -> MultistageGraph:
    """Frame ``graph`` with a zero-cost virtual source and sink.

    The returned graph has stage sizes ``(1,) + old + (1,)``; the added
    boundary edges carry the semiring ⊗-identity (cost 0 for min-plus),
    so its single source→sink optimum equals the ⊕-reduction of the
    original graph's full first-stage × last-stage cost matrix.  Tests
    assert the equality on random instances.

    The framed graph adopts ``graph``'s checked, read-only cost blocks
    without a copy, between two read-only blocks of ⊗-identities, which
    pass any entry check.  A 1×1 boundary layer would share a run with
    its terminal, so that graph goes through the constructor instead.

    Idempotent in effect (framing an already single-source/sink graph
    adds degenerate unit stages but leaves the optimum unchanged).
    """
    sr = graph.semiring
    sizes = graph.stage_sizes
    source_row = sr.ones((1, 1, sizes[0]))
    sink_col = sr.ones((1, sizes[-1], 1))
    costs = graph.costs
    if costs[0].shape == source_row.shape[1:] or costs[-1].shape == sink_col.shape[1:]:
        return MultistageGraph(costs=(source_row[0], *costs, sink_col[0]), semiring=sr)
    blocks = (_frozen(source_row), *graph.cost_blocks, _frozen(sink_col))
    return MultistageGraph._adopt(blocks, (blocks[0][0], *costs, blocks[-1][0]), sr)
