"""Cost blocks: each problem stacks its same-shape layers once.

A :class:`~repro.graphs.MultistageGraph` and a
:class:`~repro.graphs.NodeValueProblem` own one read-only, C-contiguous
``(n, rows, cols)`` block per maximal run of same-shape layers, and
``costs`` / ``cost_matrix(k)`` are views into them.  The fast kernels,
their certificates, the batch payloads and the digest read the blocks;
every report must stay equal to a per-layer reference.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro import solve, solve_batch
from repro.dnc import simulate_chain_product
from repro.dp import solve_backward, solve_node_value
from repro.exec import problem_digest
from repro.graphs import (
    MultistageGraph,
    NodeValueProblem,
    gain_schedule_problem,
    random_multistage,
    single_source_sink,
    uniform_multistage,
)
from repro.graphs.transforms import add_virtual_terminals
from repro.semiring import MIN_PLUS, matvec, vecmat
from repro.systolic import pipelined_array


def _owned_read_only(block):
    return (
        block.flags.owndata and block.flags.c_contiguous and not block.flags.writeable
    )


def _node_value(rng, sizes):
    return NodeValueProblem(
        values=tuple(rng.uniform(0.0, 5.0, s) for s in sizes),
        edge_cost=lambda a, b: (a - b) ** 2 + 0.3 * a,
    )


# ----------------------------------------------------------------------
# The block contract
# ----------------------------------------------------------------------
class TestGraphBlocks:
    @pytest.mark.parametrize(
        "sizes, shapes",
        [
            ([4] * 9, [(8, 4, 4)]),
            ([1, 4, 4, 4, 4, 1], [(1, 1, 4), (3, 4, 4), (1, 4, 1)]),
            ([2, 3, 4, 1, 2], [(1, 2, 3), (1, 3, 4), (1, 4, 1), (1, 1, 2)]),
            ([3, 3, 2, 2, 2, 3], [(1, 3, 3), (1, 3, 2), (2, 2, 2), (1, 2, 3)]),
        ],
        ids=["uniform", "single-source-sink", "ragged", "mixed"],
    )
    def test_one_owned_block_per_run(self, rng, sizes, shapes):
        g = random_multistage(rng, sizes)
        assert [b.shape for b in g.cost_blocks] == shapes
        assert all(_owned_read_only(b) for b in g.cost_blocks)
        assert g.stage_sizes == tuple(sizes)

    def test_costs_are_read_only_views(self, rng):
        g = single_source_sink(rng, 5, 3)
        layers = [(b, layer) for b in g.cost_blocks for layer in b]
        assert len(layers) == len(g.costs)
        for c, (block, layer) in zip(g.costs, layers):
            assert c.base is block
            np.testing.assert_array_equal(c, layer)
            with pytest.raises(ValueError):
                c[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.cost_blocks[1][0, 0, 0] = 1.0

    def test_callers_arrays_are_never_aliased(self, rng):
        given = [rng.uniform(0, 5, (3, 3)) for _ in range(4)]
        frozen = [c.copy() for c in given]
        for c in frozen:
            c.setflags(write=False)
        for costs in (given, frozen, [c.tolist() for c in given]):
            g = MultistageGraph(costs=tuple(costs))
            for c in given + frozen:
                assert not any(np.shares_memory(c, b) for b in g.cost_blocks)
        g = MultistageGraph(costs=tuple(given))
        given[2][1, 1] = 99.0
        assert g.costs[2][1, 1] != 99.0

    def test_stage_sizes_are_memoized_and_copies_start_without(self, rng):
        g = uniform_multistage(rng, 6, 3)
        assert g.stage_sizes is g.stage_sizes
        for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert "stage_sizes" not in vars(clone)
            assert clone.stage_sizes == g.stage_sizes

    def test_copy_and_pickle_rebuild_the_blocks(self, rng):
        g = single_source_sink(rng, 4, 3)
        for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert len(clone.cost_blocks) == len(g.cost_blocks)
            for a, b in zip(clone.cost_blocks, g.cost_blocks):
                assert _owned_read_only(a) and a is not b
                np.testing.assert_array_equal(a, b)
            assert all(c.base is not None for c in clone.costs)

    def test_framing_adopts_the_graphs_blocks(self, rng):
        g = uniform_multistage(rng, 5, 3)
        framed = add_virtual_terminals(g)
        assert [b.shape for b in framed.cost_blocks] == [(1, 1, 3), (4, 3, 3), (1, 3, 1)]
        assert framed.cost_blocks[1] is g.cost_blocks[0]
        assert np.shares_memory(framed.cost_blocks[1], g.cost_blocks[0])
        assert all(_owned_read_only(b) for b in framed.cost_blocks)
        layers = [layer for block in framed.cost_blocks for layer in block]
        for c, layer in zip(framed.costs, layers):
            assert c.base is not None and not c.flags.writeable
            np.testing.assert_array_equal(c, layer)
        assert framed.stage_sizes == (1, 3, 3, 3, 3, 3, 1)
        # The same graph built by the constructor, which copies every run.
        rebuilt = MultistageGraph(costs=framed.costs)
        for backend in ("fast", "auto", "rtl"):
            for prefer in (None, "broadcast"):
                _assert_same(
                    solve(framed, prefer=prefer, backend=backend),
                    solve(rebuilt, prefer=prefer, backend=backend),
                )

    @pytest.mark.parametrize(
        "sizes", [[1, 1, 3], [3, 1, 1], [1, 1], [1, 1, 1, 1], [1, 3, 3]]
    )
    def test_framing_a_unit_boundary_layer_keeps_one_block_per_run(self, rng, sizes):
        g = random_multistage(rng, sizes)
        framed = add_virtual_terminals(g)
        shapes = [b.shape[1:] for b in framed.cost_blocks]
        assert all(a != b for a, b in zip(shapes, shapes[1:]))
        assert all(_owned_read_only(b) for b in framed.cost_blocks)
        assert framed.stage_sizes == (1, *sizes, 1)
        assert solve_backward(framed).optimum == solve_backward(g).optimum


class TestNodeValueBlocks:
    def test_blocks_follow_the_stage_sizes(self, rng):
        p = _node_value(rng, [3, 3, 3, 2, 2, 4])
        assert [b.shape for b in p.cost_blocks] == [(2, 3, 3), (1, 3, 2), (1, 2, 2), (1, 2, 4)]
        assert all(_owned_read_only(b) for b in p.cost_blocks)
        for k in range(p.num_stages - 1):
            c = p.cost_matrix(k)
            assert c.base is not None and not c.flags.writeable
            want = (p.values[k][:, None] - p.values[k + 1][None, :]) ** 2
            np.testing.assert_array_equal(c, want + 0.3 * p.values[k][:, None])

    def test_to_graph_shares_the_problems_blocks(self, rng):
        p = _node_value(rng, [4] * 7)
        g = p.to_graph()
        assert len(g.cost_blocks) == 1 and g.cost_blocks[0] is p.cost_blocks[0]
        assert all(c is p.cost_matrix(k) for k, c in enumerate(g.costs))
        assert g.stage_sizes == p.stage_sizes

    def test_edge_cost_arrays_are_copied(self, rng):
        owned = np.zeros((3, 3))
        p = NodeValueProblem(values=(np.arange(3.0),) * 3, edge_cost=lambda a, b: owned)
        p.cost_matrix(0)
        owned[0, 0] = 7.0  # the callback's array stays writable, the block does not
        assert p.cost_blocks[0][0, 0, 0] == 0.0
        assert not np.shares_memory(owned, p.cost_blocks[0])


# ----------------------------------------------------------------------
# Every fast route reads the blocks and still equals a per-layer reference
# ----------------------------------------------------------------------
def _backward_chain(graph):
    """Right-to-left ``semiring.matvec`` chain over the layers, one by one."""
    v = graph.semiring.ones(graph.stage_sizes[-1])
    for c in reversed(graph.costs):
        v = matvec(graph.semiring, c, v)
    return v


def _forward_chain(problem):
    """Left-to-right ``semiring.vecmat`` sweep, the Fig. 5 recurrence."""
    h = problem.semiring.ones(problem.stage_sizes[0])
    for k in range(problem.num_stages - 1):
        h = vecmat(problem.semiring, h, problem.cost_matrix(k))
    return h


def _assert_same(a, b):
    assert (a.method, a.optimum, a.reference, a.validated, a.validation) == (
        b.method, b.optimum, b.reference, b.validated, b.validation,
    )
    assert a.detail.report == b.detail.report
    if isinstance(a.solution, np.ndarray):
        assert np.array_equal(a.solution, b.solution)
    else:
        assert a.solution == b.solution


class TestFastReportsEqualPerLayerReference:
    def test_dnc(self, rng):
        for g in (uniform_multistage(rng, 30, 4), single_source_sink(rng, 28, 3)):
            rep = solve(g, prefer="dnc", backend="fast")
            assert (rep.validated, rep.validation) == (True, "certificate")
            assert np.array_equal(rep.solution, _backward_chain(g))
            assert rep.optimum == solve_backward(g).optimum

    def test_dnc_node_value(self, rng):
        p = gain_schedule_problem(rng, 40, 3)
        rep = solve(p, backend="fast")
        assert rep.method.startswith("divide-and-conquer")
        assert np.array_equal(rep.solution, _backward_chain(p.to_graph()))

    def test_fig3(self, rng):
        g = single_source_sink(rng, 6, 4)
        rep = solve(g, backend="fast")
        assert rep.method == "fig3-pipelined-array"
        assert rep.optimum == float(_backward_chain(g)[0]) == solve_backward(g).optimum
        framed = uniform_multistage(rng, 5, 3)
        rep = solve(framed, backend="fast")
        assert rep.solution == _backward_chain(add_virtual_terminals(framed))[0]

    def test_fig4(self, rng):
        g = single_source_sink(rng, 6, 4)
        rep = solve(g, prefer="broadcast", backend="fast")
        ref = solve_backward(g)
        assert rep.method == "fig4-broadcast-array" and rep.validated
        assert rep.optimum == ref.optimum == float(_backward_chain(g)[0])
        assert rep.solution.nodes == ref.path.nodes

    def test_fig5(self, rng):
        p = _node_value(rng, [5] * 9)
        rep = solve(p, backend="fast")
        ref = solve_node_value(p)
        assert rep.method == "fig5-feedback-array" and rep.validated
        assert rep.optimum == ref.optimum == float(MIN_PLUS.add_reduce(_forward_chain(p)))
        assert rep.solution.nodes == ref.path.nodes

    def test_batches(self, rng):
        nodes = [_node_value(rng, [4] * 7) for _ in range(3)]
        graphs = [single_source_sink(rng, 5, 3) for _ in range(3)]
        framed = [uniform_multistage(rng, 5, 3) for _ in range(3)]
        for problems in (nodes, graphs, framed):
            batch = solve_batch(problems, backend="fast")
            assert batch.stats.vectorized_problems == len(problems)
            for row, p in zip(batch, problems):
                _assert_same(row, solve(p, backend="fast"))
        for row, p in zip(solve_batch(nodes, backend="fast"), nodes):
            assert row.optimum == float(MIN_PLUS.add_reduce(_forward_chain(p)))
        for row, g in zip(solve_batch(graphs, backend="fast"), graphs):
            assert row.optimum == float(_backward_chain(g)[0])


def test_reports_do_not_keep_the_chain_stack_alive(rng):
    g = single_source_sink(rng, 6, 3)
    for prefer in ("dnc", None, "broadcast"):
        rep = solve(uniform_multistage(rng, 6, 3) if prefer is None else g, prefer=prefer,
                    backend="fast")
        arrays = [rep.solution, getattr(rep.detail, "value", None)]
        assert all(a.base is None for a in arrays if isinstance(a, np.ndarray)), prefer


def test_chain_writes_a_square_run_into_one_array(rng):
    g = uniform_multistage(rng, 7, 3)
    vec = MIN_PLUS.ones(3)
    ((values, inputs),) = pipelined_array._matvec_chain(MIN_PLUS, g.cost_blocks, vec)
    assert values.base is inputs.base and values.base is not None
    assert np.array_equal(inputs[-1], vec) and np.array_equal(values[1:], inputs[:-1])
    assert np.array_equal(values[0], _backward_chain(g))


# ----------------------------------------------------------------------
# Digest and schedule
# ----------------------------------------------------------------------
class TestDigest:
    def test_equal_content_built_two_ways(self, rng):
        g = single_source_sink(rng, 4, 3)
        for other in (
            MultistageGraph(costs=g.costs),
            MultistageGraph(costs=tuple(c.tolist() for c in g.costs)),
            pickle.loads(pickle.dumps(g)),
        ):
            assert problem_digest(other) == problem_digest(g)
        p = _node_value(rng, [3] * 5)
        q = NodeValueProblem(values=p.values, edge_cost=p.edge_cost)
        assert problem_digest(q) == problem_digest(p)

    def test_equal_bytes_in_different_shapes_differ(self):
        data = np.arange(8.0)
        cube = MultistageGraph(costs=(data[:4].reshape(2, 2), data[4:].reshape(2, 2)))
        bar = MultistageGraph(costs=(data[:4].reshape(1, 4), data[4:].reshape(4, 1)))
        assert [b.tobytes() for b in cube.cost_blocks] != [b.tobytes() for b in bar.cost_blocks]
        assert b"".join(b.tobytes() for b in cube.cost_blocks) == b"".join(
            b.tobytes() for b in bar.cost_blocks
        )
        assert problem_digest(cube) != problem_digest(bar)


def test_symbolic_schedule_is_computed_once_and_shared():
    first = simulate_chain_product(255, 32)
    assert simulate_chain_product(255, 32) is first
    assert simulate_chain_product(255, 32, policy="balanced") is not first
    assert first.product is None and isinstance(first.busy_per_round, tuple)
    assert (first.rounds, first.total_multiplications) == (12, 254)
    mats = [MIN_PLUS.eye(2)] * 3
    executed = simulate_chain_product(3, 2, matrices=mats)
    assert executed.product is not None
    assert simulate_chain_product(3, 2, matrices=mats) is not executed
