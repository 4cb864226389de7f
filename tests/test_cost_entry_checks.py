"""Costs are checked once where they enter; inside, ⊗ runs unguarded.

Min-plus and max-plus kernels, oracle sweeps and the dnc value use the
bare ``np.add`` (``Semiring.raw_mul``).  That equals the guarded ``mul``
only when no ``(+inf) + (-inf)`` can arise, so every entry rejects the
wrong infinity and cost layers whose path sums can overflow to it.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro import solve, solve_batch
from repro.dp import solve_backward, solve_forward
from repro.graphs import (
    GraphError,
    MultistageGraph,
    NodeValueProblem,
    check_cost_layers,
    gain_schedule_problem,
    single_source_sink,
    uniform_multistage,
)
from repro.io import graph_from_dict, load_graph
from repro.semiring import MAX_PLUS, MIN_PLUS, standard
from repro.systolic import (
    BroadcastMatrixStringArray,
    FeedbackSystolicArray,
    PipelinedMatrixStringArray,
)

inf = np.inf

#: Both matrix-string arrays check their operands once at entry.
STRING_ARRAYS = (PipelinedMatrixStringArray, BroadcastMatrixStringArray)


def _assert_feedback_rejects(problem, message):
    """Both Fig. 5 backends raise at entry; rtl before its first tick."""
    events = []
    for kw in ({"backend": "fast"}, {"backend": "rtl"}, {"sinks": (events.append,)}):
        with pytest.raises(GraphError, match=message):
            FeedbackSystolicArray().run(problem, **kw)
    assert events == []


#: Without the overflow rule the unguarded forward sweep returns NaN here:
#: -1e308 + -1e308 overflows to -inf, which then meets the +inf edge.
OVERFLOW_COSTS = (
    [[-1e308, -1e308]],
    [[-1e308, 1.0], [1.0, 1.0]],
    [[inf], [0.0]],
)


class TestWrongInfinity:
    def test_min_plus_graph(self):
        with pytest.raises(GraphError, match="wrong infinity"):
            MultistageGraph(costs=([[1.0, -inf]], [[0.0], [2.0]]))

    def test_max_plus_graph(self):
        with pytest.raises(GraphError, match="wrong infinity"):
            MultistageGraph(costs=([[1.0, inf]], [[0.0], [2.0]]), semiring=MAX_PLUS)

    def test_zero_of_the_semiring_is_a_missing_edge(self):
        MultistageGraph(costs=([[1.0, inf]], [[0.0], [2.0]]))
        MultistageGraph(costs=([[1.0, -inf]], [[0.0], [2.0]]), semiring=MAX_PLUS)

    def test_node_value_edge_cost(self):
        problem = NodeValueProblem(
            values=([0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
            edge_cost=lambda x, y: np.where(x > y, -inf, y - x),
        )
        with pytest.raises(GraphError, match="edge_cost returned -inf in layer 0"):
            problem.cost_matrix(0)
        with pytest.raises(GraphError, match="wrong infinity"):
            solve(problem)

    def test_feedback_array_edge_cost(self):
        problem = NodeValueProblem(
            values=([0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
            edge_cost=lambda x, y: np.where(x > y, -inf, y - x),
        )
        _assert_feedback_rejects(problem, "edge_cost returned -inf in layer 0")

    def test_pipelined_array_raw_matrices(self):
        mats = [np.array([[1.0, 2.0]]), np.array([[0.0, -inf], [1.0, 1.0]]),
                np.array([[0.0], [1.0]])]
        for array in STRING_ARRAYS:
            for backend in ("rtl", "fast"):
                with pytest.raises(GraphError, match="wrong infinity"):
                    array().run(mats, backend=backend)

    def test_pipelined_array_raw_sink_vector(self):
        mats = [np.array([[1.0, 2.0]]), np.array([[0.0], [-inf]])]
        for array in STRING_ARRAYS:
            with pytest.raises(GraphError, match="layer 1"):
                array().run(mats)

    def test_json_loading(self):
        text = '{"kind": "multistage_graph", "semiring": "min-plus", ' \
            '"costs": [[[1.0, -Infinity]], [[0.0], [2.0]]]}'
        with pytest.raises(GraphError, match="wrong infinity"):
            graph_from_dict(json.loads(text))

    def test_npz_loading(self, tmp_path):
        # A file written by other code: save_graph would refuse the graph.
        path = tmp_path / "g.npz"
        np.savez(path, layer_0=np.array([[1.0, -inf]]), layer_1=np.array([[0.0], [2.0]]),
                 semiring=np.asarray("min-plus"))
        with pytest.raises(GraphError, match="wrong infinity"):
            load_graph(path)


class TestOverflow:
    def test_overflowing_path_sum_rejected(self):
        with pytest.raises(GraphError, match="overflow"):
            MultistageGraph(costs=OVERFLOW_COSTS)

    def test_max_plus_overflow_rejected(self):
        costs = tuple(-np.array(c) for c in OVERFLOW_COSTS)
        with pytest.raises(GraphError, match="overflow"):
            MultistageGraph(costs=costs, semiring=MAX_PLUS)

    def test_overflow_in_any_layer_order(self):
        # The sum of all layer minima is finite, but the two negative
        # layers alone overflow in a right-to-left sweep.
        costs = ([[1e308, inf]], [[-1e308], [0.0]], [[-1e308]])
        with pytest.raises(GraphError, match="overflow"):
            MultistageGraph(costs=costs)

    def test_large_costs_that_cannot_overflow_pass(self):
        g = MultistageGraph(costs=([[-1e307, inf]], [[-1e307], [5.0]], [[1e308]]))
        assert solve_backward(g).optimum == pytest.approx(8e307)
        assert solve_forward(g).optimum == pytest.approx(8e307)

    def test_pipelined_array_raw_matrices(self):
        mats = [np.asarray(c) for c in OVERFLOW_COSTS]
        for array in STRING_ARRAYS:
            with pytest.raises(GraphError, match="overflow"):
                array().run(mats, backend="fast")


class TestNanMessages:
    def test_nan_in_raw_matrices(self):
        mats = [np.array([[1.0, np.nan]]), np.array([[0.0], [1.0]])]
        for array in STRING_ARRAYS:
            for backend in ("rtl", "fast"):
                with pytest.raises(GraphError, match="NaN in layer 0"):
                    array().run(mats, backend=backend)

    def test_feedback_array_edge_cost(self):
        problem = NodeValueProblem(
            values=([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
            edge_cost=lambda x, y: np.where(x > y, np.nan, y - x),
        )
        _assert_feedback_rejects(problem, "edge_cost returned NaN in layer 0")


def _random_graph(rng: np.random.Generator, semiring) -> MultistageGraph:
    """Mixed-sign costs of large magnitude with missing edges, always
    within the overflow bound (at most 8 layers of |cost| < 2e307)."""
    n_layers = int(rng.integers(2, 8))
    m = int(rng.integers(2, 5))
    sizes = [1] + [m] * (n_layers - 1) + [1]
    scale = 10.0 ** rng.integers(0, 308)
    costs = []
    for k in range(n_layers):
        c = rng.uniform(-2.0, 2.0, (sizes[k], sizes[k + 1])) * scale
        c[rng.random(c.shape) < 0.3] = semiring.zero
        costs.append(c)
    return MultistageGraph(costs=tuple(costs), semiring=semiring)


def _assert_no_nan(report) -> None:
    assert not np.isnan(report.optimum)
    solution = report.solution
    if isinstance(solution, np.ndarray):
        assert not np.isnan(solution).any()
    elif hasattr(solution, "cost"):
        assert not np.isnan(solution.cost)


@pytest.mark.parametrize("seed", range(6))
def test_checked_inputs_never_yield_nan(seed):
    rng = np.random.default_rng(seed)
    problems = [_random_graph(rng, MIN_PLUS) for _ in range(6)]
    problems += [_random_graph(rng, MAX_PLUS) for _ in range(3)]
    problems.append(
        NodeValueProblem(
            values=tuple(rng.uniform(-1e150, 1e150, 3) for _ in range(6)),
            edge_cost=lambda x, y: x * y,
        )
    )
    for backend in ("rtl", "fast"):
        for problem in problems:
            _assert_no_nan(solve(problem, backend=backend))
            if isinstance(problem, MultistageGraph):
                _assert_no_nan(solve(problem, backend=backend, prefer="dnc"))
        for report in solve_batch(problems, backend=backend):
            _assert_no_nan(report)


def _guard_calls(fn) -> int:
    """Number of Python calls of the guarded min/max-plus ⊗ while ``fn`` runs."""
    guarded = {standard._inf_safe_add.__code__, standard._neg_inf_safe_add.__code__}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in guarded:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_solves_make_no_guarded_mul_call():
    rng = np.random.default_rng(3)
    fig3 = single_source_sink(rng, 6, 4)
    fig5 = gain_schedule_problem(rng, 6, 4)
    dnc = uniform_multistage(rng, 40, 4)
    # The probe itself sees the guard when it is called.
    assert _guard_calls(lambda: MIN_PLUS.mul(np.ones(2), np.ones(2))) == 1
    reports = []
    assert _guard_calls(lambda: reports.append(solve(fig3, backend="rtl"))) == 0
    assert _guard_calls(lambda: reports.append(solve(fig5, backend="rtl"))) == 0
    assert _guard_calls(lambda: reports.append(solve(dnc, backend="fast"))) == 0
    fig4 = lambda: reports.append(solve(fig3, prefer="broadcast", backend="fast"))  # noqa: E731
    assert _guard_calls(fig4) == 0
    methods = [r.method for r in reports]
    assert methods[0].startswith("fig3") and methods[1].startswith("fig5")
    assert methods[2].startswith("divide-and-conquer")
    assert methods[3].startswith("fig4") and reports[3].validation == "certificate"
    assert all(r.validated for r in reports)


def _check_layer_by_layer(sr, layers, source):
    """The per-layer reference of ``check_cost_layers``: one ⊕-reduction
    and one check per layer, the overflow fold in layer order."""
    bound = sr.one
    for k, c in enumerate(layers):
        if sr.raw_mul_op is None:
            if np.isnan(c).any():
                raise GraphError(f"{source} NaN in layer {k}")
            continue
        extreme = float(sr.add_reduce(c, axis=None))
        if extreme != extreme:
            raise GraphError(f"{source} NaN in layer {k}")
        if extreme == -sr.zero:
            raise GraphError(
                f"{source} {-sr.zero} in layer {k}, the wrong infinity for {sr.name}"
            )
        bound = sr.scalar_mul(bound, sr.scalar_add(extreme, sr.one))
    if sr.raw_mul_op is not None and not np.isfinite(bound):
        raise GraphError(f"{source} costs whose path sums overflow under {sr.name}")


def _message(check, *args):
    try:
        check(*args)
    except GraphError as err:
        return str(err)
    return None


class TestOneReductionPerBlock:
    """``check_cost_layers`` reduces each cost block once and reports the
    same layer, message and overflow verdict as a per-layer check."""

    M = 3
    #: A ``[1, m, m, m, m, m, 1]`` graph: blocks of 1, 5 and 1 layers.
    SIZES = (1, M, M, M, M, M, M, 1)

    def _graph_costs(self, sr, rng):
        return [
            rng.integers(0, 5, shape).astype(float) * (1 if sr is MIN_PLUS else -1)
            for shape in zip(self.SIZES, self.SIZES[1:])
        ]

    @pytest.mark.parametrize("sr", [MIN_PLUS, MAX_PLUS], ids=lambda s: s.name)
    @pytest.mark.parametrize("layer", [0, 1, 3, 5, 6])
    @pytest.mark.parametrize("fault", ["nan", "wrong", "overflow"])
    def test_fault_in_the_first_middle_and_last_layer_of_a_block(self, sr, layer, fault):
        costs = self._graph_costs(sr, np.random.default_rng(layer))
        big = 1e308 if sr is MAX_PLUS else -1e308
        if fault == "nan":
            costs[layer][0, -1] = np.nan
        elif fault == "wrong":
            costs[layer][-1, 0] = -sr.zero
        else:
            # Two layers whose extremes each fit but whose sum overflows.
            costs[layer][0, 0] = big
            costs[(layer + 2) % len(costs)][-1, -1] = big
        want = _message(_check_layer_by_layer, sr, costs, "costs contain")
        assert want is not None
        if fault != "overflow":
            assert want.split(" in layer ")[1].startswith(str(layer))
        with pytest.raises(GraphError) as err:
            MultistageGraph(costs=costs, semiring=sr)
        assert str(err.value) == want

    def test_the_graph_has_a_first_middle_and_last_block(self):
        graph = MultistageGraph(costs=self._graph_costs(MIN_PLUS, np.random.default_rng(0)))
        assert [len(block) for block in graph.cost_blocks] == [1, 5, 1]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_faults_match_the_per_layer_reference(self, seed):
        rng = np.random.default_rng(seed)
        sr = (MIN_PLUS, MAX_PLUS, standard.MIN_MAX, standard.BOOLEAN)[seed % 4]
        blocks = [rng.integers(0, 4, (int(rng.integers(1, 5)), 2, 2)).astype(float)
                  for _ in range(3)]
        for _ in range(int(rng.integers(0, 3))):
            block = blocks[int(rng.integers(3))]
            block[int(rng.integers(len(block))), int(rng.integers(2)), int(rng.integers(2))] = (
                rng.choice([np.nan, inf, -inf, 1e308, -1e308])
            )
        layers = [layer for block in blocks for layer in block]
        want = _message(_check_layer_by_layer, sr, layers, "src")
        assert _message(check_cost_layers, sr, blocks, "src") == want
