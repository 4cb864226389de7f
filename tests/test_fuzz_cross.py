"""Cross-solver fuzz suite: every route must agree on random instances.

Heavier randomized integration checks than the per-module property
tests: instances are drawn with varied shapes, sparsity and semirings,
and pushed through every applicable solver pair.

Every test here is fully deterministic: ``derandomize=True`` makes
Hypothesis derive its examples from the test structure alone (no
ambient entropy, no example database), and each test ``note()``s the
instance seed, so a failure prints exactly which ``np.random``
generator seed to replay.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro import solve, solve_batch
from repro.dnc import simulate_chain_product
from repro.dp import solve_backward, solve_forward, solve_polyadic
from repro.graphs import (
    MultistageGraph,
    NodeValueProblem,
    circuit_design_problem,
    fluid_flow_problem,
    gain_schedule_problem,
    inventory_problem,
    production_problem,
    random_multistage,
    scheduling_problem,
    traffic_light_problem,
)
from repro.search import branch_and_bound
from repro.semiring import MAX_PLUS, MIN_PLUS, PLUS_TIMES, chain_product
from repro.systolic import (
    BroadcastMatrixStringArray,
    BroadcastParenthesizer,
    FeedbackSystolicArray,
    PipelinedMatrixStringArray,
    SystolicParenthesizer,
)

# PLUS_TIMES is the counting semiring (non-idempotent ⊕); integer-valued
# matrices keep its sums exact, so the cross-backend checks below can
# demand *bit-identical* floats even though the fast backend may reduce
# in a different association order than the RTL sweep.
CROSS_SEMIRINGS = (MIN_PLUS, MAX_PLUS, PLUS_TIMES)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=2, max_value=7),
    sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=7),
)
@settings(max_examples=40, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_monadic_polyadic_bnb_agree(seed, n_stages, sizes):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    g = random_multistage(rng, sizes)
    back = solve_backward(g).optimum
    fwd = solve_forward(g).optimum
    poly = solve_polyadic(g).optimum
    bnb = branch_and_bound(g).optimum
    assert np.isclose(back, fwd)
    assert np.isclose(back, poly)
    assert np.isclose(back, bnb)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_layers=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=4),
    prob=st.floats(min_value=0.4, max_value=1.0),
)
@settings(max_examples=40, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_sparse_graphs_through_arrays(seed, n_layers, m, prob):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    sizes = [1] + [m] * (n_layers - 1) + [1]
    g = random_multistage(rng, sizes, edge_probability=prob)
    ref = solve_backward(g).optimum
    pipe = float(np.asarray(PipelinedMatrixStringArray().run_graph(g).value).squeeze())
    bcast = float(np.asarray(BroadcastMatrixStringArray().run_graph(g).value).squeeze())
    assert np.isclose(pipe, ref, equal_nan=True) or (np.isinf(pipe) and np.isinf(ref))
    assert np.isclose(bcast, ref, equal_nan=True) or (np.isinf(bcast) and np.isinf(ref))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_scheduled_products_exact(seed, n, k):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    mats = [rng.uniform(0, 9, (3, 3)) for _ in range(n)]
    ref = chain_product(MIN_PLUS, mats)
    for policy in ("leftmost", "balanced"):
        res = simulate_chain_product(n, k, policy=policy, matrices=mats)
        assert np.allclose(res.product, ref)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_feedback_array_with_awkward_costs(seed, n_stages, m):
    # Cost functions with negatives and plateaus (ties) — the argmin
    # bookkeeping must still trace a path that re-costs to the optimum.
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    values = tuple(rng.uniform(-5, 5, m) for _ in range(n_stages))
    from repro.graphs import NodeValueProblem

    p = NodeValueProblem(
        values=values,
        edge_cost=lambda a, b: np.round(np.abs(a - b), 1) - 2.0,
    )
    res = FeedbackSystolicArray().run(p)
    from repro.dp import solve_node_value

    ref = solve_node_value(p)
    assert np.isclose(res.optimum, ref.optimum)
    assert np.isclose(p.to_graph().path_cost(res.path.nodes), res.optimum)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_layers=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_max_plus_duality_everywhere(seed, n_layers, m):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    costs = tuple(rng.uniform(0, 9, (m, m)) for _ in range(n_layers))
    g_max = MultistageGraph(costs=costs, semiring=MAX_PLUS)
    g_neg = MultistageGraph(costs=tuple(-c for c in costs), semiring=MIN_PLUS)
    assert np.isclose(
        solve_backward(g_max).optimum, -solve_backward(g_neg).optimum
    )
    assert np.isclose(
        solve_polyadic(g_max).optimum, -solve_polyadic(g_neg).optimum
    )


# ----------------------------------------------------------------------
# Cross-backend (RTL vs. vectorized fast) agreement
# ----------------------------------------------------------------------


def _int_matrix_string(rng, n_layers, m, *, leftmost_row):
    """Random integer-valued matrix string, optionally in 1×m row form."""
    mats = [rng.integers(0, 7, size=(m, m)).astype(float) for _ in range(n_layers - 1)]
    mats.append(rng.integers(0, 7, size=(m, 1)).astype(float))
    if leftmost_row and mats:
        mats[0] = mats[0][:1, :] if mats[0].shape[0] > 1 else mats[0]
    return mats


def _assert_reports_match(rtl, fast, what):
    assert rtl.backend == "rtl" and fast.backend == "fast", what
    assert rtl.iterations == fast.iterations, what
    assert rtl.wall_ticks == fast.wall_ticks, what
    assert rtl.serial_ops == fast.serial_ops, what
    assert rtl.processor_utilization == fast.processor_utilization, what
    assert rtl.busy_fraction == fast.busy_fraction, what


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_layers=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=5),
    sr_idx=st.integers(min_value=0, max_value=2),
    leftmost_row=st.booleans(),
)
@settings(max_examples=60, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_pipelined_backends_bit_identical(seed, n_layers, m, sr_idx, leftmost_row):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    sr = CROSS_SEMIRINGS[sr_idx]
    mats = _int_matrix_string(rng, n_layers, m, leftmost_row=leftmost_row)
    arr = PipelinedMatrixStringArray(sr)
    rtl = arr.run(mats, backend="rtl")
    fast = arr.run(mats, backend="fast")
    assert np.array_equal(np.asarray(rtl.value), np.asarray(fast.value))
    _assert_reports_match(rtl.report, fast.report, (sr.name, n_layers, m))
    # The closed-form counters reproduce every field the machine measures.
    assert dataclasses.replace(rtl.report, backend="fast") == fast.report


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_layers=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=5),
    sr_idx=st.integers(min_value=0, max_value=2),
    leftmost_row=st.booleans(),
)
@settings(max_examples=60, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_broadcast_backends_bit_identical(seed, n_layers, m, sr_idx, leftmost_row):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    sr = CROSS_SEMIRINGS[sr_idx]
    mats = _int_matrix_string(rng, n_layers, m, leftmost_row=leftmost_row)
    arr = BroadcastMatrixStringArray(sr)
    track = sr.add_argreduce is not None
    rtl = arr.run(mats, track_decisions=track, backend="rtl")
    fast = arr.run(mats, track_decisions=track, backend="fast")
    assert np.array_equal(np.asarray(rtl.value), np.asarray(fast.value))
    _assert_reports_match(rtl.report, fast.report, (sr.name, n_layers, m))
    assert dataclasses.replace(rtl.report, backend="fast") == fast.report
    if track:
        # The chain's certificate covers the arg-reduced decisions too.
        assert fast.certified is True
        assert len(rtl.decisions) == len(fast.decisions)
        for d_rtl, d_fast in zip(rtl.decisions, fast.decisions):
            assert np.array_equal(d_rtl, d_fast)


def _assert_feedback_bit_identical(problem, what):
    arr = FeedbackSystolicArray()
    rtl = arr.run(problem, backend="rtl")
    fast = arr.run(problem, backend="fast")
    assert rtl.optimum == fast.optimum, what
    assert rtl.path.nodes == fast.path.nodes, what
    assert rtl.final_stage_values.tolist() == fast.final_stage_values.tolist(), what
    _assert_reports_match(rtl.report, fast.report, what)
    assert dataclasses.replace(rtl.report, backend="fast") == fast.report, what


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_feedback_backends_bit_identical(seed, n_stages, m):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    values = tuple(rng.integers(-5, 6, m).astype(float) for _ in range(n_stages))
    p = NodeValueProblem(
        values=values, edge_cost=lambda a, b: np.abs(a - b) - 2.0
    )
    _assert_feedback_bit_identical(p, (n_stages, m))


#: Every node-value generator; each takes ``(rng, stages, width)``
#: (``inventory_problem``'s width is its stock cap, so it has one more
#: value per stage).
NODE_VALUE_GENERATORS = (
    traffic_light_problem,
    circuit_design_problem,
    fluid_flow_problem,
    scheduling_problem,
    inventory_problem,
    production_problem,
    gain_schedule_problem,
)


@pytest.mark.parametrize("generator", NODE_VALUE_GENERATORS, ids=lambda g: g.__name__)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=2, max_value=8),
    m=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_feedback_generators_bit_identical(generator, seed, n_stages, m):
    # Real-valued costs with squares, so a scalar g on 0-d operands could
    # round differently from the cost block the fast kernel reads.
    note(f"instance seed={seed}")
    problem = generator(np.random.default_rng(seed), n_stages, m)
    _assert_feedback_bit_identical(problem, (generator.__name__, seed, n_stages, m))


def test_feedback_circuit_seed156_bit_identical():
    # 0-d ``**2`` rounded one entry of this instance 1 ulp away from the
    # block: rtl gave 0.8979416223291321 against fast 0.897941622329132.
    problem = circuit_design_problem(np.random.default_rng(156), 8, 4)
    _assert_feedback_bit_identical(problem, "circuit seed 156")
    assert FeedbackSystolicArray().run(problem).optimum == 0.897941622329132


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_mats=st.integers(min_value=1, max_value=14),
    systolic=st.booleans(),
    tie_heavy=st.booleans(),
)
@settings(max_examples=40, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_parenthesizer_backends_agree(seed, n_mats, systolic, tie_heavy):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    # Dims in 1..3 make many splits tie (rtl and fast may then pick
    # different splits of the same cost).
    dims = tuple(int(d) for d in rng.integers(1, 4 if tie_heavy else 30, size=n_mats + 1))
    engine = SystolicParenthesizer() if systolic else BroadcastParenthesizer()
    rtl = engine.run(dims, backend="rtl")
    fast = engine.run(dims, backend="fast")
    assert rtl.order.cost == fast.order.cost
    assert rtl.steps == fast.steps
    assert rtl.subproblem_completion == fast.subproblem_completion
    assert rtl.alternatives_evaluated == fast.alternatives_evaluated
    _assert_reports_match(rtl.report, fast.report, (dims, systolic))
    # Per-PE busy ticks and every other counter match the closed forms.
    assert dataclasses.replace(rtl.report, backend="fast") == fast.report


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_layers=st.integers(min_value=2, max_value=5),
    m=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_auto_backend_matches_both(seed, n_layers, m):
    # "auto" must return the fast result and silently pass its
    # cross-validation against RTL on these small instances.
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    mats = _int_matrix_string(rng, n_layers, m, leftmost_row=False)
    arr = PipelinedMatrixStringArray(PLUS_TIMES)
    auto = arr.run(mats, backend="auto")
    fast = arr.run(mats, backend="fast")
    assert auto.report.backend == "fast"
    assert np.array_equal(np.asarray(auto.value), np.asarray(fast.value))


def _dnc_problem(rng, kind, sr, sizes, prob):
    """A graph, or a node-value problem whose far-apart values share no edge."""
    if kind == "graph":
        return random_multistage(rng, sizes, semiring=sr, edge_probability=prob)
    values = tuple(rng.integers(0, 6, s).astype(float) for s in sizes)
    limit = 6.0 * prob  # prob = 1 keeps every edge

    def cost(a, b):
        d = np.abs(a - b)
        # Ties (integer steps), negative costs and missing edges.
        return np.where(d > limit, sr.zero, np.round(1.5 * d, 1) - 2.0)

    return NodeValueProblem(values=values, edge_cost=cost, semiring=sr)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(["graph", "node_value"]),
    semiring=st.sampled_from([MIN_PLUS, MAX_PLUS]),
    single_source=st.booleans(),
    m=st.integers(min_value=1, max_value=4),
    n_stages=st.integers(min_value=2, max_value=24),
    prob=st.floats(min_value=0.4, max_value=1.0),
)
@settings(max_examples=40, deadline=None, derandomize=True, print_blob=True)
def test_fuzz_dnc_route_backends_agree(
    seed, kind, semiring, single_source, m, n_stages, prob
):
    note(f"instance seed={seed}")
    rng = np.random.default_rng(seed)
    if kind == "node_value":
        n_stages = max(n_stages, 4 * m + 1)  # polyadic: N > 4·m routes to dnc
    sizes = [m] * n_stages
    if single_source:
        sizes[0] = sizes[-1] = 1
    problem = _dnc_problem(rng, kind, semiring, sizes, prob)
    graph = problem.to_graph() if kind == "node_value" else problem
    n = graph.num_layers
    schedule = simulate_chain_product(n, max(1, math.ceil(n / max(math.log2(n), 1.0))))

    reports = {b: solve(problem, prefer="dnc", backend=b) for b in ("fast", "auto", "rtl")}
    fast = reports["fast"]
    assert fast.optimum == solve_backward(graph).optimum
    for backend, rep in reports.items():
        assert rep.method.startswith("divide-and-conquer")
        assert rep.validated
        assert np.float64(rep.optimum).tobytes() == np.float64(fast.optimum).tobytes()
        assert rep.solution.tobytes() == fast.solution.tobytes()
        for field in dataclasses.fields(schedule):
            if field.name != "product":
                assert getattr(rep.detail, field.name) == getattr(schedule, field.name)
        if backend == "rtl":
            per_source = semiring.add_reduce(rep.detail.product, axis=1)
            assert np.isclose(per_source, rep.solution, rtol=1e-9, atol=1e-9).all()
        else:
            assert rep.detail.product is None

    for backend in ("fast", "rtl"):
        batched = solve_batch([problem, graph], prefer="dnc", backend=backend)
        for rep, single in zip(batched, (problem, graph)):
            ref = solve(single, prefer="dnc", backend=backend)
            assert rep.method == ref.method
            assert rep.optimum == ref.optimum
            assert rep.solution.tobytes() == ref.solution.tobytes()
            assert rep.detail.rounds == ref.detail.rounds
