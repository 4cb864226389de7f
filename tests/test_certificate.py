"""Certificates: the fast routes are validated from their kernels' tables.

Mutation tests break one kernel at a time — a skewed stage value, a wrong
path register, a stage-shifted chain, a wrong split, a wrong cost — and
require :class:`~repro.ValidationError` through ``solve(backend="fast")``
and through ``solve_batch``.  Seeded tests require the certificate to
accept every oracle-correct result on every stock semiring with an
arg-reduction, and ``SolveReport.validation`` to name the check that ran
on every route × backend × entry point.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import MatrixChainProblem, SolveCache, ValidationError, solve, solve_batch
from repro.core import solver as solver_mod
from repro.dp import (
    certificate,
    random_obst_weights,
    solve_backward,
    solve_matrix_chain,
    solve_node_value,
)
from repro.dp.nonserial import banded_objective
from repro.faults import FaultPlan
from repro.graphs import (
    MultistageGraph,
    NodeValueProblem,
    single_source_sink,
    traffic_light_problem,
    uniform_multistage,
)
from repro.semiring import ALL_SEMIRINGS, PLUS_TIMES
from repro.systolic import (
    ObstSpec,
    TriangularArray,
    broadcast_array,
    feedback_array,
    parenthesization,
    pipelined_array,
    triangular,
)

SELECTIVE = [sr for sr in ALL_SEMIRINGS if sr.add_argreduce is not None]


def _node_value(rng, stages=6, m=4, semiring=None):
    """Uniform node values and a smooth cost: no ties between candidates."""
    values = tuple(rng.uniform(0.0, 5.0, m) for _ in range(stages))
    kwargs = {} if semiring is None else {"semiring": semiring}
    return NodeValueProblem(
        values=values, edge_cost=lambda a, b: (a - b) ** 2 + 0.3 * a, **kwargs
    )


def _chain(rng, n=8):
    return MatrixChainProblem(tuple(int(d) for d in rng.integers(4, 65, size=n + 1)))


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------
def _patch_sweep(monkeypatch, corrupt):
    """Run the Fig. 5 recurrence, then ``corrupt(hs, registers)`` in place."""
    real = feedback_array._forward_sweep

    def sweep(sr, layers):
        hs, registers = (a.copy() for a in real(sr, layers))
        corrupt(hs, registers)
        return hs, registers

    monkeypatch.setattr(feedback_array, "_forward_sweep", sweep)


def _patch_chain(monkeypatch, corrupt):
    """Replace the mat-vec chain (Fig. 3 and Fig. 4 kernel, dnc route) by
    ``corrupt(real_chain, sr, mats, vec)``, seen layer by layer: ``mats``
    are the layers and ``real_chain`` returns the ``L + 1`` stage vectors;
    the result is handed on in the chain's per-block ``(values, inputs)``."""
    real = pipelined_array._matvec_chain

    def per_layer(sr, mats, vec):
        runs = real(sr, pipelined_array._blocks_of(sr, mats), vec)
        return [v for values, _ in runs for v in values] + [vec]

    def chain(sr, blocks, vec):
        stages = corrupt(per_layer, sr, [c for b in blocks for c in b], vec)
        runs, start = [], 0
        for b in blocks:
            stop = start + len(b)
            runs.append((np.array(stages[start:stop]), np.array(stages[start + 1 : stop + 1])))
            start = stop
        return runs

    monkeypatch.setattr(pipelined_array, "_matvec_chain", chain)
    monkeypatch.setattr(solver_mod, "_matvec_chain", chain)


def _patch_tables(monkeypatch, corrupt, module=parenthesization):
    """Build an interval spec's tables in ``module``, then
    ``corrupt(M, S, local)`` in place."""
    real = triangular._interval_dp

    def tables(spec, *dtype):
        M, S = real(spec, *dtype)
        corrupt(M, S, spec.local)
        return M, S

    monkeypatch.setattr(module, "_interval_dp", tables)


def _skew_stage(hs, registers):
    hs[2, ..., 1] += 1.0


def _wrong_register(hs, registers):
    m = hs.shape[-1]
    registers[1, ..., 0] = (registers[1, ..., 0] + 1) % m


def _skew_vector(real, sr, mats, vec):
    values = real(sr, mats, vec)
    values[1] = values[1] + 1.0
    return values


def _shift_stages(real, sr, mats, vec):
    # The interior layers one stage out of place: a wrong sum order.
    return real(sr, mats[:1] + mats[2:-1] + mats[1:2] + mats[-1:], vec)


def _patch_registers(monkeypatch, corrupt):
    """Run Fig. 4's ARG arg-reduction, then ``corrupt(cand, arg)`` in place
    on the first phase it serves."""
    real = broadcast_array._arg_registers
    phases = []

    def registers(sr, cand):
        arg = real(sr, cand).copy()
        if not phases:
            corrupt(cand, arg)
        phases.append(arg)
        return arg

    monkeypatch.setattr(broadcast_array, "_arg_registers", registers)


def _wrong_decision(cand, arg):
    arg[0] = (arg[0] + 1) % cand.shape[1]


def _wrong_cost(M, S, local):
    M[1, len(M) - 2] += 1


def _wrong_split(M, S, local):
    m = len(M) - 2
    cost = [M[1, k] + M[k + 1, m] + local(1, m, k) for k in range(1, m)]
    S[1, m] = 1 + next(k for k, c in enumerate(cost) if c != M[1, m])


MUTATIONS = {
    "fig5-skewed-value": (_patch_sweep, _skew_stage, _node_value, None),
    "fig5-wrong-register": (_patch_sweep, _wrong_register, _node_value, None),
    "fig3-skewed-value": (
        _patch_chain, _skew_vector, lambda rng: uniform_multistage(rng, 6, 4), None
    ),
    "fig3-stage-shifted": (
        _patch_chain, _shift_stages, lambda rng: uniform_multistage(rng, 6, 4), None
    ),
    "dnc-skewed-value": (
        _patch_chain, _skew_vector, lambda rng: uniform_multistage(rng, 12, 3), "dnc"
    ),
    "dnc-stage-shifted": (
        _patch_chain, _shift_stages, lambda rng: uniform_multistage(rng, 12, 3), "dnc"
    ),
    "dnc-node-value-stage-shifted": (
        _patch_chain, _shift_stages, lambda rng: _node_value(rng, 20, 3), None
    ),
    "fig4-skewed-value": (
        _patch_chain, _skew_vector, lambda rng: single_source_sink(rng, 6, 4), "broadcast"
    ),
    "fig4-stage-shifted": (
        _patch_chain, _shift_stages, lambda rng: single_source_sink(rng, 6, 4), "broadcast"
    ),
    "fig4-wrong-decision": (
        _patch_registers, _wrong_decision, lambda rng: single_source_sink(rng, 6, 4),
        "broadcast",
    ),
    "paren-wrong-cost": (_patch_tables, _wrong_cost, _chain, None),
    "paren-wrong-split": (_patch_tables, _wrong_split, _chain, None),
    "paren-broadcast-wrong-split": (_patch_tables, _wrong_split, _chain, "broadcast"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
class TestMutationsAreCaught:
    def test_through_solve(self, name, rng, monkeypatch):
        patch, corrupt, make, prefer = MUTATIONS[name]
        problem = make(rng)
        assert solve(problem, prefer=prefer, backend="fast").validation == "certificate"
        patch(monkeypatch, corrupt)
        with pytest.raises(ValidationError, match="certificate rejects"):
            solve(problem, prefer=prefer, backend="fast")

    def test_through_solve_batch(self, name, rng, monkeypatch):
        patch, corrupt, make, prefer = MUTATIONS[name]
        problems = [make(rng) for _ in range(3)]
        patch(monkeypatch, corrupt)
        with pytest.raises(ValidationError, match="certificate rejects"):
            solve_batch(problems, prefer=prefer, backend="fast")

    def test_rtl_keeps_the_independent_oracle(self, name, rng, monkeypatch):
        patch, corrupt, make, prefer = MUTATIONS[name]
        problem = make(rng)
        patch(monkeypatch, corrupt)
        if "dnc" in name and "shifted" in name:
            # The rtl dnc route runs the chain too; the oracle rejects its answer.
            with pytest.raises(ValidationError, match="disagrees"):
                solve(problem, prefer=prefer, backend="rtl")
            return
        rep = solve(problem, prefer=prefer, backend="rtl")
        assert (rep.validated, rep.validation) == (True, "oracle")


@pytest.mark.parametrize("corrupt", [_wrong_cost, _wrong_split])
@pytest.mark.parametrize("transfer", ["broadcast", "systolic"])
def test_obst_certificate_rejects_a_perturbed_table(corrupt, transfer, monkeypatch):
    spec = ObstSpec(*random_obst_weights(np.random.default_rng(3), 7))
    array = TriangularArray(transfer)
    assert array.run(spec, backend="fast").certified is True
    assert array.run(spec, backend="auto").certified is True
    _patch_tables(monkeypatch, corrupt, triangular)
    assert array.run(spec, backend="fast").certified is False


def _skew_late_stage(hs, registers):
    hs[7, ..., 3] -= 1.0


def _skew_late_vector(real, sr, mats, vec):
    values = real(sr, mats, vec)
    values[-2] = values[-2] + 1.0
    return values


def test_certificates_hold_across_chunks(rng, monkeypatch):
    """A tiny element budget splits every certificate into many chunks."""
    monkeypatch.setattr(certificate, "CHUNK_ELEMENTS", 7)
    # Fig. 5, the dnc chain (N > 4·m) and the parenthesizer.
    problems = [_node_value(rng, 9, 4), uniform_multistage(rng, 14, 3), _chain(rng, 10)]
    for problem in problems:
        assert solve(problem, backend="fast").validation == "certificate"
    assert all(r.validated for r in solve_batch(problems + problems, backend="fast"))
    _patch_sweep(monkeypatch, _skew_late_stage)
    with pytest.raises(ValidationError, match="certificate rejects"):
        solve(problems[0], backend="fast")
    _patch_chain(monkeypatch, _skew_late_vector)  # the dnc chain's last chunk
    with pytest.raises(ValidationError, match="certificate rejects"):
        solve(problems[1], backend="fast")


# ----------------------------------------------------------------------
# Acceptance: every oracle-correct result is certified
# ----------------------------------------------------------------------
def _costs(rng, sr, shape):
    if sr.name == "boolean":
        return rng.integers(0, 2, shape).astype(float)  # many ties
    if sr.name == "max-times":
        return rng.uniform(0.0, 1.0, shape)
    return np.round(rng.uniform(0.0, 10.0, shape), 1)  # some ties


@pytest.mark.parametrize("sr", SELECTIVE, ids=lambda sr: sr.name)
@pytest.mark.parametrize("seed", range(4))
def test_certificate_accepts_oracle_correct_results(sr, seed):
    rng = np.random.default_rng([seed, 17])
    m = int(rng.integers(1, 5))
    stages = int(rng.integers(2, 8))
    graph = MultistageGraph(
        costs=tuple(_costs(rng, sr, (m, m)) for _ in range(stages)), semiring=sr
    )
    long_graph = MultistageGraph(
        costs=tuple(_costs(rng, sr, (m, m)) for _ in range(4 * m + 3)), semiring=sr
    )
    values = tuple(np.round(rng.uniform(0.0, 3.0, m), 1) for _ in range(stages + 1))
    node = NodeValueProblem(
        values=values,
        edge_cost=lambda a, b: _costs(np.random.default_rng(0), sr, (a - b).shape),
        semiring=sr,
    )
    cases = [
        (graph, None, solve_backward(graph).optimum),
        (long_graph, "dnc", solve_backward(long_graph).optimum),
        (node, None, solve_node_value(node).optimum),
    ]
    for problem, prefer, oracle in cases:
        rep = solve(problem, prefer=prefer, backend="fast")
        assert (rep.validated, rep.validation) == (True, "certificate")
        assert rep.reference == rep.optimum
        assert np.isclose(rep.optimum, oracle, rtol=1e-12, atol=0.0)
        for row in solve_batch([problem] * 3, prefer=prefer, backend="fast"):
            assert (row.validated, row.optimum) == (True, rep.optimum)


@pytest.mark.parametrize("seed", range(6))
def test_interval_certificate_accepts_the_oracle_tables(seed):
    rng = np.random.default_rng([seed, 23])
    problem = _chain(rng, int(rng.integers(1, 14)))
    for prefer in (None, "broadcast"):
        rep = solve(problem, prefer=prefer, backend="fast")
        assert (rep.validated, rep.validation) == (True, "certificate")
        assert rep.optimum == solve_matrix_chain(problem.dims).cost


def test_results_keep_only_the_verdict(rng):
    res = feedback_array.FeedbackSystolicArray().run(_node_value(rng), backend="fast")
    rtl = feedback_array.FeedbackSystolicArray().run(_node_value(rng), backend="rtl")
    assert (res.certified, rtl.certified) == (True, None)
    field = {f.name: f for f in dataclasses.fields(res)}["certified"]
    assert field.compare is False
    assert dataclasses.replace(res, certified=False) == res


def test_semiring_without_arg_reduction_raises_value_error(rng):
    graph = uniform_multistage(rng, 5, 3, semiring=PLUS_TIMES)
    node = NodeValueProblem(
        values=tuple(rng.uniform(0, 1, 3) for _ in range(5)),
        edge_cost=lambda a, b: a * b,
        semiring=PLUS_TIMES,
    )
    for problem in (graph, node):
        for backend in ("rtl", "fast"):
            with pytest.raises(ValueError, match="does not support decision extraction"):
                solve(problem, backend=backend)
        with pytest.raises(ValueError, match="does not support decision extraction"):
            solve_batch([problem], backend="fast")
    # The Fig. 3 array itself still runs plus-times, uncertified: a sum
    # depends on its order, so no certificate exists for it.
    mats = [np.ones((3, 3)), np.ones((3, 3)), np.ones((3, 1))]
    res = pipelined_array.PipelinedMatrixStringArray(PLUS_TIMES).run(mats, backend="fast")
    assert (res.certified, res.value.tolist()) == (None, [9.0, 9.0, 9.0])
    with pytest.raises(ValueError, match="does not support decision extraction"):
        certificate.certify_backward(PLUS_TIMES, mats[:-1], mats[-1][:, 0], [res.value] * 3)


# ----------------------------------------------------------------------
# SolveReport.validation on every route × backend × entry point
# ----------------------------------------------------------------------
ARRAY = {"rtl": "oracle", "fast": "certificate", "auto": "certificate"}
SEQUENTIAL = dict.fromkeys(ARRAY, "sequential")

#: route -> (problem factory, prefer, expected validation per backend)
ROUTES = {
    "node-feedback": (lambda rng: traffic_light_problem(rng, 5, 4), None, ARRAY),
    "node-dnc": (lambda rng: traffic_light_problem(rng, 24, 3), None, ARRAY),
    "node-sequential": (
        lambda rng: NodeValueProblem(
            values=tuple(rng.uniform(0, 5, s) for s in (3, 4, 3, 2)),
            edge_cost=lambda x, y: np.abs(x - y),
        ),
        None,
        SEQUENTIAL,
    ),
    "graph-pipelined": (lambda rng: uniform_multistage(rng, 4, 3), None, ARRAY),
    "graph-broadcast": (lambda rng: single_source_sink(rng, 3, 3), "broadcast", ARRAY),
    "graph-broadcast-framed": (
        lambda rng: uniform_multistage(rng, 4, 3), "broadcast", ARRAY
    ),
    "graph-dnc": (lambda rng: uniform_multistage(rng, 4, 3), "dnc", ARRAY),
    "graph-sequential": (
        lambda rng: uniform_multistage(rng, 4, 3), "sequential", SEQUENTIAL
    ),
    "chain-systolic": (_chain, None, ARRAY),
    "chain-broadcast": (_chain, "broadcast", ARRAY),
}


@pytest.mark.parametrize("backend", ["rtl", "fast", "auto"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_validation_names_the_check_that_ran(route, backend, rng):
    make, prefer, expected = ROUTES[route]
    problems = [make(rng), make(rng)]
    want = expected[backend]
    reports = [solve(p, prefer=prefer, backend=backend) for p in problems]
    reports += list(solve_batch(problems, prefer=prefer, backend=backend))
    if backend != "rtl":  # rtl runs bypass the cache
        cache = SolveCache()
        stored = [solve(p, prefer=prefer, backend=backend, cache=cache) for p in problems]
        hits = [solve(p, prefer=prefer, backend=backend, cache=cache) for p in problems]
        hits += solve_batch(problems, prefer=prefer, backend=backend, cache=cache)
        assert all(h is s for h, s in zip(hits, stored + stored))
        reports += hits
    for rep in reports:
        assert rep.validated
        assert rep.validation == want, (route, backend, rep.method)
        if want == "certificate":
            assert rep.reference == rep.optimum


def test_sinks_force_rtl_and_the_oracle(rng):
    events = []
    rep = solve(traffic_light_problem(rng, 5, 3), backend="fast", sinks=[events.append])
    assert events
    assert rep.validation == "oracle"
    assert rep.detail.certified is None


def test_fault_runs_and_nonserial_routes(rng):
    rep = solve(traffic_light_problem(rng, 5, 3), fault_plan=FaultPlan(), recovery="retry")
    assert (rep.validated, rep.validation) == (True, "oracle")
    banded = solve(banded_objective(rng, [3] * 6))
    assert banded.method == "grouping-transform+serial-sweep"
    assert banded.validation == "oracle"


def test_unknown_validation_is_rejected(rng):
    rep = solve(uniform_multistage(rng, 4, 3), backend="fast")
    with pytest.raises(ValueError, match="unknown validation"):
        dataclasses.replace(rep, validation="trust-me")


def test_oracle_is_not_called_on_fast_routes(rng, monkeypatch):
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the oracle ran on a fast route")

    for name in ("solve_node_value", "solve_backward", "solve_matrix_chain"):
        monkeypatch.setattr(solver_mod, name, forbidden)
    for make, prefer, expected in ROUTES.values():
        if expected is ARRAY:
            solve(make(rng), prefer=prefer, backend="fast")
    assert calls == []
