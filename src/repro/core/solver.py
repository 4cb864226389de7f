"""Table-1 dispatch: classify a DP problem and solve it on the
architecture the paper recommends, validating against the sequential
oracle.

``solve()`` is the library's one-call entry point:

* **monadic-serial, node-value form** → Fig. 5 feedback array.
* **monadic-serial, edge-cost form** → Fig. 3 pipelined array (Fig. 4
  broadcast array on request), falling back to the sequential sweep for
  shapes the linear arrays do not support (non-uniform interior stages).
* **polyadic-serial** (many stages) → divide-and-conquer on
  ``K = ⌈N/log₂N⌉`` arrays, the Theorem-1 optimal granularity.  The
  value comes from the Θ(N·m²) mat-vec chain on every backend; the
  eq.-29 schedule counters come from the symbolic scheduler, and only
  ``rtl`` also runs the Θ(N·m³) K-array product.
* **monadic-nonserial** → variable elimination; for banded objectives
  also the Section-6.1 grouping transform onto a serial graph.
* **polyadic-nonserial** (matrix-chain) → the serialized systolic
  parenthesization array (broadcast mapping on request).

Every report says how its optimum was checked (``SolveReport.validation``):

* ``"certificate"`` — the ``fast``/``auto`` Fig. 5, Fig. 3,
  divide-and-conquer and parenthesization routes, and batch rows.  The
  kernel's own per-stage tables are checked against the paper's
  recurrence in one vectorized pass (:mod:`repro.dp.certificate`); no
  sequential solver re-runs.
* ``"oracle"`` — the ``rtl`` backend (and any run forced onto it by
  sinks or ``strict``), fault runs and Fig. 4: the optimum is compared
  with an independent sequential solver, the paper's uniprocessor
  baseline.
* ``"sequential"`` — the route is the sequential solver itself.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterable

import numpy as np

from .._readonly import read_only
from ..dnc import simulate_chain_product
from ..dp import (
    eliminate,
    solve_backward,
    solve_matrix_chain,
    solve_node_value,
)
from ..dp.certificate import certify_backward, require_argreduce
from ..dp.nonserial import NonserialObjective
from ..graphs import MultistageGraph, NodeValueProblem
from ..systolic import (
    BroadcastMatrixStringArray,
    BroadcastParenthesizer,
    normalize_backend,
    FeedbackSystolicArray,
    PipelinedMatrixStringArray,
    SystolicParenthesizer,
)
from ..systolic.pipelined_array import _matvec_chain
from .classification import DPClass, Recommendation, recommend
from .problem import MatrixChainProblem

__all__ = ["SolveReport", "ValidationError", "solve"]


class ValidationError(AssertionError):
    """A report's architecture result failed its check: it disagrees with
    the sequential oracle, or its certificate was rejected.

    Subclasses :class:`AssertionError`, so handlers of that still catch it.
    """


@dataclasses.dataclass(frozen=True)
class SolveReport:
    """Unified result of the dispatch solver.

    ``optimum`` is the parallel architecture's answer and ``validation``
    names the check that ran on it:

    * ``"certificate"``: the fast kernel's tables satisfy the paper's
      recurrence exactly (:mod:`repro.dp.certificate`); ``reference`` is
      the certified optimum and ``validated`` the certificate's verdict.
    * ``"oracle"``: ``reference`` is an independent sequential solver's
      optimum and ``validated`` asserts the two agree.
    * ``"sequential"``: the route is the sequential solver, so
      ``reference`` is ``optimum`` and ``validated`` is true.

    A report that is not validated raises :class:`ValidationError`,
    unless a degrade-and-warn fault run returns it flagged.
    ``solution`` is method-specific (a :class:`~repro.graphs.StagePath`,
    a :class:`~repro.dp.matrix_chain.ChainOrder`, an assignment dict, …)
    and ``detail`` carries the raw architecture result object.  Every
    array a cacheable report holds is read-only, so a cache can share it.
    """

    dp_class: DPClass
    method: str
    optimum: float
    reference: float
    validated: bool
    solution: Any
    detail: Any
    recommendation: Recommendation
    #: :class:`~repro.faults.FaultRunReport` when the run executed under
    #: a fault plan; ``None`` on ordinary (healthy) dispatches.
    faults: Any = None
    #: ``"certificate"``, ``"oracle"`` or ``"sequential"``: the check that ran.
    validation: str = "oracle"

    def __post_init__(self) -> None:
        if self.validation not in _VALIDATIONS:
            raise ValueError(
                f"unknown validation {self.validation!r}; expected one of {_VALIDATIONS}"
            )
        if isinstance(self.solution, np.ndarray):
            read_only(self.solution)
        if self.validated or self._degraded_and_warned():
            return
        if self.validation == "certificate":
            raise ValidationError(
                f"the certificate rejects architecture result {self.optimum}"
            )
        raise ValidationError(
            f"architecture result {self.optimum} disagrees with the "
            f"sequential reference {self.reference}"
        )

    def _degraded_and_warned(self) -> bool:
        """Degrade-and-warn runs may return a flagged, unvalidated result."""
        return self.faults is not None and self.faults.outcome == "detected"


#: The checks a report can name in ``SolveReport.validation``.
_VALIDATIONS = ("certificate", "oracle", "sequential")

#: Every ``prefer`` value some route reads; ``None`` keeps the Table-1 default.
_PREFERENCES = ("pipelined", "broadcast", "sequential", "dnc", "systolic")


def _check_prefer(prefer: str | None) -> None:
    """Reject a ``prefer`` no route reads, instead of silently ignoring it."""
    if prefer is not None and prefer not in _PREFERENCES:
        raise ValueError(
            f"unknown prefer {prefer!r}; expected None or one of {_PREFERENCES}"
        )


def _validated(a: Any, b: Any) -> bool:
    """Scalars or arrays agree elementwise to 1e-9 (equal infinities agree)."""
    return bool(np.all(np.isclose(a, b, rtol=1e-9, atol=1e-9)))


def _certified(
    rec: Recommendation,
    method: str,
    optimum: float,
    solution: Any,
    detail: Any,
    certified: bool,
) -> SolveReport:
    """The report of a fast kernel run whose certificate verdict is
    ``certified``; ``reference`` is the certified optimum."""
    return SolveReport(
        dp_class=rec.dp_class,
        method=method,
        optimum=optimum,
        reference=optimum,
        validated=certified,
        solution=solution,
        detail=detail,
        recommendation=rec,
        validation="certificate",
    )


def _checked(
    rec: Recommendation,
    method: str,
    optimum: float,
    solution: Any,
    detail: Any,
    certified: bool | None,
    oracle: Callable[[], float],
) -> SolveReport:
    """The report of an array run: certified when its kernel left a
    verdict, else (the rtl machine ran, or the design has no
    certificate) compared with the sequential ``oracle()``."""
    if certified is not None:
        return _certified(rec, method, optimum, solution, detail, certified)
    reference = oracle()
    return SolveReport(
        dp_class=rec.dp_class,
        method=method,
        optimum=optimum,
        reference=reference,
        validated=_validated(optimum, reference),
        solution=solution,
        detail=detail,
        recommendation=rec,
        validation="oracle",
    )


def solve(
    problem: object,
    *,
    prefer: str | None = None,
    backend: str = "rtl",
    sinks: Iterable[Callable[..., None]] = (),
    fault_plan: Any = None,
    recovery: str = "retry",
    cache: Any = None,
    strict: bool = False,
) -> SolveReport:
    """Classify ``problem`` per Table 1, solve it, and validate.

    Validation depends on the path (``report.validation``): ``fast`` and
    ``auto`` array runs are certified from the kernel's own tables
    (``"certificate"``; ``reference`` is then the certified optimum),
    ``rtl`` runs, fault runs and Fig. 4 are compared with an independent
    sequential solver (``"oracle"``), and sequential routes are the
    solver itself (``"sequential"``).  A failed check raises
    :class:`ValidationError`.  Serial problems over a semiring without
    an arg-reduction raise :class:`ValueError`.

    ``prefer`` overrides the architecture within a class:
    ``"pipelined"``/``"broadcast"``/``"sequential"`` for edge-cost serial
    problems, ``"broadcast"``/``"systolic"`` for matrix-chain ordering,
    ``"dnc"`` to force the polyadic-serial path on a multistage graph.
    Any other value raises :class:`ValueError`.

    ``backend`` selects the array execution engine for every systolic
    path: ``"rtl"`` (cycle-accurate machine), ``"fast"`` (vectorized
    whole-array reductions with closed-form counters and a certificate),
    or ``"auto"`` (fast, cross-validated against RTL on small
    instances).  The divide-and-conquer path computes its value with the
    Θ(N·m²) mat-vec chain on every backend and reports the eq.-29
    schedule counters in ``detail``; only ``"rtl"`` also multiplies the
    matrix string on the K scheduled arrays (``detail.product``) and
    checks it against the chain.  Sequential sweeps and variable
    elimination ignore it.

    ``sinks`` are telemetry callables (``TraceEvent -> None``, e.g.
    :class:`~repro.telemetry.MetricsSink` or
    :class:`~repro.telemetry.TimelineSink`) subscribed to the array's
    event bus when the dispatch lands on a systolic path; subscribing
    forces the cycle-accurate rtl backend.  Non-array paths ignore them.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) executes the run
    under fault injection with the ``recovery`` policy (``"fail_fast"``,
    ``"warn"``, ``"retry"`` or ``"spare"``; see
    :func:`repro.faults.run_with_recovery`).  The returned report then
    carries a :class:`~repro.faults.FaultRunReport` in ``.faults``;
    ``fail_fast`` raises :class:`~repro.faults.FaultDetected` on the
    first detection, ``warn`` may return a flagged unvalidated result,
    and a plan that cannot be recovered from raises
    :class:`~repro.faults.FaultDetected`.  Fault injection is a
    cycle-level feature: only the systolic-array dispatch paths
    support it.

    ``strict`` runs every systolic path under the hazard sanitizer
    (:mod:`repro.analysis.hazards`), which forces the rtl backend.

    ``cache`` is a :class:`~repro.exec.cache.SolveCache` (or ``True``
    for the process-wide default): identical problems are served from
    the cache, and hits share one read-only report; writing into a
    returned array raises :class:`ValueError`.  Side-effectful runs —
    ``sinks``, ``fault_plan``, ``backend="rtl"`` or ``strict`` — bypass
    it and always execute.
    """
    _check_prefer(prefer)
    backend = normalize_backend(backend)
    sinks = tuple(sinks)

    key = None
    cache_obj: Any = None
    if cache is not None and cache is not False:
        from ..exec.cache import cacheable, default_cache

        if cacheable(sinks, fault_plan, backend, strict):
            from ..exec.digest import cache_key

            cache_obj = default_cache() if cache is True else cache
            key = cache_key(problem, backend=backend, prefer=prefer)
            if key is not None:
                hit = cache_obj.get(key)
                if hit is not None:
                    return hit

    report = _solve_dispatch(
        problem, prefer, backend, sinks, fault_plan, recovery, strict
    )
    if key is not None and cache_obj is not None:
        cache_obj.put(key, report)
    return report


def _solve_dispatch(
    problem: object,
    prefer: str | None,
    backend: str,
    sinks: tuple,
    fault_plan: Any,
    recovery: str,
    strict: bool,
) -> SolveReport:
    rec = recommend(problem)
    if fault_plan is not None:
        return _solve_faulty(problem, rec, prefer, sinks, fault_plan, recovery)

    if isinstance(problem, NodeValueProblem):
        return _solve_node_value(problem, rec, backend, sinks, strict)
    if isinstance(problem, MultistageGraph):
        return _solve_graph(problem, rec, prefer, backend, sinks, strict)
    if isinstance(problem, MatrixChainProblem):
        return _solve_chain(problem, rec, prefer, backend, sinks, strict)
    if isinstance(problem, NonserialObjective):
        return _solve_nonserial(problem, rec)
    raise TypeError(f"cannot solve object of type {type(problem).__name__}")


def _solve_faulty(
    problem: object,
    rec: Recommendation,
    prefer: str | None,
    sinks: tuple,
    fault_plan: Any,
    recovery: str,
) -> SolveReport:
    """Dispatch ``problem`` onto its array harness under fault injection."""
    import warnings

    from .. import faults as flt

    if isinstance(problem, NodeValueProblem) and problem.is_uniform:
        harness: Any = flt.FeedbackHarness(problem)
        ref = solve_node_value(problem).optimum
        extract = lambda res: (res.optimum, res.path)  # noqa: E731
        method = "fig5-feedback-array"
    elif isinstance(problem, MultistageGraph):
        target = problem
        if not _graph_fits_linear_array(target):
            if len(set(target.stage_sizes)) != 1:
                raise TypeError(
                    "fault injection on graphs needs a linear-array-shaped "
                    f"instance; got stage sizes {target.stage_sizes}"
                )
            from ..graphs import add_virtual_terminals

            target = add_virtual_terminals(target)
        cls = (
            flt.BroadcastHarness if prefer == "broadcast" else flt.PipelinedHarness
        )
        harness = cls(target.as_matrices(), target.semiring)
        ref = solve_backward(problem).optimum
        sr = target.semiring
        extract = lambda res: (  # noqa: E731
            float(sr.add_reduce(np.asarray(res.value), axis=None)),
            res.value,
        )
        method = (
            "fig4-broadcast-array" if prefer == "broadcast" else "fig3-pipelined-array"
        )
    elif isinstance(problem, MatrixChainProblem):
        harness = flt.ParenHarness(
            problem.dims,
            BroadcastParenthesizer if prefer == "broadcast" else SystolicParenthesizer,
        )
        ref = float(solve_matrix_chain(problem.dims).cost)
        extract = lambda res: (float(res.order.cost), res.order)  # noqa: E731
        method = harness.array.design_name
    else:
        raise TypeError(
            "fault injection is only supported on the systolic-array dispatch "
            f"paths, not for {type(problem).__name__}"
        )

    result, fault_report = flt.run_with_recovery(
        harness, fault_plan, policy=recovery, sinks=sinks
    )
    if result is None:
        raise flt.FaultDetected(fault_report.detections)
    optimum, solution = extract(result)
    validated = _validated(optimum, ref)
    if not validated and fault_report.outcome == "detected":
        warnings.warn(
            f"degrade-and-warn: returning a fault-flagged result for {method} "
            f"({len(fault_report.detections)} detections)",
            RuntimeWarning,
            stacklevel=3,
        )
    return SolveReport(
        dp_class=rec.dp_class,
        method=f"{method}+faults",
        optimum=optimum,
        reference=ref,
        validated=validated,
        solution=solution,
        detail=result,
        recommendation=rec,
        faults=fault_report,
        validation="oracle",
    )


def _solve_node_value(
    problem: NodeValueProblem,
    rec: Recommendation,
    backend: str = "rtl",
    sinks: tuple = (),
    strict: bool = False,
) -> SolveReport:
    require_argreduce(problem.semiring)
    route = _route(problem, rec, None)
    if route == "feedback":
        res = FeedbackSystolicArray(problem.semiring).run(
            problem, backend=backend, sinks=sinks, strict=strict
        )
        return _checked(
            rec, "fig5-feedback-array", res.optimum, res.path, res, res.certified,
            lambda: solve_node_value(problem).optimum,
        )
    if route == "dnc":
        return _solve_dnc(
            problem.to_graph(), rec, backend, lambda: solve_node_value(problem).optimum
        )
    return _sequential(rec, solve_node_value(problem))


def _sequential(rec: Recommendation, ref: Any) -> SolveReport:
    """The report of a route that is the sequential sweep ``ref`` itself."""
    read_only((ref.stage_values, ref.decisions))
    return SolveReport(
        dp_class=rec.dp_class,
        method="sequential-sweep",
        optimum=ref.optimum,
        reference=ref.optimum,
        validated=True,
        solution=ref.path,
        detail=ref,
        recommendation=rec,
        validation="sequential",
    )


def _graph_fits_linear_array(graph: MultistageGraph) -> bool:
    """The Fig. 3/4 arrays need a single sink and uniform interior width."""
    sizes = graph.stage_sizes
    if sizes[-1] != 1 or len(sizes) < 3:
        return False
    interior = sizes[1:-1] if sizes[0] == 1 else sizes[:-1]
    return len(set(interior)) == 1


def _route(
    problem: NodeValueProblem | MultistageGraph,
    rec: Recommendation,
    prefer: str | None,
) -> str:
    """The architecture ``solve()`` runs a serial problem on.

    One of ``"feedback"`` (Fig. 5), ``"pipelined"`` (Fig. 3),
    ``"broadcast"`` (Fig. 4), ``"dnc"`` or ``"sequential"``.  Batch
    grouping (:mod:`repro.exec.grouping`) asks the same question, so a
    batch and a looped ``solve()`` put every problem on the same route.
    ``prefer`` applies to edge-cost graphs only.  Graphs that are not
    linear-array-shaped but have uniform stages run on the arrays after
    framing with zero-cost virtual terminals.
    """
    if isinstance(problem, NodeValueProblem):
        if rec.dp_class is DPClass.POLYADIC_SERIAL:
            return "dnc"
        return "feedback" if problem.is_uniform else "sequential"
    method = prefer
    if method is None:
        method = "dnc" if rec.dp_class is DPClass.POLYADIC_SERIAL else "pipelined"
    if method == "dnc":
        return method
    if method in ("pipelined", "broadcast") and (
        _graph_fits_linear_array(problem) or len(set(problem.stage_sizes)) == 1
    ):
        return method
    return "sequential"


def _solve_graph(
    graph: MultistageGraph,
    rec: Recommendation,
    prefer: str | None,
    backend: str = "rtl",
    sinks: tuple = (),
    strict: bool = False,
) -> SolveReport:
    require_argreduce(graph.semiring)
    method = _route(graph, rec, prefer)
    oracle = lambda: solve_backward(graph).optimum  # noqa: E731
    if method == "dnc":
        return _solve_dnc(graph, rec, backend, oracle)
    if method == "sequential":
        return _sequential(rec, solve_backward(graph))
    array: Any = (
        PipelinedMatrixStringArray(graph.semiring)
        if method == "pipelined"
        else BroadcastMatrixStringArray(graph.semiring)
    )
    target = graph
    if not _graph_fits_linear_array(graph):
        # Uniform multi-source/sink graphs run after framing with
        # zero-cost virtual terminals (the paper's degenerate
        # row/column-vector boundary).
        from ..graphs import add_virtual_terminals

        target = add_virtual_terminals(graph)
    # Fig. 4 has no certificate, so it keeps the oracle on every backend.
    if method == "broadcast" and target.is_single_source_sink:
        # The Fig. 4 ARG path registers let the dispatcher hand back
        # a traced optimal path instead of only the cost.
        path, res = array.run_graph_with_path(
            target, backend=backend, sinks=sinks, strict=strict
        )
        return _checked(rec, "fig4-broadcast-array", path.cost, path, res, None, oracle)
    res = array.run_graph(target, backend=backend, sinks=sinks, strict=strict)
    optimum = float(graph.semiring.add_reduce(np.asarray(res.value), axis=None))
    return _checked(
        rec,
        f"fig{'3-pipelined' if method == 'pipelined' else '4-broadcast'}-array",
        optimum,
        res.value,
        res,
        res.certified if method == "pipelined" else None,
        oracle,
    )


def _solve_dnc(
    graph: MultistageGraph,
    rec: Recommendation,
    backend: str,
    oracle: Callable[[], float],
) -> SolveReport:
    """Section-4 divide-and-conquer over ``graph``'s matrix string.

    The value is the right-to-left mat-vec chain, Θ(N·m²) and in the
    sum order of :func:`~repro.dp.solve_backward`; ``solution`` is its
    per-source vector.  ``detail`` is the eq.-29 schedule of ``K``
    arrays.  On ``fast``/``auto`` it is symbolic and the chain's stage
    vectors are certified (:func:`~repro.dp.certificate.certify_backward`);
    on ``rtl`` it is the executed Θ(N·m³) product, which must agree with
    the chain, and ``oracle()`` is the reference.
    """
    sr = graph.semiring
    vec = sr.ones(graph.stage_sizes[-1])
    chain = _matvec_chain(sr, graph.costs, vec)
    value = chain[0]
    optimum = float(sr.add_reduce(value, axis=None))

    n = graph.num_layers
    k = max(1, math.ceil(n / max(math.log2(n), 1.0)))
    if backend == "rtl":
        reference = oracle()
        sched = simulate_chain_product(
            n, k, matrices=graph.costs, semiring=sr
        )
        assert sched.product is not None
        validated = _validated(optimum, reference) and _validated(
            sr.add_reduce(sched.product, axis=1), value
        )
        validation = "oracle"
    else:
        reference = optimum
        validated = bool(certify_backward(sr, graph.costs, vec, chain))
        validation = "certificate"
        sched = simulate_chain_product(n, k)
    return SolveReport(
        dp_class=DPClass.POLYADIC_SERIAL,
        method=f"divide-and-conquer (K={k})",
        optimum=optimum,
        reference=reference,
        validated=validated,
        solution=value,
        detail=sched,
        recommendation=rec,
        validation=validation,
    )


def _solve_chain(
    problem: MatrixChainProblem,
    rec: Recommendation,
    prefer: str | None,
    backend: str = "rtl",
    sinks: tuple = (),
    strict: bool = False,
) -> SolveReport:
    engine: Any = (
        BroadcastParenthesizer() if prefer == "broadcast" else SystolicParenthesizer()
    )
    run = engine.run(problem.dims, backend=backend, sinks=sinks, strict=strict)
    cost = float(run.order.cost)
    if run.certified is None:
        reference = float(solve_matrix_chain(problem.dims).cost)
        validated, validation = cost == reference, "oracle"
    else:
        reference, validated, validation = cost, run.certified, "certificate"
    return SolveReport(
        dp_class=rec.dp_class,
        method=engine.design_name,
        optimum=cost,
        reference=reference,
        validated=validated,
        solution=run.order,
        detail=run,
        recommendation=rec,
        validation=validation,
    )


def _solve_nonserial(problem: NonserialObjective, rec: Recommendation) -> SolveReport:
    res = eliminate(problem)
    # The elimination engine *is* the reference; validate against the
    # grouping transform (the Section-6.1 serialization) when the
    # objective has the banded shape it applies to.
    reference = res.optimum
    method = "variable-elimination"
    validation = "sequential"
    detail: Any = res
    try:
        from ..dp.nonserial import group_variables_to_serial

        serial_graph, _states = group_variables_to_serial(problem)
        seq = solve_backward(serial_graph)
        reference = seq.optimum
        method = "grouping-transform+serial-sweep"
        validation = "oracle"
        detail = (res, seq)
    except ValueError:
        pass  # not banded: elimination result stands alone
    return SolveReport(
        dp_class=rec.dp_class,
        method=method,
        optimum=res.optimum,
        reference=reference,
        validated=_validated(res.optimum, reference),
        solution=res.assignment,
        detail=detail,
        recommendation=rec,
        validation=validation,
    )
