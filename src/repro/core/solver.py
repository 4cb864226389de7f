"""Table-1 dispatch: classify a DP problem and solve it on the
architecture the paper recommends, validating against the sequential
oracle.

``solve()`` is the library's one-call entry point:

* **monadic-serial, node-value form** → Fig. 5 feedback array.
* **monadic-serial, edge-cost form** → Fig. 3 pipelined array (Fig. 4
  broadcast array on request), falling back to the sequential sweep for
  shapes the linear arrays do not support (non-uniform interior stages).
  Both arrays run the same certified mat-vec chain on ``fast``.
* **polyadic-serial** (many stages) → divide-and-conquer on
  ``K = ⌈N/log₂N⌉`` arrays, the Theorem-1 optimal granularity.  The
  value comes from the Θ(N·m²) mat-vec chain on every backend; the
  eq.-29 schedule counters come from the symbolic scheduler, and only
  ``rtl`` also runs the Θ(N·m³) K-array product.
* **monadic-nonserial** → variable elimination; for banded objectives
  also the Section-6.1 grouping transform onto a serial graph.
* **polyadic-nonserial** (matrix-chain) → the serialized systolic
  parenthesization array (broadcast mapping on request).

One function, :func:`_design`, picks the array for a problem; healthy
runs, fault runs and the batch engine all read it.

Every report says how its optimum was checked (``SolveReport.validation``):

* ``"certificate"`` — the ``fast``/``auto`` Fig. 5, Fig. 3, Fig. 4,
  divide-and-conquer and parenthesization routes, and batch rows.  The
  kernel's own per-stage tables are checked against the paper's
  recurrence in one vectorized pass (:mod:`repro.dp.certificate`); no
  sequential solver re-runs.
* ``"oracle"`` — the ``rtl`` backend (and any run forced onto it by
  sinks or ``strict``) and fault runs: the optimum is compared with an
  independent sequential solver, the paper's uniprocessor baseline.
* ``"sequential"`` — the route is the sequential solver itself.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .._readonly import fields_equal, read_only, restore_read_only, row_builder
from ..dnc import simulate_chain_product
from ..dp import (
    eliminate,
    solve_backward,
    solve_matrix_chain,
    solve_node_value,
)
from ..dp.certificate import certify_backward, require_argreduce
from ..dp.nonserial import NonserialObjective
from ..graphs import MultistageGraph, NodeValueProblem, add_virtual_terminals
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

    __eq__ = fields_equal
    __setstate__ = restore_read_only

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
            raise _rejected(self.optimum)
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


def _rejected(optimum: float) -> ValidationError:
    """The error of a report whose certificate rejects ``optimum``."""
    return ValidationError(f"the certificate rejects architecture result {optimum}")


def _certified(
    rec: Recommendation,
    method: str,
    optima: Sequence[float],
    solutions: Sequence[Any],
    details: Sequence[Any],
    verdicts: Sequence[bool],
) -> list[SolveReport]:
    """The reports of fast kernel rows, one per entry of the columns
    ``optima``, ``solutions``, ``details`` and certificate ``verdicts``;
    ``reference`` is the certified optimum.  A batch and a single fast
    ``solve()`` (a column of one) both build their rows here.

    The rows are built by :func:`~repro._readonly.row_builder`, so
    ``SolveReport.__post_init__``'s checks run here once per column:
    the first rejected row, in column order, raises its
    :class:`ValidationError`, and array solutions are made read-only.
    """
    if not all(verdicts):
        raise _rejected(next(o for o, ok in zip(optima, verdicts) if not ok))
    for solution in solutions:
        if isinstance(solution, np.ndarray):
            read_only(solution)
    dp_class, new_report = rec.dp_class, row_builder(SolveReport)
    return [
        new_report(
            dp_class=dp_class,
            method=method,
            optimum=optimum,
            reference=optimum,
            validated=ok,
            solution=solution,
            detail=detail,
            recommendation=rec,
            validation="certificate",
        )
        for optimum, solution, detail, ok in zip(optima, solutions, details, verdicts)
    ]


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
    verdict, else (the rtl machine ran) compared with the sequential
    ``oracle()``."""
    if certified is not None:
        return _certified(rec, method, [optimum], [solution], [detail], [certified])[0]
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
    ``rtl`` runs and fault runs are compared with an independent
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
    support it, so a graph with an explicit ``prefer="sequential"`` or
    ``"dnc"`` raises :class:`TypeError`.  A problem whose default route
    is divide-and-conquer still runs its linear array under faults
    (Fig. 3 for a graph, Fig. 5 for a node-value problem): no
    ``prefer`` reaches Fig. 5 on a long node-value problem, so this is
    where its faults are injected.

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

    if isinstance(problem, (NodeValueProblem, MultistageGraph)):
        return _solve_serial(problem, rec, prefer, backend, sinks, strict)
    if isinstance(problem, MatrixChainProblem):
        return _solve_chain(problem, rec, prefer, backend, sinks, strict)
    if isinstance(problem, NonserialObjective):
        return _solve_nonserial(problem, rec)
    raise TypeError(f"cannot solve object of type {type(problem).__name__}")


#: The linear array of each array route, keyed by the route name (also
#: the fault harness's design name): its class and its reports' method.
_ARRAYS: dict[str, tuple[Any, str]] = {
    route: (array, f"{array.design_name}-array")
    for route, array in (
        ("feedback", FeedbackSystolicArray),
        ("pipelined", PipelinedMatrixStringArray),
        ("broadcast", BroadcastMatrixStringArray),
    )
}


def _design(problem: object, prefer: str | None) -> tuple[str, Any, str] | None:
    """The array that serves ``problem`` under ``prefer``, as ``(route,
    array class, method)``, or ``None`` when no array does:

    * a uniform node-value problem → Fig. 5 (``"feedback"``);
    * a graph that fits the linear arrays, or has uniform stages (then
      run after :func:`_frame`) → Fig. 4 (``"broadcast"``) when
      ``prefer`` asks for it, else Fig. 3 (``"pipelined"``);
    * a matrix chain → the broadcast or else the systolic parenthesizer
      (``"paren"``).

    The route is the fault harness's design name.  :func:`_route` adds
    the divide-and-conquer and sequential policy of serial problems.
    """
    if isinstance(problem, MatrixChainProblem):
        engine = BroadcastParenthesizer if prefer == "broadcast" else SystolicParenthesizer
        return "paren", engine, engine.design_name
    if isinstance(problem, NodeValueProblem):
        route = "feedback" if problem.is_uniform else None
    elif isinstance(problem, MultistageGraph) and (
        _graph_fits_linear_array(problem) or len(set(problem.stage_sizes)) == 1
    ):
        route = "broadcast" if prefer == "broadcast" else "pipelined"
    else:
        route = None
    return None if route is None else (route, *_ARRAYS[route])


def _graph_fits_linear_array(graph: MultistageGraph) -> bool:
    """The Fig. 3/4 arrays need a single sink and uniform interior width."""
    sizes = graph.stage_sizes
    if sizes[-1] != 1 or len(sizes) < 3:
        return False
    interior = sizes[1:-1] if sizes[0] == 1 else sizes[:-1]
    return len(set(interior)) == 1


def _frame(graph: MultistageGraph) -> MultistageGraph:
    """``graph`` as the Fig. 3/4 arrays run it: a uniform graph that does
    not fit them is framed with zero-cost virtual terminals (the paper's
    degenerate row/column-vector boundary)."""
    return graph if _graph_fits_linear_array(graph) else add_virtual_terminals(graph)


def _route(
    problem: NodeValueProblem | MultistageGraph,
    rec: Recommendation,
    prefer: str | None,
) -> str:
    """The route ``solve()`` runs a serial problem on: ``"dnc"``,
    ``"sequential"`` or the route of :func:`_design`.  Batch grouping
    (:mod:`repro.exec.grouping`) asks the same question, so a batch and
    a looped ``solve()`` put every problem on the same route.
    ``prefer`` applies to edge-cost graphs only; one that names no
    design of the problem's class (``"systolic"``) is ignored.
    """
    if isinstance(problem, NodeValueProblem) or prefer == "systolic":
        prefer = None
    if prefer == "dnc" or (prefer is None and rec.dp_class is DPClass.POLYADIC_SERIAL):
        return "dnc"
    design = None if prefer == "sequential" else _design(problem, prefer)
    return "sequential" if design is None else design[0]


def _solve_faulty(
    problem: object,
    rec: Recommendation,
    prefer: str | None,
    sinks: tuple,
    fault_plan: Any,
    recovery: str,
) -> SolveReport:
    """Run ``problem`` under fault injection on the harness of its
    :func:`_design`; the sequential oracle validates the result.  An
    explicit non-array ``prefer`` on a graph is refused, not ignored."""
    import warnings

    from .. import faults as flt

    if isinstance(problem, MultistageGraph) and prefer in ("sequential", "dnc"):
        raise TypeError(
            "fault injection is only supported on the systolic-array dispatch "
            f"paths, not with prefer={prefer!r}"
        )
    design = _design(problem, prefer)
    if design is None:
        shape = getattr(problem, "stage_sizes", "")
        raise TypeError(
            "fault injection is only supported on the systolic-array dispatch "
            f"paths, not for {type(problem).__name__} {shape}".rstrip()
        )
    route, array, method = design
    if route == "feedback":
        harness: Any = flt.FeedbackHarness(problem)
    elif route == "paren":
        harness = flt.ParenHarness(problem.dims, array)
    else:
        target = _frame(problem)
        cls = flt.BroadcastHarness if route == "broadcast" else flt.PipelinedHarness
        harness = cls(list(target.costs), target.semiring)
    result, fault_report = flt.run_with_recovery(
        harness, fault_plan, policy=recovery, sinks=sinks
    )
    if result is None:
        raise flt.FaultDetected(fault_report.detections)
    optimum, solution = _answer(problem, result)
    ref = _oracle(problem)
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


def _oracle(problem: Any) -> float:
    """The optimum of ``problem``'s independent sequential solver."""
    if isinstance(problem, NodeValueProblem):
        return solve_node_value(problem).optimum
    if isinstance(problem, MatrixChainProblem):
        return float(solve_matrix_chain(problem.dims).cost)
    return solve_backward(problem).optimum


def _answer(problem: Any, result: Any) -> tuple[float, Any]:
    """An array result's optimum and solution: :func:`_answers` of one."""
    optima, solutions = _answers(problem, [result])
    return optima[0], solutions[0]


def _answers(problem: Any, results: Sequence[Any]) -> tuple[list[float], list[Any]]:
    """The optima and solutions of array results on ``problem``'s shape,
    as columns: the Fig. 5 traced paths, the parenthesization's orders,
    or the Fig. 3/4 source-cost vectors, whose optima are one
    ⊕-reduction over the stacked vectors."""
    if isinstance(problem, NodeValueProblem):
        return [r.optimum for r in results], [r.path for r in results]
    if isinstance(problem, MatrixChainProblem):
        return [float(r.order.cost) for r in results], [r.order for r in results]
    values = [r.value for r in results]
    stacked = np.array(values).reshape(len(values), -1)
    optima = problem.semiring.add_reduce(stacked, axis=-1).tolist()
    return [float(o) for o in optima], values


def _solve_serial(
    problem: NodeValueProblem | MultistageGraph,
    rec: Recommendation,
    prefer: str | None,
    backend: str,
    sinks: tuple,
    strict: bool,
) -> SolveReport:
    require_argreduce(problem.semiring)
    route = _route(problem, rec, prefer)
    oracle = lambda: _oracle(problem)  # noqa: E731
    node = isinstance(problem, NodeValueProblem)
    if route == "dnc":
        return _solve_dnc(problem.to_graph() if node else problem, rec, backend, oracle)
    if route == "sequential":
        return _sequential(rec, (solve_node_value if node else solve_backward)(problem))
    cls, method = _ARRAYS[route]
    array = cls(problem.semiring)
    kw = {"backend": backend, "sinks": sinks, "strict": strict}
    if node:
        res = array.run(problem, **kw)
    else:
        target = _frame(problem)
        if route == "broadcast" and target.is_single_source_sink:
            # The Fig. 4 ARG path registers hand back a traced optimal path.
            path, res = array.run_graph_with_path(target, **kw)
            return _checked(rec, method, path.cost, path, res, res.certified, oracle)
        res = array.run_graph(target, **kw)
    optimum, solution = _answer(problem, res)
    return _checked(rec, method, optimum, solution, res, res.certified, oracle)


def _sequential(rec: Recommendation, ref: Any) -> SolveReport:
    """The report of a route that is the sequential sweep ``ref`` itself."""
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


def _solve_dnc(
    graph: MultistageGraph,
    rec: Recommendation,
    backend: str,
    oracle: Callable[[], float],
) -> SolveReport:
    """Section-4 divide-and-conquer over ``graph``'s matrix string.

    The value is the right-to-left mat-vec chain over the graph's cost
    blocks, Θ(N·m²) and in the sum order of
    :func:`~repro.dp.solve_backward`; ``solution`` is its per-source
    vector.  ``detail`` is the eq.-29 schedule of ``K``
    arrays.  On ``fast``/``auto`` it is symbolic and the chain's stage
    vectors are certified (:func:`~repro.dp.certificate.certify_backward`);
    on ``rtl`` it is the executed Θ(N·m³) product, which must agree with
    the chain, and ``oracle()`` is the reference.
    """
    sr = graph.semiring
    blocks = graph.cost_blocks
    vec = sr.ones(graph.stage_sizes[-1])
    runs = _matvec_chain(sr, blocks, vec)
    # A copy, so a cached report does not keep the chain's stage stack alive.
    value = runs[0][0][0].copy()
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
        validated = bool(certify_backward(sr, blocks, vec, runs))
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
    design = _design(problem, prefer)
    assert design is not None  # every chain has a parenthesizer
    _, engine, method = design
    run = engine().run(problem.dims, backend=backend, sinks=sinks, strict=strict)
    cost, order = _answer(problem, run)
    if run.certified is None:
        reference = _oracle(problem)
        validated, validation = cost == reference, "oracle"
    else:
        reference, validated, validation = cost, run.certified, "certificate"
    return SolveReport(
        dp_class=rec.dp_class,
        method=method,
        optimum=cost,
        reference=reference,
        validated=validated,
        solution=order,
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
