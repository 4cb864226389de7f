"""Workloads of the end-to-end benchmark.

A workload turns a seed into a fixed cycle of calls into the public entry
points ``repro.solve`` / ``repro.solve_batch`` (``prefer=None``, no sinks,
no fault plan, ``strict`` off, ``workers=1``), together with the expected
answer of every problem it submits.  Expected answers come from the
sequential oracles in ``repro.dp`` and from the paper's closed-form
counters; :meth:`Workload.compute_expected` builds them outside the timed
region.

Call types are weighted so that the median and the 90th percentile of the
call times each sit inside one type's distribution, not on the boundary
between two types, where they would jump between modes from run to run.
Where a cycle allows it, 60% of the calls are of one type (the median),
20% of a faster type and 20% of a slower one (the 90th percentile), so
each percentile sits near the middle of its type; with two types, 80% of
the calls are of the faster one.  Load from outside the
process slows some calls for seconds at a time: a percentile in the
middle of a type moves only when most calls of that type are slowed, one
in a type's tail moves with every burst.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import Any, Callable

import numpy as np

import repro
from repro import dnc, dp, graphs
from repro.systolic.feedback_array import feedback_pu

#: Route label -> prefix of the ``SolveReport.method`` that route reports.
METHODS = {
    "feedback": "fig5-feedback-array",
    "pipelined": "fig3-pipelined-array",
    "dnc": "divide-and-conquer",
    "chain": "parenthesizer-systolic",
}

#: Problems per batch: four batches of the cycle are small, one is large.
#: 256 problems keep one call near 0.05 s, so a run makes far more than
#: the 110 calls that leave ten above the 90th percentile; the large
#: batches put that percentile at their own median.
BATCH_SIZES = (512, 256, 256, 256, 256)
#: Share of each batch that re-submits content of the previous batch.
REPEAT_SHARE = 0.25
#: The largest batch's worth.  A batch's fresh content has been evicted
#: long before the cycle brings it round again.
CACHE_CAPACITY = max(BATCH_SIZES)


@dataclasses.dataclass
class Case:
    """One submitted problem and what its report must say."""

    problem: Any
    route: str  # key of METHODS
    content: tuple  # equal for freshly built copies of the same problem
    optimum: float | None = None
    path: tuple[int, ...] | None = None
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int | None]:
        """``(N, m)``: stages and widest stage; matrices and ``None`` for a chain."""
        p = self.problem
        if isinstance(p, repro.MatrixChainProblem):
            return p.num_matrices, None
        return p.num_stages, max(p.stage_sizes)

    @property
    def node_value_layers(self) -> int:
        """Edge layers whose costs a node-value problem computes (0 otherwise)."""
        p = self.problem
        return p.num_stages - 1 if isinstance(p, graphs.NodeValueProblem) else 0


@dataclasses.dataclass
class Call:
    """One ``solve()`` call (one case) or one ``solve_batch()`` call."""

    cases: list[Case]
    batch: bool
    problems: list[Any] = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.problems = [c.problem for c in self.cases]


def _expect(case: Case) -> None:
    """Fill in ``case``'s expected optimum, path and closed-form counters."""
    p = case.problem
    if isinstance(p, repro.MatrixChainProblem):
        case.optimum = float(dp.solve_matrix_chain(p.dims).cost)
        case.counters = {"steps": 2 * p.num_matrices}  # Prop. 3: T_p(N) = 2N
        return
    if isinstance(p, graphs.NodeValueProblem):
        sol = dp.solve_node_value(p)
        layers = p.num_stages - 1
    else:
        sol = dp.solve_backward(p)
        layers = p.num_layers
    case.optimum = float(sol.optimum)
    if case.route == "feedback":
        n, m = p.num_stages, p.stage_sizes[0]
        case.path = tuple(sol.path.nodes)
        case.counters = {"iterations": (n + 1) * m, "pu": feedback_pu(n, m)}
    elif case.route == "pipelined":
        # A P-matrix string takes (P - 1)·m iterations; graphs without a
        # single source and sink are framed with two virtual terminals.
        matrices = layers + (0 if p.is_single_source_sink else 2)
        case.counters = {"iterations": (matrices - 1) * max(p.stage_sizes)}
    else:
        k = max(1, math.ceil(layers / max(math.log2(layers), 1.0)))
        case.counters = {"rounds": dnc.rounds_only(layers, k), "matmuls": layers - 1}


def failure(case: Case, report: Any) -> str | None:
    """Why ``report`` is wrong for ``case``, or ``None`` when it is right."""
    if not report.method.startswith(METHODS[case.route]):
        return "route"
    if not math.isclose(report.optimum, case.optimum, rel_tol=1e-9, abs_tol=1e-9):
        return "optimum"
    detail, want = report.detail, case.counters
    if case.route == "feedback":
        if tuple(report.solution.nodes) != case.path:
            return "path"
        rr = detail.report
        if rr.iterations != want["iterations"] or not math.isclose(
            rr.processor_utilization, want["pu"], rel_tol=1e-12
        ):
            return "counter"
    elif case.route == "pipelined":
        if detail.report.iterations != want["iterations"]:
            return "counter"
    elif case.route == "chain":
        # Ties between splits make the parenthesization itself ambiguous;
        # it must still be a valid order that costs the optimum.
        cost, _ = dp.count_scalar_multiplications(
            case.problem.dims, report.solution.expression
        )
        if cost != case.optimum:
            return "path"
        if detail.steps != want["steps"]:
            return "counter"
    elif detail.rounds != want["rounds"] or detail.total_multiplications != want["matmuls"]:
        return "counter"
    return None


class Workload:
    """A named, seeded cycle of calls plus the state they share."""

    def __init__(
        self,
        name: str,
        backend: str,
        calls: list[Call],
        *,
        cache: Any = None,
        warmup_index: int = 0,
    ) -> None:
        self.name = name
        self.backend = backend
        self.calls = calls
        self.cache = cache
        self.warmup_index = warmup_index

    def issue(self, call: Call) -> Any:
        """Make one call into ``repro`` (looked up at call time, so tracing sees it)."""
        if call.batch:
            return repro.solve_batch(
                call.problems, backend=self.backend, workers=1, cache=self.cache
            )
        return repro.solve(call.problems[0], backend=self.backend)

    @staticmethod
    def reports(call: Call, out: Any) -> list[Any]:
        return list(out.reports) if call.batch else [out]

    @staticmethod
    def check(call: Call, reports: list[Any]) -> list[str | None]:
        """One failure reason (or ``None``) per problem of ``call``."""
        if len(reports) != len(call.cases):
            return ["missing"] * len(call.cases)
        reasons: list[str | None] = []
        for case, report in zip(call.cases, reports):
            try:
                reasons.append(failure(case, report))
            except (AttributeError, KeyError, TypeError, ValueError):
                reasons.append("malformed")
        return reasons

    def warm_up(self) -> None:
        self.issue(self.calls[self.warmup_index])

    def compute_expected(self) -> None:
        done: dict[tuple, Case] = {}
        for call in self.calls:
            for case in call.cases:
                seen = done.get(case.content)
                if seen is None:
                    _expect(case)
                    done[case.content] = case
                else:
                    case.optimum, case.path, case.counters = (
                        seen.optimum, seen.path, seen.counters,
                    )

    def properties(self) -> dict[str, Any]:
        """Input properties that later claims can cite as measured shares."""
        cases = [c for call in self.calls for c in call.cases]
        routes = collections.Counter(c.route for c in cases)
        mix = {r: routes[r] / len(cases) for r in METHODS}
        mix["rtl"] = 1.0 if self.backend == "rtl" else 0.0
        repeated = 0
        for i, call in enumerate(self.calls):
            before = {c.content for c in self.calls[i - 1].cases}
            repeated += sum(c.content in before for c in call.cases)
        return {
            "route_mix": mix,
            "repeat_share": repeated / len(cases),
            "cache_capacity": self.cache.capacity if self.cache is not None else 0,
            "batch_sizes": sorted({len(call.cases) for call in self.calls}),
            "shapes": [{"N": n, "m": m} for n, m in sorted({c.shape for c in cases}, key=str)],
            "calls_per_cycle": len(self.calls),
            "distinct_problems": len({c.content for c in cases}),
        }


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _chain(rng: np.random.Generator, matrices: int) -> repro.MatrixChainProblem:
    return repro.MatrixChainProblem(tuple(int(d) for d in rng.integers(4, 65, size=matrices + 1)))


def _batch_member(seed: int, batch: int, i: int) -> graphs.NodeValueProblem:
    make = graphs.traffic_light_problem if i % 2 == 0 else graphs.production_problem
    return make(_rng(seed, 0, batch, i), 6, 5)


def _batch_nodevalue(seed: int) -> Workload:
    calls = []
    for b, size in enumerate(BATCH_SIZES):
        prev = (b - 1) % len(BATCH_SIZES)
        repeats = int(size * REPEAT_SHARE)
        # Repeats are rebuilt from the same sub-seed: new objects, same content.
        cases = [
            Case(_batch_member(seed, prev, i), "feedback", (prev, i))
            for i in range(repeats)
        ]
        cases += [
            Case(_batch_member(seed, b, i), "feedback", (b, i))
            for i in range(size - repeats)
        ]
        calls.append(Call(cases, batch=True))
    # Warming up on the last batch leaves the cache as it is in steady
    # state, so the first timed batch already finds its repeats.
    return Workload(
        "batch_nodevalue", "fast", calls,
        cache=repro.SolveCache(CACHE_CAPACITY), warmup_index=len(calls) - 1,
    )


Maker = Callable[[np.random.Generator], tuple[Any, str]]


def _single(
    name: str, wid: int, seed: int, backend: str, kinds: tuple[str, ...],
    variants: int, makers: dict[str, Maker],
) -> Workload:
    calls = []
    for v in range(variants):
        for pos, kind in enumerate(kinds):
            problem, route = makers[kind](_rng(seed, wid, v, pos))
            calls.append(Call([Case(problem, route, (v, pos))], batch=False))
    return Workload(name, backend, calls)


def _solve_mixed(seed: int) -> Workload:
    makers: dict[str, Maker] = {
        "gain": lambda r: (graphs.gain_schedule_problem(r, 32, 16), "feedback"),
        "sss": lambda r: (graphs.single_source_sink(r, 30, 16), "pipelined"),
        "curve": lambda r: (graphs.curve_tracking_problem(r, 32, 16), "pipelined"),
        "chain": lambda r: (_chain(r, 24), "chain"),
    }
    # Per cycle of ten: six node-value calls (the median), two faster
    # Fig.-3 calls and two slower chains (the 90th percentile).
    kinds = ("gain", "sss", "gain", "chain", "gain", "gain", "curve", "gain", "chain", "gain")
    return _single("solve_mixed", 1, seed, "fast", kinds, 2, makers)


def _polyadic_long(seed: int) -> Workload:
    makers: dict[str, Maker] = {
        "nodevalue": lambda r: (graphs.gain_schedule_problem(r, 256, 32), "dnc"),
        "uniform": lambda r: (graphs.uniform_multistage(r, 256, 16), "dnc"),
    }
    # Per cycle of five: four faster graph calls (the median) and one
    # node-value call, about three times as slow, whose own median is the
    # 90th percentile.
    kinds = ("uniform", "uniform", "nodevalue", "uniform", "uniform")
    return _single("polyadic_long", 2, seed, "fast", kinds, 2, makers)


def _rtl_arrays(seed: int) -> Workload:
    makers: dict[str, Maker] = {
        "nodevalue": lambda r: (graphs.gain_schedule_problem(r, 16, 8), "feedback"),
        "sss": lambda r: (graphs.single_source_sink(r, 14, 8), "pipelined"),
        "chain": lambda r: (_chain(r, 12), "chain"),
    }
    # Per cycle of five: three Fig.-3 calls (the median), one slower Fig.-5
    # call (the 90th percentile) and one faster chain.
    kinds = ("sss", "nodevalue", "sss", "chain", "sss")
    return _single("rtl_arrays", 3, seed, "rtl", kinds, 2, makers)


BUILDERS: dict[str, Callable[[int], Workload]] = {
    "batch_nodevalue": _batch_nodevalue,
    "solve_mixed": _solve_mixed,
    "polyadic_long": _polyadic_long,
    "rtl_arrays": _rtl_arrays,
}


def build(name: str, seed: int) -> Workload:
    """Build every problem instance workload ``name`` submits for ``seed``."""
    return BUILDERS[name](seed)
