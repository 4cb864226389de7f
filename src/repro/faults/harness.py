"""Per-design fault-campaign harnesses.

A harness binds one concrete problem instance to one systolic array and
exposes the uniform surface the recovery layer and the CLI need:

* ``run(injector=…)`` — execute the instance (RTL whenever an injector
  or sinks are attached);
* ``canonical(result)`` — a JSON-able value capturing everything the
  run is supposed to compute, so "did the fault change the output?" is
  one equality check;
* ``detect(result)`` — the cheap concurrent detectors: semiring
  checksum (ABFT) equations over the observed phase/stage boundaries,
  range checks on traceback pointers, and structural invariants
  (phase chaining, stage-1 all-1̄, cost-table local consistency);
* ``oracle_check(result)`` — the shadow sequential-DP cross-check,
  which is complete (any wrong output is flagged) but costs a full
  recompute;
* ``degraded(dead_pe)`` — the spare-PE model: schedule length and PU
  when the dead PE's work is serialized onto the surviving ``m − 1``,
  reported against the paper's closed-form PU (eq. 9 for the
  Fig. 3/4 arrays, the Fig. 5 expression for the feedback array).

``make_harness`` builds the same random instances as the CLI's design
runner, so campaign results line up with ``python -m repro run``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

import numpy as np

from ..core.metrics import eq9_pu
from ..dp import solve_matrix_chain, solve_node_value
from ..semiring import MIN_PLUS, Semiring, chain_product, matmul
from ..systolic import (
    BroadcastMatrixStringArray,
    BroadcastParenthesizer,
    FeedbackSystolicArray,
    MeshMatrixMultiplier,
    PipelinedMatrixStringArray,
    SystolicParenthesizer,
    feedback_pu,
)
from .detectors import (
    Detection,
    abft_matmul,
    abft_matvec,
    bounds_matvec,
    traceback_in_range,
    values_match,
)
from .plan import FaultPlanError

__all__ = [
    "DESIGNS",
    "DegradedEstimate",
    "DesignHarness",
    "BroadcastHarness",
    "FeedbackHarness",
    "MeshHarness",
    "ParenHarness",
    "PipelinedHarness",
    "make_harness",
]

#: The five array designs a campaign can target (CLI spelling).
DESIGNS = ("pipelined", "broadcast", "feedback", "mesh", "paren")


def _listify(value: Any) -> Any:
    """Nested-list, plain-float form of an array result for canonical dicts."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return float(arr)
    return [_listify(v) for v in arr]


@dataclasses.dataclass(frozen=True)
class DegradedEstimate:
    """Spare-PE degraded-mode schedule model for one dead PE.

    The dead PE's work is serialized onto the surviving PEs, so the
    schedule stretches by its clean busy-tick count; ``measured_pu`` is
    the resulting utilization of the ``num_pes − 1`` active PEs, and
    ``predicted_pu`` is the paper's closed-form PU for the *healthy*
    array (eq. 9 / Fig. 5), the yardstick the degradation is quoted
    against.  ``None`` prediction means the paper states no closed form
    for the design.
    """

    design: str
    dead_pe: int
    active_pes: int
    iterations: int
    degraded_iterations: int
    measured_pu: float
    clean_pu: float
    predicted_pu: float | None

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class DesignHarness:
    """Base harness: geometry, clean-run cache, and the degraded model."""

    design: str = ""
    #: Register names ``random_plan`` should target — the data-plane
    #: registers whose corruption can reach the output.
    registers: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._clean: Any = None

    # -- to be provided by subclasses ----------------------------------
    def run(
        self,
        *,
        injector: object = None,
        sinks: Iterable[Callable[..., None]] = (),
        record_trace: bool = False,
        backend: str | None = None,
        observe: bool | None = None,
    ) -> Any:
        raise NotImplementedError

    def canonical(self, result: Any) -> Any:
        """JSON-able value of everything the run computes."""
        raise NotImplementedError

    def detect(self, result: Any) -> list[Detection]:
        """Run the concurrent (ABFT + invariant) detectors on a result."""
        raise NotImplementedError

    def oracle_check(self, result: Any) -> Detection | None:
        """Shadow sequential-DP cross-check; ``None`` when it agrees."""
        raise NotImplementedError

    def _predicted_pu(self) -> float | None:
        return None

    # -- shared machinery ----------------------------------------------
    def clean_result(self) -> Any:
        """The fault-free reference run (cached; observed, RTL)."""
        if self._clean is None:
            self._clean = self.run(observe=True)
        return self._clean

    @property
    def num_pes(self) -> int:
        return int(self.clean_result().report.num_pes)

    @property
    def horizon(self) -> int:
        """Schedule length in machine ticks — the fault-arming window."""
        return int(self.clean_result().report.wall_ticks)

    def degraded(self, dead_pe: int) -> DegradedEstimate:
        """Spare-PE model: re-run on ``num_pes − 1`` PEs, schedule stretched.

        The surviving array absorbs the dead PE's clean busy ticks as
        extra iterations (its work is replayed serially on a neighbour),
        which is the pessimistic bound the paper's ring/mesh topologies
        admit without rewiring.
        """
        report = self.clean_result().report
        p = int(report.num_pes)
        if not 0 <= dead_pe < p:
            raise FaultPlanError(
                f"dead PE {dead_pe} out of range for {self.design!r} ({p} PEs)"
            )
        if p < 2:
            raise FaultPlanError(f"{self.design!r} has no spare capacity (1 PE)")
        extra = int(report.pe_busy_ticks[dead_pe])
        iterations = int(report.iterations)
        degraded_iterations = iterations + extra
        measured = (
            report.serial_ops / (degraded_iterations * (p - 1))
            if degraded_iterations
            else 0.0
        )
        return DegradedEstimate(
            design=self.design,
            dead_pe=dead_pe,
            active_pes=p - 1,
            iterations=iterations,
            degraded_iterations=degraded_iterations,
            measured_pu=measured,
            clean_pu=report.processor_utilization,
            predicted_pu=self._predicted_pu(),
        )


class _MatrixStringHarness(DesignHarness):
    """Shared harness for the Fig. 3/4 matrix-string arrays: it runs the
    string on :attr:`array_class` and checks the result.

    Phase ``p`` evaluates ``y = M ⊗ x`` with ``M = mats[n_phases−1−p]``
    (the string folds right-to-left); ``phase_values[p]`` is the
    observed ``(x, y)`` boundary pair.
    """

    #: The array class the harness runs.
    array_class: type[PipelinedMatrixStringArray | BroadcastMatrixStringArray]

    def __init__(self, mats: list[np.ndarray], semiring: Semiring = MIN_PLUS):
        super().__init__()
        self.sr = semiring
        self.mats = [semiring.asarray(m) for m in mats]
        self.array = self.array_class(semiring)

    def run(self, **kw: Any) -> Any:
        return self.array.run(self.mats, **kw)

    @property
    def n_phases(self) -> int:
        return len(self.mats) - 1

    def canonical(self, result: Any) -> Any:
        return {"value": _listify(result.value)}

    def detect(self, result: Any) -> list[Detection]:
        sr = self.sr
        out: list[Detection] = []
        pv = result.phase_values
        if not pv:
            return out
        if len(pv) != self.n_phases:
            out.append(
                Detection(
                    detector="invariant",
                    message=f"observed {len(pv)} phases, expected {self.n_phases}",
                )
            )
            return out
        sink = np.asarray(self.mats[-1]).reshape(-1)
        for p, (x, y) in enumerate(pv):
            x = np.asarray(x).reshape(-1)
            y = np.asarray(y).reshape(-1)
            mat = self.mats[self.n_phases - 1 - p]
            # Chaining: each phase must consume exactly what the
            # previous one produced (catches corrupted shift delivery).
            prev = sink if p == 0 else np.asarray(pv[p - 1][1]).reshape(-1)
            if x.shape != prev.shape or not values_match(x, prev):
                out.append(
                    Detection(
                        detector="invariant",
                        message="phase input differs from previous phase output",
                        phase=p,
                    )
                )
            d = abft_matvec(sr, mat, x, y, phase=p)
            if d is not None:
                out.append(d)
            d = bounds_matvec(sr, mat, x, y, phase=p)
            if d is not None:
                out.append(d)
        final = np.asarray(pv[-1][1]).reshape(-1)
        value = np.asarray(result.value).reshape(-1)
        if final.shape != value.shape or not values_match(final, value):
            out.append(
                Detection(
                    detector="invariant",
                    message="drained result differs from last phase output",
                    phase=self.n_phases - 1,
                )
            )
        return out

    def oracle_check(self, result: Any) -> Detection | None:
        expected = np.asarray(chain_product(self.sr, self.mats)).reshape(-1)
        got = np.asarray(result.value).reshape(-1)
        if expected.shape != got.shape or not values_match(expected, got):
            return Detection(
                detector="oracle",
                message=(
                    f"chain product mismatch: expected {expected.tolist()}, "
                    f"got {got.tolist()}"
                ),
            )
        return None

    def _predicted_pu(self) -> float | None:
        # Eq. (9) holds for the single-source/sink shape; the harness
        # instances use an m×m head operand, for which the same formula
        # with N = len(mats) matrices is the paper's quoted form.
        try:
            return eq9_pu(len(self.mats), int(self.mats[-2].shape[0]))
        except (ValueError, IndexError):
            return None


class PipelinedHarness(_MatrixStringHarness):
    design = "pipelined"
    registers = ("R", "ACC", "X", "Y")
    array_class = PipelinedMatrixStringArray


class BroadcastHarness(_MatrixStringHarness):
    design = "broadcast"
    # ARG exists too but is dead state unless track_decisions is on.
    registers = ("ACC", "S")
    array_class = BroadcastMatrixStringArray


class FeedbackHarness(DesignHarness):
    design = "feedback"
    registers = ("PAIR", "K", "H")

    def __init__(self, problem: Any):
        super().__init__()
        self.problem = problem
        self.sr = problem.semiring
        self.array = FeedbackSystolicArray(problem.semiring)
        self.graph = problem.to_graph()

    def run(self, **kw: Any) -> Any:
        return self.array.run(self.problem, **kw)

    def canonical(self, result: Any) -> Any:
        return {
            "optimum": float(result.optimum),
            "path": [int(v) for v in result.path.nodes],
            "final_stage_values": _listify(result.final_stage_values),
        }

    def detect(self, result: Any) -> list[Detection]:
        sr = self.sr
        problem = self.problem
        m = problem.stage_sizes[0]
        n_stages = problem.num_stages
        out: list[Detection] = []
        sv = result.stage_values
        if sv:
            if len(sv) != n_stages:
                out.append(
                    Detection(
                        detector="invariant",
                        message=f"observed {len(sv)} stages, expected {n_stages}",
                    )
                )
            else:
                if not values_match(sv[0], sr.ones(m)):
                    out.append(
                        Detection(
                            detector="invariant",
                            message="stage-1 values are not all 1̄",
                            phase=1,
                        )
                    )
                for k in range(2, n_stages + 1):
                    # h_k = h_{k−1} ⊗ C (a vec-mat product); ⊗ is
                    # commutative in every shipped semiring, so the
                    # checksum identity is abft_matvec against Cᵀ.
                    c = problem.cost_matrix(k - 2)
                    d = abft_matvec(sr, c.T, sv[k - 2], sv[k - 1], phase=k)
                    if d is not None:
                        out.append(d)
                if not values_match(sv[-1], result.final_stage_values):
                    out.append(
                        Detection(
                            detector="invariant",
                            message="final stage values differ from observed stage sweep",
                            phase=n_stages,
                        )
                    )
        d = traceback_in_range(result.path.nodes, m, what="path")
        if d is not None:
            out.append(d)
            return out  # path is unusable; skip the recost
        try:
            recost = self.graph.path_cost(result.path.nodes)
        except Exception as exc:  # malformed path shape
            out.append(
                Detection(detector="invariant", message=f"path recost failed: {exc}")
            )
            return out
        if not values_match(recost, result.optimum):
            out.append(
                Detection(
                    detector="invariant",
                    message=(
                        f"traced path recosts to {recost}, "
                        f"array reported {result.optimum}"
                    ),
                )
            )
        return out

    def oracle_check(self, result: Any) -> Detection | None:
        sol = solve_node_value(self.problem)
        if not values_match(sol.optimum, result.optimum):
            return Detection(
                detector="oracle",
                message=(
                    f"optimum mismatch: sequential DP {sol.optimum}, "
                    f"array {result.optimum}"
                ),
            )
        # The full final-stage vector, not just the optimum: idempotent
        # ⊕ masks corrupted non-winning entries from the checksum, but
        # they are still part of the reported output.
        if not values_match(sol.stage_values[-1], result.final_stage_values):
            return Detection(
                detector="oracle",
                message="final stage values differ from sequential DP",
            )
        return None

    def _predicted_pu(self) -> float | None:
        return feedback_pu(self.problem.num_stages, self.problem.stage_sizes[0])


class MeshHarness(DesignHarness):
    design = "mesh"
    registers = ("C", "A", "B")

    def __init__(self, a: np.ndarray, b: np.ndarray, semiring: Semiring = MIN_PLUS):
        super().__init__()
        self.sr = semiring
        self.a = semiring.asarray(a)
        self.b = semiring.asarray(b)
        self.array = MeshMatrixMultiplier(semiring)

    def run(self, *, observe: bool | None = None, **kw: Any) -> Any:
        # The mesh has no phase structure to observe; the final product
        # itself is the ABFT input.
        return self.array.run(self.a, self.b, **kw)

    def canonical(self, result: Any) -> Any:
        return {"value": _listify(result.value)}

    def detect(self, result: Any) -> list[Detection]:
        d = abft_matmul(self.sr, self.a, self.b, result.value)
        return [d] if d is not None else []

    def oracle_check(self, result: Any) -> Detection | None:
        expected = matmul(self.sr, self.a, self.b)
        if not values_match(expected, result.value):
            return Detection(detector="oracle", message="matmul mismatch vs reference")
        return None


class ParenHarness(DesignHarness):
    design = "paren"
    registers = ("M",)

    def __init__(
        self,
        dims: tuple[int, ...],
        parenthesizer: type[SystolicParenthesizer | BroadcastParenthesizer] = (
            SystolicParenthesizer
        ),
    ):
        super().__init__()
        self.dims = tuple(int(d) for d in dims)
        self.array = parenthesizer()

    def run(self, **kw: Any) -> Any:
        return self.array.run(self.dims, **kw)

    def canonical(self, result: Any) -> Any:
        return {
            "cost": int(result.order.cost),
            "expression": repr(result.order.expression),
        }

    def detect(self, result: Any) -> list[Detection]:
        out: list[Detection] = []
        table = result.cost_table
        n = len(self.dims) - 1
        if table is None:
            return out
        r = self.dims

        def cell(i: int, j: int) -> float:
            return 0.0 if i == j else table.get((i, j), float("inf"))

        for (i, j), cost in sorted(table.items()):
            if not np.isfinite(cost):
                out.append(
                    Detection(
                        detector="invariant",
                        message=f"non-finite cost at subproblem {(i, j)}",
                        pe=None,
                    )
                )
                continue
            best = min(
                cell(i, k) + cell(k + 1, j) + float(r[i - 1]) * r[k] * r[j]
                for k in range(i, j)
            )
            # Local consistency: every cell must equal the fold of its
            # own table — a cheap recompute over already-latched state.
            if abs(cost - best) > 1e-6:
                out.append(
                    Detection(
                        detector="recompute",
                        message=(
                            f"cost table cell {(i, j)} holds {cost}, "
                            f"fold of the table gives {best}"
                        ),
                    )
                )
        if n > 1 and abs(cell(1, n) - float(result.order.cost)) > 1e-6:
            out.append(
                Detection(
                    detector="invariant",
                    message="reported chain cost differs from table root",
                )
            )
        return out

    def oracle_check(self, result: Any) -> Detection | None:
        expected = solve_matrix_chain(self.dims)
        if expected.cost != result.order.cost:
            return Detection(
                detector="oracle",
                message=(
                    f"chain cost mismatch: sequential DP {expected.cost}, "
                    f"array {result.order.cost}"
                ),
            )
        return None


def make_harness(
    design: str,
    rng: np.random.Generator,
    *,
    n: int = 8,
    m: int = 5,
) -> DesignHarness:
    """Build a random instance for ``design`` (same shapes as the CLI).

    ``n``/``m`` mean what they mean to ``python -m repro run``: string
    length / width for the matrix-string arrays, stages / values per
    stage for the feedback array, operand shape for the mesh, chain
    length for the parenthesizer.
    """
    if design in ("pipelined", "broadcast"):
        mats = [rng.integers(0, 100, size=(m, m)).astype(float) for _ in range(n - 1)]
        mats.append(rng.integers(0, 100, size=(m, 1)).astype(float))
        cls = PipelinedHarness if design == "pipelined" else BroadcastHarness
        return cls(mats)
    if design == "feedback":
        from ..graphs import traffic_light_problem

        return FeedbackHarness(traffic_light_problem(rng, n, m))
    if design == "mesh":
        a = rng.integers(0, 100, size=(n, m)).astype(float)
        b = rng.integers(0, 100, size=(m, n)).astype(float)
        return MeshHarness(a, b)
    if design == "paren":
        dims = tuple(int(d) for d in rng.integers(2, 50, size=n + 1))
        return ParenHarness(dims)
    raise FaultPlanError(f"unknown design {design!r} (expected one of {DESIGNS})")
