"""Sequential monadic-serial DP solvers (paper eqs. 1, 2 and 12).

These are the uniprocessor reference implementations that every systolic
design in Section 3 is validated against, and whose operation counts form
the numerator of the processor-utilization formula (eq. 9).

* :func:`solve_backward` — eq. (1): ``f₁(i) = min_j [c_{i,j} + f₁(j)]``,
  cost-to-sink, evaluated from the last stage toward the first.
* :func:`solve_forward` — eq. (2): ``f₂(i) = min_j [f₂(j) + c_{j,i}]``,
  cost-from-source, evaluated from the first stage toward the last.

Both record per-stage value vectors, the winning decisions, and the
elementary-operation count (one ``⊗`` + one ``⊕``-merge per examined
edge), then reconstruct one optimal path.  A graph's costs are checked
when it is built, so the sweeps use the semiring's raw ⊗
(:attr:`~repro.semiring.Semiring.raw_mul`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .._readonly import fields_equal, read_only, restore_read_only
from ..graphs import MultistageGraph, NodeValueProblem, StagePath
from ..semiring import Semiring
from .certificate import require_argreduce

__all__ = ["MonadicSolution", "solve_backward", "solve_forward", "solve_node_value"]


@dataclasses.dataclass(frozen=True)
class MonadicSolution:
    """Result of a monadic-serial DP sweep; its arrays are read-only.

    Attributes
    ----------
    direction:
        ``"forward"`` or ``"backward"``.
    stage_values:
        ``stage_values[k][i]`` is the optimal accumulated cost at vertex
        ``i`` of stage ``k`` — cost-to-sink for backward sweeps,
        cost-from-source for forward sweeps.
    decisions:
        For backward sweeps, ``decisions[k][i]`` is the next-stage vertex
        chosen from vertex ``i`` of stage ``k`` (defined for
        ``k < last``).  For forward sweeps, the previous-stage vertex
        chosen into vertex ``i`` of stage ``k`` (defined for ``k > 0``).
    optimum:
        Overall optimal source→sink cost (⊕ over entry/exit vertices).
    path:
        One optimal path realizing ``optimum``.
    op_count:
        Number of elementary DP steps (edge relaxations) performed.
    """

    direction: str
    stage_values: tuple[np.ndarray, ...]
    decisions: tuple[np.ndarray, ...]
    optimum: float
    path: StagePath
    op_count: int

    __eq__ = fields_equal
    __setstate__ = restore_read_only

    def __post_init__(self) -> None:
        read_only((self.stage_values, self.decisions))


def _extract(sr: Semiring, values: np.ndarray) -> tuple[float, int]:
    """⊕-reduce a value vector; return (best value, winning index)."""
    idx = int(sr.add_argreduce(values)) if sr.add_argreduce is not None else 0
    return float(values[idx]), idx


def solve_backward(graph: MultistageGraph) -> MonadicSolution:
    """Solve eq. (1) by a right-to-left sweep over the stages.

    ``stage_values[k][i]`` is the optimal cost from vertex ``i`` of stage
    ``k`` to the best sink.  Operation count for an ``(N+1)``-stage
    single-source/sink, ``m``-wide graph is ``(N - 2)·m² + m`` — the
    paper's uniprocessor baseline.
    """
    sr = graph.semiring
    require_argreduce(sr)
    sizes = graph.stage_sizes
    n_stages = graph.num_stages
    values: list[np.ndarray] = [np.empty(0)] * n_stages
    decisions: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * n_stages
    values[-1] = sr.ones(sizes[-1])  # cost of the empty suffix
    ops = 0
    for k in range(n_stages - 2, -1, -1):
        # candidate[i, j] = c_{i,j} ⊗ f(j); one ⊗⊕ step per edge.
        candidate = sr.raw_mul(graph.costs[k], values[k + 1][None, :])
        decisions[k] = sr.add_argreduce(candidate, axis=1).astype(np.intp)
        # ⊕ picks one of its operands, so the reduction equals the
        # candidate the decision points at, without a gather.
        values[k] = sr.add_reduce(candidate, axis=1)
        ops += sizes[k] * sizes[k + 1]
    optimum, start = _extract(sr, values[0])
    nodes = [start]
    for k in range(n_stages - 1):
        nodes.append(int(decisions[k][nodes[-1]]))
    path = StagePath(nodes=tuple(nodes), cost=optimum)
    return MonadicSolution(
        direction="backward",
        stage_values=tuple(values),
        decisions=tuple(decisions),
        optimum=optimum,
        path=path,
        op_count=ops,
    )


def solve_forward(graph: MultistageGraph) -> MonadicSolution:
    """Solve eq. (2) by a left-to-right sweep over the stages.

    ``stage_values[k][i]`` is the optimal cost from the best source to
    vertex ``i`` of stage ``k``.  Equivalent optimum to
    :func:`solve_backward` (the tests assert this on random instances).
    """
    sr = graph.semiring
    require_argreduce(sr)
    sizes = graph.stage_sizes
    n_stages = graph.num_stages
    values: list[np.ndarray] = [np.empty(0)] * n_stages
    decisions: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * n_stages
    values[0] = sr.ones(sizes[0])  # cost of the empty prefix
    ops = 0
    for k in range(1, n_stages):
        # candidate[j, i] = f(j) ⊗ c_{j,i}
        candidate = sr.raw_mul(values[k - 1][:, None], graph.costs[k - 1])
        decisions[k] = sr.add_argreduce(candidate, axis=0).astype(np.intp)
        values[k] = sr.add_reduce(candidate, axis=0)
        ops += sizes[k - 1] * sizes[k]
    optimum, end = _extract(sr, values[-1])
    nodes = [end]
    for k in range(n_stages - 1, 0, -1):
        nodes.append(int(decisions[k][nodes[-1]]))
    nodes.reverse()
    path = StagePath(nodes=tuple(nodes), cost=optimum)
    return MonadicSolution(
        direction="forward",
        stage_values=tuple(values),
        decisions=tuple(decisions),
        optimum=optimum,
        path=path,
        op_count=ops,
    )


def solve_node_value(problem: NodeValueProblem) -> MonadicSolution:
    """Variable-elimination sweep for a node-value problem (eqs. 10–13).

    Eliminates ``X₁, X₂, …`` in order, maintaining ``h(X_k)`` = shortest
    path from any stage-1 vertex to each value of ``X_k`` — exactly the
    recurrence the Fig. 5 feedback array pipelines.  Implemented as a
    forward sweep over the materialized cost matrices.
    """
    return solve_forward(problem.to_graph())
