"""Nonserial DP by variable elimination, and the serializing transform.

Section 6.1 of the paper solves a monadic-nonserial problem — an
objective ``min Σ_i g_i(Xⁱ)`` whose terms mention arbitrary variable
subsets — by eliminating variables one at a time (eqs. 34–39) and counts
the work for the banded three-variable-term objective (eq. 36) as

    Σ_{k=1}^{N-2} m_k·m_{k+1}·m_{k+2}  +  m_{N-1}·m_N          (eq. 40)

where a *step* is one cost-function evaluation + one addition + one
comparison.  The paper then serializes the same problem by **grouping
adjacent variables** (eq. 41) so the result can run on the Section-3
systolic arrays.

This module implements the general bucket-elimination engine (any
term structure, any elimination order), exact step accounting matching
eq. (40), assignment recovery, and the grouping transform producing an
equivalent :class:`~repro.graphs.multistage.MultistageGraph`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from ..graphs import MultistageGraph, Term
from ..graphs.interaction import InteractionGraph
from ..semiring import MIN_PLUS, Semiring

__all__ = [
    "NonserialObjective",
    "EliminationResult",
    "banded_objective",
    "eliminate",
    "brute_force_minimum",
    "eq40_step_count",
    "group_variables_to_serial",
]


@dataclasses.dataclass(frozen=True)
class NonserialObjective:
    """A discrete objective ``⊕-combine of g_i(Xⁱ)`` over named variables.

    Parameters
    ----------
    domains:
        Mapping variable name → 1-D array of its quantized values.
    terms:
        ``(variables, function)`` pairs.  Each function must be
        vectorized: it is called with one broadcastable array per listed
        variable and must return elementwise costs.
    semiring:
        ``mul`` combines terms (``+`` for min-plus), ``add`` eliminates
        variables (``min``).
    """

    domains: Mapping[Hashable, np.ndarray]
    terms: tuple[tuple[tuple[Hashable, ...], Callable[..., np.ndarray]], ...]
    semiring: Semiring = MIN_PLUS

    def __post_init__(self) -> None:
        doms = {k: np.asarray(v, dtype=np.float64) for k, v in self.domains.items()}
        for k, v in doms.items():
            if v.ndim != 1 or v.size == 0:
                raise ValueError(f"domain of {k!r} must be a non-empty 1-D array")
        object.__setattr__(self, "domains", doms)
        if not self.terms:
            raise ValueError("need at least one term")
        for tvars, _fn in self.terms:
            unknown = [v for v in tvars if v not in doms]
            if unknown:
                raise ValueError(f"term mentions unknown variables {unknown}")

    @property
    def variables(self) -> tuple[Hashable, ...]:
        """Variables in order of first appearance across terms."""
        out: list[Hashable] = []
        seen: set[Hashable] = set()
        for tvars, _ in self.terms:
            for v in tvars:
                if v not in seen:
                    seen.add(v)
                    out.append(v)
        return tuple(out)

    def interaction_graph(self) -> InteractionGraph:
        """Structural view consumed by the classifier and order heuristics."""
        return InteractionGraph([Term(tuple(tvars)) for tvars, _ in self.terms])

    def term_table(self, index: int) -> tuple[tuple[Hashable, ...], np.ndarray]:
        """Materialize term ``index`` as a dense table over its variables."""
        tvars, fn = self.terms[index]
        grids = []
        for axis, v in enumerate(tvars):
            shape = [1] * len(tvars)
            shape[axis] = self.domains[v].size
            grids.append(self.domains[v].reshape(shape))
        table = self.semiring.asarray(fn(*grids))
        expected = tuple(self.domains[v].size for v in tvars)
        if table.shape != expected:
            table = np.broadcast_to(table, expected).copy()
        return tuple(tvars), table

    def evaluate(self, assignment: Mapping[Hashable, int]) -> float:
        """Objective value at an assignment of *value indices* per variable."""
        sr = self.semiring
        acc = sr.one
        for tvars, fn in self.terms:
            args = [np.asarray(self.domains[v][assignment[v]]) for v in tvars]
            acc = sr.scalar_mul(acc, float(fn(*args)))
        return acc


@dataclasses.dataclass(frozen=True)
class EliminationResult:
    """Outcome of a full variable-elimination run."""

    optimum: float
    assignment: dict[Hashable, int]  # variable -> winning value index
    order: tuple[Hashable, ...]  # elimination order actually used
    elimination_steps: tuple[int, ...]  # per-eliminated-variable step counts
    final_reduction_steps: int  # joint reduction over the tail variables
    total_steps: int
    max_table_size: int  # peak intermediate-table cardinality


class _Factor:
    """Dense table over an ordered tuple of variables (internal)."""

    __slots__ = ("vars", "table")

    def __init__(self, vars_: tuple[Hashable, ...], table: np.ndarray):
        self.vars = vars_
        self.table = table


def _combine(sr: Semiring, factors: list[_Factor]) -> _Factor:
    """⊗-combine factors onto the union of their variables (broadcasted)."""
    union: list[Hashable] = []
    for f in factors:
        for v in f.vars:
            if v not in union:
                union.append(v)
    axis_of = {v: i for i, v in enumerate(union)}
    var_size: dict[Hashable, int] = {}
    for f in factors:
        for v, s in zip(f.vars, f.table.shape):
            var_size[v] = s
    full_shape = tuple(var_size[v] for v in union)
    out: np.ndarray | None = None
    for f in factors:
        # Permute this factor's axes into union-relative order, then pad
        # missing variables with length-1 axes so broadcasting aligns.
        perm = sorted(range(len(f.vars)), key=lambda a: axis_of[f.vars[a]])
        src = np.transpose(f.table, perm)
        shape = [1] * len(union)
        for axis_in_src, axis_in_factor in enumerate(perm):
            shape[axis_of[f.vars[axis_in_factor]]] = src.shape[axis_in_src]
        src = src.reshape(shape)
        out = src if out is None else sr.mul(out, src)
    assert out is not None
    if out.shape != full_shape:
        out = np.broadcast_to(out, full_shape)
    return _Factor(tuple(union), np.ascontiguousarray(out))


def eliminate(
    objective: NonserialObjective,
    order: Sequence[Hashable] | None = None,
    *,
    joint_tail: int = 2,
) -> EliminationResult:
    """Multistage optimization by step-by-step variable elimination.

    Variables are eliminated in ``order`` (default: order of first
    appearance, the paper's natural order) until at most ``joint_tail``
    variables remain; those are then reduced jointly, mirroring the
    paper's final "compare all values of h_{N-2}(v_{N-1}, v_N)".  With
    ``joint_tail=2`` on the banded objective of eq. (36) the recorded
    ``total_steps`` equals eq. (40) exactly — the benchmark asserts so.

    Step accounting: eliminating ``v`` costs the cardinality of the joint
    table over ``v`` and its co-occurring variables (one f-evaluation,
    one addition, one comparison per cell, per the paper's definition of
    a step).
    """
    sr = objective.semiring
    if sr.add_argreduce is None:
        raise ValueError(f"semiring {sr.name!r} does not support decision extraction")
    all_vars = objective.variables
    if order is None:
        order = all_vars
    order = tuple(order)
    if set(order) != set(all_vars):
        raise ValueError("order must be a permutation of the objective's variables")
    if not 1 <= joint_tail <= len(all_vars):
        raise ValueError("joint_tail must be in [1, number of variables]")

    factors: list[_Factor] = [
        _Factor(*objective.term_table(i)) for i in range(len(objective.terms))
    ]
    records: list[tuple[Hashable, tuple[Hashable, ...], np.ndarray]] = []
    steps: list[int] = []
    max_table = max(f.table.size for f in factors)

    head = order[: len(order) - joint_tail]
    tail = order[len(order) - joint_tail :]
    for v in head:
        involved = [f for f in factors if v in f.vars]
        rest = [f for f in factors if v not in f.vars]
        if not involved:
            # v appears in no remaining factor: pick index 0 arbitrarily.
            records.append((v, (), np.asarray(0)))
            steps.append(int(objective.domains[v].size))
            continue
        combined = _combine(sr, involved)
        steps.append(int(combined.table.size))
        max_table = max(max_table, combined.table.size)
        axis = combined.vars.index(v)
        moved = np.moveaxis(combined.table, axis, -1)
        arg = sr.add_argreduce(moved, axis=-1)
        val = np.take_along_axis(moved, np.expand_dims(arg, -1), axis=-1)[..., 0]
        neighbor_vars = tuple(u for u in combined.vars if u != v)
        records.append((v, neighbor_vars, np.asarray(arg)))
        rest.append(_Factor(neighbor_vars, np.asarray(val)))
        factors = rest

    # Joint reduction over the tail variables.
    combined = _combine(sr, factors)
    # combined.vars ⊆ tail (some tail variables may be absent if they
    # appear in no term — they then take index 0).
    final_steps = int(combined.table.size)
    max_table = max(max_table, combined.table.size)
    flat_idx = int(sr.add_argreduce(combined.table, axis=None))
    optimum = float(combined.table.reshape(-1)[flat_idx])
    tail_assignment = dict(
        zip(combined.vars, np.unravel_index(flat_idx, combined.table.shape))
    )
    assignment: dict[Hashable, int] = {
        v: int(tail_assignment.get(v, 0)) for v in tail
    }
    # Back-substitute through elimination records, newest first.
    for v, neighbor_vars, arg in reversed(records):
        idx = tuple(assignment[u] for u in neighbor_vars)
        assignment[v] = int(arg[idx] if neighbor_vars else arg)

    return EliminationResult(
        optimum=optimum,
        assignment=assignment,
        order=order,
        elimination_steps=tuple(steps),
        final_reduction_steps=final_steps,
        total_steps=int(sum(steps) + final_steps),
        max_table_size=int(max_table),
    )


def brute_force_minimum(objective: NonserialObjective) -> tuple[float, dict[Hashable, int]]:
    """Exhaustive optimum over the full joint domain (test oracle)."""
    sr = objective.semiring
    names = objective.variables
    best = sr.zero
    best_assign: dict[Hashable, int] | None = None
    sizes = [objective.domains[v].size for v in names]
    for combo in itertools.product(*[range(s) for s in sizes]):
        assign = dict(zip(names, combo))
        val = objective.evaluate(assign)
        if best_assign is None or sr.scalar_add(val, best) == val and val != best:
            best, best_assign = val, assign
    assert best_assign is not None
    return best, best_assign


def banded_objective(
    rng: np.random.Generator,
    domain_sizes: Sequence[int],
    bandwidth: int = 3,
    *,
    low: float = 0.0,
    high: float = 10.0,
) -> NonserialObjective:
    """Random terms over ``bandwidth`` consecutive variables: at the
    default 3, the paper's eq. (36) workload ``g_k(V_k, V_{k+1}, V_{k+2})``.

    Each ``g_k`` is a random dense table over its variables.
    ``domain_sizes[k]`` is ``m_{k+1}`` of the paper.
    """
    w = _check_bandwidth(bandwidth, len(domain_sizes))
    domains = {
        f"V{k + 1}": np.arange(int(size), dtype=np.float64)
        for k, size in enumerate(domain_sizes)
    }

    def make_term(k: int):
        shape = tuple(int(domain_sizes[k + d]) for d in range(w))
        table = rng.uniform(low, high, size=shape)

        def fn(*args, _table=table):
            # Domains are index grids (0 … m-1), so values index the table.
            return _table[tuple(np.asarray(a, dtype=np.intp) for a in args)]

        return (tuple(f"V{k + d + 1}" for d in range(w)), fn)

    n_terms = len(domains) - w + 1
    return NonserialObjective(
        domains=domains, terms=tuple(make_term(k) for k in range(n_terms))
    )


def _check_bandwidth(bandwidth: int, n: int) -> int:
    """``bandwidth`` as an int, checked against ``n`` variables."""
    w = int(bandwidth)
    if w < 2:
        raise ValueError("bandwidth must be at least 2")
    if n < w:
        raise ValueError(f"need at least {w} variables for bandwidth {w}")
    return w


def eq40_step_count(domain_sizes: Sequence[int]) -> int:
    """Closed form of paper eq. (40) for the banded objective.

    ``Σ_{k=1}^{N-2} m_k·m_{k+1}·m_{k+2} + m_{N-1}·m_N``.
    """
    m = [int(s) for s in domain_sizes]
    n = len(m)
    if n < 3:
        raise ValueError("eq. 40 is defined for N >= 3 variables")
    return sum(m[k] * m[k + 1] * m[k + 2] for k in range(n - 2)) + m[-2] * m[-1]


def group_variables_to_serial(
    objective: NonserialObjective, bandwidth: int = 3
) -> tuple[MultistageGraph, tuple[tuple[tuple[int, ...], ...], ...]]:
    """Serialize a banded objective by grouping adjacent variables (eq. 41).

    Section 6.1's recipe ("combine several primary variables into a new
    variable"): for an objective whose ``k``-th term spans the ``w``
    consecutive variables ``V_k … V_{k+w-1}``, the composite variables
    ``V'_k = (V_k, …, V_{k+w-2})`` chain serially, adjacent composites
    overlapping on ``w − 2`` originals.  Layer ``k`` of the multistage
    graph carries ``g_k`` on the *consistent* composite pairs (those
    agreeing on the shared originals) and the semiring zero elsewhere,
    so the graph's monadic optimum equals the nonserial optimum.  The
    default ``bandwidth=3`` is the paper's eq. (41), ``V'_k = (V_k,
    V_{k+1})``; larger bandwidths pay composite domains of size ``Π m``
    over ``w − 1`` variables, the blow-up the paper's "computational time
    and storage depend on the number of elements in the domain of h₁"
    sentence prices.

    Returns ``(graph, composite_states)`` with
    ``composite_states[k][node]`` the tuple of original value indices.
    """
    names = objective.variables
    n = len(names)
    w = _check_bandwidth(bandwidth, n)
    expected = [tuple(names[k + d] for d in range(w)) for k in range(n - w + 1)]
    actual = [tuple(tvars) for tvars, _fn in objective.terms]
    if actual != expected:
        raise ValueError(
            f"grouping requires consecutive bandwidth-{w} terms in order; "
            f"got terms over {actual}"
        )
    sr = objective.semiring
    sizes = [objective.domains[v].size for v in names]
    group = w - 1  # originals per composite variable
    composite_states = tuple(
        tuple(itertools.product(*(range(size) for size in sizes[k : k + group])))
        for k in range(n - group + 1)
    )
    costs = []
    for k in range(n - w + 1):
        _tvars, table = objective.term_table(k)  # over V_k .. V_{k+w-1}
        m_last = sizes[k + group]
        tail = int(np.prod(sizes[k + 1 : k + group], dtype=np.int64))
        n_rows = len(composite_states[k])
        # Row (a, rest…) continues to column (rest…, c): the row index
        # modulo the shared originals' count, times m_last, plus c.
        rows = np.arange(n_rows)[:, None]
        layer = sr.zeros((n_rows, len(composite_states[k + 1])))
        cols = (rows % tail) * m_last + np.arange(m_last)
        layer[rows, cols] = table.reshape(n_rows, m_last)
        costs.append(layer)
    graph = MultistageGraph(costs=tuple(costs), semiring=sr)
    return graph, composite_states
