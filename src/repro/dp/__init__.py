"""Sequential dynamic-programming solvers — the reference oracles.

Every parallel/systolic component of the library is validated against
the solvers here: monadic sweeps (eqs. 1–2), polyadic divide-and-conquer
(eq. 3/15), matrix-chain parenthesization (eq. 6), and nonserial
variable elimination (eqs. 34–40).
"""

from .monadic import MonadicSolution, solve_backward, solve_forward, solve_node_value
from .polyadic import MultiplyNode, PolyadicSolution, solve_polyadic, stage_cost_matrix
from .matrix_chain import (
    ChainOrder,
    brute_force_matrix_chain,
    count_scalar_multiplications,
    enumerate_parenthesizations,
    expression_from_splits,
    multiply_in_order,
    solve_matrix_chain,
)
from .reduction_order import (
    ReductionPlan,
    execute_reduction,
    optimal_reduction_order,
    reduction_cost,
    ternary_reduction_cost,
)
from .obst import (
    ObstSolution,
    brute_force_obst,
    expected_depth_cost,
    random_obst_weights,
    solve_obst,
)
from .nonserial import (
    EliminationResult,
    NonserialObjective,
    banded_objective,
    brute_force_minimum,
    eliminate,
    eq40_step_count,
    group_variables_to_serial,
)

__all__ = [
    "MonadicSolution",
    "solve_backward",
    "solve_forward",
    "solve_node_value",
    "MultiplyNode",
    "PolyadicSolution",
    "solve_polyadic",
    "stage_cost_matrix",
    "ChainOrder",
    "solve_matrix_chain",
    "brute_force_matrix_chain",
    "count_scalar_multiplications",
    "enumerate_parenthesizations",
    "expression_from_splits",
    "multiply_in_order",
    "EliminationResult",
    "NonserialObjective",
    "banded_objective",
    "brute_force_minimum",
    "eliminate",
    "eq40_step_count",
    "group_variables_to_serial",
    "ObstSolution",
    "solve_obst",
    "brute_force_obst",
    "expected_depth_cost",
    "random_obst_weights",
    "ReductionPlan",
    "optimal_reduction_order",
    "reduction_cost",
    "execute_reduction",
    "ternary_reduction_cost",
]
