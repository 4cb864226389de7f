"""Core API: classification, Table-1 dispatch solving, and metrics."""

from .classification import (
    Arity,
    DPClass,
    Recommendation,
    Structure,
    classify,
    classify_terms,
    recommend,
)
from .metrics import (
    at2_lower_bound,
    at2_surface,
    eq9_pu,
    feedback_pu,
    kt2,
    measured_pu,
    processor_utilization,
    speedup,
    summarize_report,
)
from .problem import MatrixChainProblem
from .solver import SolveReport, ValidationError, solve

__all__ = [
    "Arity",
    "Structure",
    "DPClass",
    "Recommendation",
    "classify",
    "classify_terms",
    "recommend",
    "MatrixChainProblem",
    "SolveReport",
    "ValidationError",
    "solve",
    "eq9_pu",
    "feedback_pu",
    "measured_pu",
    "speedup",
    "summarize_report",
    "processor_utilization",
    "kt2",
    "at2_surface",
    "at2_lower_bound",
]
