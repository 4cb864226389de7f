"""Parallel divide-and-conquer chain products: schedules and analysis.

The Section-4 machinery: the exact eq.-(29) schedule-time model, the
round-synchronous K-array scheduler that measures it, the Proposition-1
asymptotic-PU limits, and the Theorem-1 AT²/KT² granularity analysis
behind Figure 6.
"""

from .analysis import (
    ScheduleTime,
    argmin_kt2,
    asymptotic_pu,
    asymptotic_pu_limit,
    at2_lower_bound,
    at2_surface,
    kt2,
    kt2_curve,
    optimal_granularity,
    processor_utilization,
    schedule_time,
)
from .schedule import ChainScheduleResult, rounds_only, simulate_chain_product

__all__ = [
    "ScheduleTime",
    "schedule_time",
    "processor_utilization",
    "asymptotic_pu",
    "asymptotic_pu_limit",
    "at2_surface",
    "at2_lower_bound",
    "kt2",
    "kt2_curve",
    "optimal_granularity",
    "argmin_kt2",
    "ChainScheduleResult",
    "simulate_chain_product",
    "rounds_only",
]
