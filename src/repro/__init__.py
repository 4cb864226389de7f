"""repro — Systolic Processing for Dynamic Programming Problems.

A complete reproduction of Wah & Li (ICPP 1985): the four-way
classification of dynamic-programming formulations, the three
monadic-serial systolic-array designs (Figures 3-5), divide-and-conquer
scheduling of polyadic-serial problems with the Theorem-1 granularity
analysis (Figure 6), folded AND/OR-graph search with the Theorem-2
partition result, and the nonserial→serial transformations of Section 6.

Quick start::

    import numpy as np
    from repro import graphs, solve

    rng = np.random.default_rng(0)
    problem = graphs.traffic_light_problem(rng, num_intersections=8, num_timings=6)
    report = solve(problem)          # Table-1 dispatch → Fig. 5 array
    print(report.method, report.optimum, report.solution.nodes)

Subpackages
-----------
``repro.semiring``  — closed-semiring algebra (min-plus etc.) and matmuls.
``repro.graphs``    — multistage graphs, workloads, interaction graphs.
``repro.dp``        — sequential DP oracles (monadic, polyadic, chain, nonserial).
``repro.systolic``  — cycle-accurate array simulators (Figs. 3, 4, 5, §6.2).
``repro.dnc``       — divide-and-conquer schedules and granularity analysis.
``repro.andor``     — AND/OR graphs: build, count, search, serialize, map.
``repro.search``    — DP as branch-and-bound with dominance tests.
``repro.dataflow``  — asynchronous dataflow execution of multiply trees.
``repro.core``      — classification, Table-1 dispatch ``solve()``, metrics.
``repro.telemetry`` — trace-bus observability: metrics, timelines, exporters.
``repro.faults``    — fault injection, ABFT detection, recovery policies.
``repro.exec``      — batch engine: stacked kernels, solve cache, one process.

``andor``, ``search``, ``dataflow``, ``telemetry``, ``faults`` and ``io``
(run records) take no part in a ``solve()`` call and load on first use:
``repro.faults`` or ``from repro import andor`` imports the subpackage then.
"""

import importlib
from types import ModuleType
from typing import TYPE_CHECKING

from . import core, dnc, dp, exec, graphs, semiring, systolic
from .core import (
    Arity,
    DPClass,
    MatrixChainProblem,
    Recommendation,
    SolveReport,
    Structure,
    ValidationError,
    classify,
    recommend,
    solve,
)
from .exec import BatchResult, BatchStats, SolveCache, solve_batch

if TYPE_CHECKING:
    from . import andor, dataflow, faults, io, search, telemetry

#: Subpackages no ``solve()`` / ``solve_batch()`` call runs: each loads on
#: its first attribute access (PEP 562), so a cold ``import repro`` does not
#: compile them.
_LAZY_SUBPACKAGES = frozenset({"andor", "dataflow", "faults", "io", "search", "telemetry"})

__version__ = "1.0.0"

__all__ = [
    "semiring",
    "faults",
    "graphs",
    "dp",
    "systolic",
    "dnc",
    "andor",
    "search",
    "dataflow",
    "io",
    "core",
    "telemetry",
    "solve",
    "solve_batch",
    "BatchResult",
    "BatchStats",
    "SolveCache",
    "classify",
    "recommend",
    "Arity",
    "Structure",
    "DPClass",
    "Recommendation",
    "MatrixChainProblem",
    "SolveReport",
    "ValidationError",
    "__version__",
]


if not TYPE_CHECKING:
    # Hidden from mypy: it would take __getattr__'s return type for every
    # name it cannot find, so a misspelt ``repro.<name>`` would pass.  The
    # TYPE_CHECKING imports above give it the real subpackages.

    def __getattr__(name: str) -> ModuleType:
        if name in _LAZY_SUBPACKAGES:
            # The import binds the subpackage in this module's namespace, so
            # later accesses do not come back here.
            return importlib.import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(globals()) | _LAZY_SUBPACKAGES)
