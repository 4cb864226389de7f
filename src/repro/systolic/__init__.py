"""Cycle-accurate simulators of the paper's systolic-array designs.

Every design runs on the shared :class:`SystolicMachine` (RTL backend)
and additionally ships a vectorized fast backend; select with
``backend="rtl" | "fast" | "auto"`` on the array constructors or their
``run`` methods.
"""

from .fabric import (
    ArrayStats,
    AUTO_VALIDATE_LIMIT,
    BACKENDS,
    BackendMismatch,
    EventBus,
    ProcessingElement,
    Register,
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
    TraceSink,
    normalize_backend,
    run_with_backend,
)
from .pipelined_array import (
    PipelinedArrayResult,
    PipelinedMatrixStringArray,
    StreamedRunResult,
    run_stream,
)
from .broadcast_array import BroadcastArrayResult, BroadcastMatrixStringArray
from .feedback_array import FeedbackArrayResult, FeedbackSystolicArray, feedback_pu
from .mesh_array import MeshArrayResult, MeshMatrixMultiplier, mesh_cycles
from .spacetime import cell_events, render_spacetime, trace_to_grid
from .triangular import (
    IntervalSpec,
    MatrixChainSpec,
    ObstSpec,
    TriangularArray,
    TriangularRun,
    TriangularSpec,
    greedy_completion,
    obst_t_d,
)
from .parenthesization import (
    BroadcastParenthesizer,
    ParenthesizationRun,
    SystolicParenthesizer,
    t_d_recurrence,
    t_p_recurrence,
)

__all__ = [
    "Register",
    "ProcessingElement",
    "ArrayStats",
    "RunReport",
    "SystolicError",
    "SystolicMachine",
    "TraceEvent",
    "TraceSink",
    "EventBus",
    "BackendMismatch",
    "BACKENDS",
    "AUTO_VALIDATE_LIMIT",
    "normalize_backend",
    "run_with_backend",
    "PipelinedMatrixStringArray",
    "PipelinedArrayResult",
    "StreamedRunResult",
    "run_stream",
    "BroadcastMatrixStringArray",
    "BroadcastArrayResult",
    "FeedbackSystolicArray",
    "FeedbackArrayResult",
    "feedback_pu",
    "BroadcastParenthesizer",
    "SystolicParenthesizer",
    "ParenthesizationRun",
    "t_d_recurrence",
    "t_p_recurrence",
    "MeshMatrixMultiplier",
    "MeshArrayResult",
    "mesh_cycles",
    "render_spacetime",
    "trace_to_grid",
    "cell_events",
    "TriangularSpec",
    "IntervalSpec",
    "TriangularArray",
    "TriangularRun",
    "MatrixChainSpec",
    "ObstSpec",
    "obst_t_d",
    "greedy_completion",
]
