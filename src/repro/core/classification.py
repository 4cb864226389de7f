"""The paper's four-way classification of DP formulations (Section 2).

Two orthogonal axes:

* **Arity** — *monadic* formulations have one recursive term per cost
  function (eqs. 1–2); *polyadic* ones have several (eq. 3).
* **Structure** — *serial* objectives chain their terms (each shares one
  variable with its predecessor and one with its successor); everything
  else is *nonserial*.

The classifier inspects problem objects (multistage graphs and node-value
problems are serial by construction; general objectives are tested via
their interaction graph; matrix-chain ordering is the canonical
polyadic-nonserial problem) and term lists, and
:func:`recommend` reproduces the Table-1 guidance — including the
"many states → monadic, many stages → polyadic" rule for serial
problems.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Sequence

from ..dp.nonserial import NonserialObjective
from ..graphs import MultistageGraph, NodeValueProblem, Term, is_serial_objective
from .problem import MatrixChainProblem

__all__ = ["Arity", "Structure", "DPClass", "classify", "classify_terms", "recommend", "Recommendation"]


class Arity(enum.Enum):
    MONADIC = "monadic"
    POLYADIC = "polyadic"


class Structure(enum.Enum):
    SERIAL = "serial"
    NONSERIAL = "nonserial"


class DPClass(enum.Enum):
    """The four classes of Table 1."""

    MONADIC_SERIAL = (Arity.MONADIC, Structure.SERIAL)
    POLYADIC_SERIAL = (Arity.POLYADIC, Structure.SERIAL)
    MONADIC_NONSERIAL = (Arity.MONADIC, Structure.NONSERIAL)
    POLYADIC_NONSERIAL = (Arity.POLYADIC, Structure.NONSERIAL)

    @property
    def arity(self) -> Arity:
        return self.value[0]

    @property
    def structure(self) -> Structure:
        return self.value[1]


def classify_terms(terms: Sequence[Term]) -> Structure:
    """Structure of an objective given its terms (paper Section 2.2)."""
    return Structure.SERIAL if is_serial_objective(terms) else Structure.NONSERIAL


def classify(problem: object, *, arity: Arity = Arity.MONADIC) -> DPClass:
    """Classify a problem object into one of the four Table-1 classes.

    Serial problems admit both monadic and polyadic formulations (the
    same multistage graph can be solved by eq. 2 or eq. 3); ``arity``
    selects which formulation is being asked about and defaults to
    monadic, the paper's baseline.  Matrix-chain ordering is inherently
    polyadic-nonserial regardless of ``arity``.
    """
    if isinstance(problem, MatrixChainProblem):
        return DPClass.POLYADIC_NONSERIAL
    if isinstance(problem, (MultistageGraph, NodeValueProblem)):
        return (
            DPClass.MONADIC_SERIAL
            if arity is Arity.MONADIC
            else DPClass.POLYADIC_SERIAL
        )
    if isinstance(problem, NonserialObjective):
        structure = classify_terms(
            [Term(tuple(tvars)) for tvars, _fn in problem.terms]
        )
        if structure is Structure.SERIAL:
            return (
                DPClass.MONADIC_SERIAL
                if arity is Arity.MONADIC
                else DPClass.POLYADIC_SERIAL
            )
        return (
            DPClass.MONADIC_NONSERIAL
            if arity is Arity.MONADIC
            else DPClass.POLYADIC_NONSERIAL
        )
    raise TypeError(f"cannot classify object of type {type(problem).__name__}")


@dataclasses.dataclass(frozen=True)
class Recommendation:
    """Table-1 row for a problem: class, method, architecture."""

    dp_class: DPClass
    method: str
    architecture: str
    rationale: str


def recommend(problem: object, *, stage_ratio_threshold: float = 4.0) -> Recommendation:
    """Reproduce Table 1's method/architecture guidance for a problem.

    For serial problems the paper's rule is: many states/quantized values
    per stage → monadic, solve as a string of matrix multiplications on
    a systolic array; many stages → polyadic, solve by divide-and-conquer
    (loose coupling at fine grain).  The rule of thumb here compares the
    stage count against ``stage_ratio_threshold ×`` the stage width.
    """
    if isinstance(problem, MatrixChainProblem):
        return Recommendation(
            DPClass.POLYADIC_NONSERIAL,
            "search AND/OR-graph; serialize; map to planar systolic array",
            "dataflow or systolic processing",
            "unstructured polyadic recursion (eq. 6)",
        )
    if isinstance(problem, (MultistageGraph, NodeValueProblem)):
        n_stages = problem.num_stages
        width = max(problem.stage_sizes)
        if n_stages > stage_ratio_threshold * width:
            return Recommendation(
                DPClass.POLYADIC_SERIAL,
                "divide-and-conquer over the matrix string "
                "(Θ(N/log₂N) systolic arrays)",
                "loose coupling for fine grain",
                f"many stages ({n_stages}) relative to stage width ({width})",
            )
        return Recommendation(
            DPClass.MONADIC_SERIAL,
            "solve as string of matrix multiplications",
            "systolic processing (Figs. 3-5)",
            f"many states per stage ({width}) relative to stage count ({n_stages})",
        )
    if isinstance(problem, NonserialObjective):
        structure = classify_terms(
            [Term(tuple(tvars)) for tvars, _fn in problem.terms]
        )
        if structure is Structure.SERIAL:
            return Recommendation(
                DPClass.MONADIC_SERIAL,
                "solve as string of matrix multiplications",
                "systolic processing (Figs. 3-5)",
                "objective is already serial",
            )
        return Recommendation(
            DPClass.MONADIC_NONSERIAL,
            "transform into monadic-serial representation by grouping variables",
            "systolic processing after the transform",
            "variables can be eliminated one by one (Section 6.1)",
        )
    raise TypeError(f"cannot recommend for object of type {type(problem).__name__}")
