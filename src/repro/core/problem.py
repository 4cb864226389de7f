"""Problem wrapper types used by the classifier and the dispatch solver.

Most problem classes live with their substrate (multistage graphs in
:mod:`repro.graphs`, general objectives in :mod:`repro.dp.nonserial`);
this module adds the thin wrappers that have no substrate of their own.
"""

from __future__ import annotations

import dataclasses

from ..dp.matrix_chain import _check_dims

__all__ = ["MatrixChainProblem"]


@dataclasses.dataclass(frozen=True)
class MatrixChainProblem:
    """The matrix-chain ordering (secondary optimization) problem.

    ``dims = (r₀, …, r_N)``: matrix ``M_i`` is ``r_{i-1} × r_i``.  The
    canonical polyadic-nonserial problem of the paper (eq. 6 /
    Figure 2).
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _check_dims(self.dims))

    @property
    def num_matrices(self) -> int:
        return len(self.dims) - 1
