"""A 2-D mesh systolic array for semiring matrix-matrix multiplication.

Section 4 of the paper allocates whole "matrix-multiplication systolic
arrays" as the processors of the divide-and-conquer schedule, citing the
authors' own design paper ([19], Li & Wah, *Design of Optimal Systolic
Arrays*).  This module supplies that unit as a cycle-accurate simulator,
so the granularity analysis can be expressed in *clock cycles* rather
than abstract ``T₁`` rounds:

* ``m × m`` PEs in a mesh; the result element ``C[i, j]`` is stationary
  in PE ``(i, j)``.
* Operand ``A`` streams left→right along the rows and ``B`` top→bottom
  along the columns, each fed in the classic diagonal skew: row ``i`` of
  ``A`` is delayed ``i`` ticks, column ``j`` of ``B`` is delayed ``j``
  ticks, so ``a_{ik}`` and ``b_{kj}`` meet in PE ``(i, j)`` at tick
  ``i + j + k`` and the PE performs one ⊗ and one ⊕ per meeting.
* The last meeting happens at tick ``(m−1) + (m−1) + (m−1)``, giving the
  classic ``3m − 2`` cycle schedule (``T₁`` in cycles), which
  :func:`mesh_cycles` exposes and the tests verify against the
  simulation.

Rectangular operands (``n × k`` times ``k × m``) are supported with an
``n × m`` mesh and schedule length ``n + m + k − 2``.

The RTL backend runs on :class:`~repro.systolic.fabric.SystolicMachine`
(with ``record_trace`` publishing an ``op`` event per PE meeting); the
fast backend is one call to the blocked :func:`repro.semiring.matmul`
plus the schedule's closed-form counters.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, ClassVar, Iterable

import numpy as np

from ..semiring import MIN_PLUS, Semiring, matmul
from .fabric import (
    RunReport,
    SystolicError,
    SystolicMachine,
    TraceEvent,
    normalize_backend,
    run_with_backend,
)

__all__ = ["MeshArrayResult", "MeshMatrixMultiplier", "mesh_cycles"]


def mesh_cycles(n: int, k: int, m: int) -> int:
    """Schedule length (clock cycles) of an ``n×k`` by ``k×m`` product.

    ``n + m + k − 2``; the square case gives the classic ``3m − 2``.
    """
    if min(n, k, m) < 1:
        raise ValueError("all dimensions must be positive")
    return n + m + k - 2


@dataclasses.dataclass(frozen=True)
class MeshArrayResult:
    """Output of a mesh-array run."""

    #: What ``backend="auto"`` compares beside the report (:func:`.run_with_backend`).
    backend_fields: ClassVar[tuple[str, ...]] = ("value",)

    value: np.ndarray  # the product matrix
    report: RunReport
    #: (tick, pe, label) cell events when ``record_trace`` was requested;
    #: PE (i, j) is flattened to index ``i·m + j`` and labels name the
    #: inner index met that tick (``k<kk>``).
    trace: tuple[tuple[int, int, str], ...] = ()
    #: The full typed event stream from the machine's trace bus.
    events: tuple[TraceEvent, ...] = ()


class MeshMatrixMultiplier:
    """Cycle-accurate 2-D mesh semiring matrix multiplier."""

    design_name = "mesh-matmul"

    def __init__(self, semiring: Semiring = MIN_PLUS, backend: str = "rtl") -> None:
        self.sr = semiring
        self.backend = normalize_backend(backend)

    def run(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        record_trace: bool = False,
        backend: str | None = None,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        strict: bool = False,
    ) -> MeshArrayResult:
        """Multiply ``a ⊗ b`` on an ``n × m`` mesh of PEs.

        Validated cell-for-cell against the vectorized
        :func:`repro.semiring.matmul` by the tests; the report's
        ``wall_ticks`` equals :func:`mesh_cycles`.  ``backend`` selects
        RTL simulation, the vectorized fast path, or ``"auto"``
        cross-validation.  ``record_trace``, ``sinks``, ``injector`` and
        ``strict`` are cycle-level requests with the same meaning as on
        the Fig. 3 array; they follow the rule of
        :func:`~repro.systolic.fabric.run_with_backend`.
        """
        sr = self.sr
        a = sr.asarray(a)
        b = sr.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise SystolicError("mesh array multiplies 2-D matrices")
        n, k = a.shape
        k2, m = b.shape
        if k != k2:
            raise SystolicError(f"inner dimensions differ: {a.shape} x {b.shape}")
        return run_with_backend(
            normalize_backend(backend, self.backend),
            work=n * k * m,
            rtl=lambda **kw: self._run_rtl(a, b, n, k, m, **kw),
            fast=lambda: self._run_fast(a, b, n, k, m),
            design=self.design_name,
            record_trace=record_trace, sinks=sinks, injector=injector,
            strict=strict,
        )

    # ------------------------------------------------------------------
    # RTL backend
    # ------------------------------------------------------------------
    def _run_rtl(
        self,
        a: np.ndarray,
        b: np.ndarray,
        n: int,
        k: int,
        m: int,
        *,
        record_trace: bool = False,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: object = None,
        strict: bool = False,
    ) -> MeshArrayResult:
        sr = self.sr
        machine = SystolicMachine(
            self.design_name, record_trace=record_trace, sinks=sinks,
            injector=injector, strict=strict, topology=("grid", n, m),
        )
        machine.add_pes(n * m)
        pes = [[machine.pes[i * m + j] for j in range(m)] for i in range(n)]
        for row in pes:
            for pe in row:
                pe.reg("C", sr.zero)  # stationary accumulator
                pe.reg("A", None)  # eastbound operand slot
                pe.reg("B", None)  # southbound operand slot

        total = mesh_cycles(n, k, m)
        for t in range(total):
            for i in range(n):
                for j in range(m):
                    pe = pes[i][j]
                    machine.enter_pe(pe.index)
                    # The A element entering PE (i, j) this tick: from the
                    # west neighbour's latch, or the skewed feed at j = 0.
                    if j == 0:
                        kk = t - i  # diagonal skew of row i
                        a_in = float(a[i, kk]) if 0 <= kk < k else None
                        if a_in is not None:
                            machine.stats.input_words += 1
                    else:
                        a_in = pes[i][j - 1]["A"].value
                    if i == 0:
                        kk = t - j
                        b_in = float(b[kk, j]) if 0 <= kk < k else None
                        if b_in is not None:
                            machine.stats.input_words += 1
                    else:
                        b_in = pes[i - 1][j]["B"].value
                    if a_in is not None and b_in is not None:
                        pe["C"].set(
                            sr.scalar_add(pe["C"].value, sr.scalar_mul(a_in, b_in))
                        )
                        pe.count_op()
                        machine.emit("op", pe.index, f"k{t - i - j + 1}")
                    pe["A"].set(a_in)
                    pe["B"].set(b_in)
                    machine.exit_pe()
            machine.end_tick()

        out = sr.asarray(
            [[pes[i][j]["C"].value for j in range(m)] for i in range(n)]
        )
        machine.stats.output_words += out.size
        report = machine.finalize(iterations=total, serial_ops=n * k * m)
        return MeshArrayResult(
            value=out,
            report=report,
            trace=machine.legacy_trace(),
            events=machine.trace_events(),
        )

    # ------------------------------------------------------------------
    # Fast backend
    # ------------------------------------------------------------------
    def _run_fast(
        self, a: np.ndarray, b: np.ndarray, n: int, k: int, m: int
    ) -> MeshArrayResult:
        out = matmul(self.sr, a, b)
        total = mesh_cycles(n, k, m)
        report = RunReport(
            design=self.design_name,
            num_pes=n * m,
            iterations=total,
            wall_ticks=total,
            pe_busy_ticks=(k,) * (n * m),  # every PE meets k operand pairs
            pe_op_counts=(k,) * (n * m),
            serial_ops=n * k * m,
            input_words=n * k + k * m,
            output_words=n * m,
            broadcast_words=0,
            backend="fast",
        )
        return MeshArrayResult(value=out, report=report)
