"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

A :class:`FaultInjector` is handed to the machine
(``SystolicMachine(..., injector=...)`` — every array design forwards an
``injector=`` keyword) and is invoked around each clock edge:

* ``before_latch`` runs while writes are still *staged*: the delivery
  faults (``drop_delivery``, ``dead_link``, ``dead_pe``) cancel them
  there, so the lost word simply never arrives — exactly the hardware
  failure they model.
* ``after_latch`` runs on freshly latched state: the corruption faults
  (``transient_flip``, ``stuck_at``, ``duplicate_delivery``) overwrite
  register contents there, after the clock edge, which no legal
  ``set``/``latch`` sequence can express.

Every fault that actually takes effect is recorded as an
:class:`InjectedFault` and published as a ``fault`` event on the
machine's trace bus (so :class:`~repro.telemetry.metrics.MetricsSink`
and :class:`~repro.telemetry.timeline.TimelineSink` count faults for
free).  Specs that never match a register — wrong design vocabulary,
PE index past the array, or a window the schedule never reaches — are
reported by :meth:`FaultInjector.inert_specs` instead of failing
silently.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

import numpy as np

from .plan import FaultPlan, FaultSpec

__all__ = ["InjectedFault", "FaultInjector"]

#: Sentinel: the targeted value cannot be meaningfully perturbed.
_SKIP = object()


def _perturb(value: Any, delta: float) -> Any:
    """Corrupted version of ``value`` under a transient flip of ``delta``.

    Finite numbers shift by ``delta``; an infinite cost (the semiring
    zero of min-plus/max-plus) is corrupted *to* ``delta`` — a phantom
    finite entry, the nastier upset because it fabricates a path that
    does not exist.  The Fig. 5 moving pair (a named tuple) is corrupted
    in its partial cost ``h``.  Values with no numeric payload return
    :data:`_SKIP`.
    """
    if value is None or isinstance(value, bool):
        return _SKIP
    if isinstance(value, (int, float, np.integer, np.floating)):
        v = float(value)
        if math.isinf(v):
            return delta
        return type(value)(value + delta) if isinstance(value, (int, np.integer)) else v + delta
    if isinstance(value, tuple) and hasattr(value, "_replace") and hasattr(value, "h"):
        flipped = _perturb(value.h, delta)
        if flipped is _SKIP:
            return _SKIP
        return value._replace(h=flipped)
    if isinstance(value, np.ndarray) and value.size and np.issubdtype(value.dtype, np.number):
        out = value.copy()
        flat = out.reshape(-1)
        flipped = _perturb(flat[0].item(), delta)
        if flipped is _SKIP:
            return _SKIP
        flat[0] = flipped
        return out
    return _SKIP


def _differs(a: Any, b: Any) -> bool:
    """Inequality that tolerates arrays and mixed payload types."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        try:
            return not np.array_equal(np.asarray(a), np.asarray(b))
        except (TypeError, ValueError):
            return True
    try:
        return bool(a != b)
    except (TypeError, ValueError):  # pragma: no cover - exotic payloads
        return True


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """One fault that actually took effect, for the run's fault report.

    ``before``/``after`` are ``repr`` strings of the register state
    around the mutation (JSON-safe by construction).
    """

    spec_index: int
    mode: str
    pe: int
    reg: str | None
    tick: int
    before: str
    after: str

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class FaultInjector:
    """Executes a fault plan against a running machine.

    One injector serves one run: it tracks which one-shot faults have
    fired.  Build a fresh injector per attempt (retries face
    ``plan.drop_transients()``).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injections: list[InjectedFault] = []
        self._fired: set[int] = set()  # one-shot specs already executed
        self._matched: set[int] = set()  # specs that touched a register
        self._stuck_announced: set[int] = set()  # stuck_at: record once
        self._dup_captured: dict[int, Any] = {}  # duplicate_delivery payloads

    # -- bookkeeping -----------------------------------------------------
    def _record(
        self, machine: Any, idx: int, spec: FaultSpec, *, before: Any, after: Any,
        reg: str | None = None,
    ) -> None:
        name = spec.reg if reg is None else reg
        self._matched.add(idx)
        self.injections.append(
            InjectedFault(
                spec_index=idx,
                mode=spec.mode,
                pe=spec.pe,
                reg=name,
                tick=machine.tick,
                before=repr(before),
                after=repr(after),
            )
        )
        machine.emit("fault", spec.pe, f"{spec.mode}:{name if name else '*'}")

    def _registers(self, machine: Any, spec: FaultSpec) -> list[tuple[str, Any]]:
        """The ``(name, Register)`` targets of ``spec`` on this machine."""
        if spec.pe >= len(machine.pes):
            return []
        pe = machine.pes[spec.pe]
        if spec.mode == "dead_pe":
            return list(pe.registers.items())
        reg = pe.registers.get(spec.reg)
        return [(spec.reg, reg)] if reg is not None else []

    def inert_specs(self) -> tuple[int, ...]:
        """Indices of plan specs that never took effect on this run."""
        return tuple(
            i for i in range(len(self.plan.specs)) if i not in self._matched
        )

    # -- machine hooks ---------------------------------------------------
    def before_latch(self, machine: Any) -> None:
        """Delivery faults: cancel staged writes that must never arrive."""
        tick = machine.tick
        for idx, spec in enumerate(self.plan.specs):
            if spec.mode not in ("drop_delivery", "dead_pe", "dead_link"):
                continue
            if not spec.armed_at(tick):
                continue
            for name, reg in self._registers(machine, spec):
                if reg.pending:
                    dropped = reg.cancel()
                    self._record(
                        machine, idx, spec, before=dropped, after=reg.value, reg=name
                    )

    def after_latch(self, machine: Any) -> None:
        """Corruption faults: overwrite freshly latched register state."""
        tick = machine.tick
        for idx, spec in enumerate(self.plan.specs):
            if spec.mode == "transient_flip":
                # Armed from spec.tick on; fires at the first edge where
                # the register holds a perturbable value, then never again.
                if idx in self._fired or tick < spec.tick:
                    continue
                for _name, reg in self._registers(machine, spec):
                    flipped = _perturb(reg.value, spec.delta)
                    if flipped is _SKIP:
                        continue
                    before = reg.value
                    reg.force(flipped)
                    self._fired.add(idx)
                    self._record(machine, idx, spec, before=before, after=flipped)
            elif spec.mode == "stuck_at":
                if not spec.armed_at(tick):
                    continue
                for _name, reg in self._registers(machine, spec):
                    before = reg.value
                    reg.force(spec.value)
                    if idx not in self._stuck_announced and _differs(before, spec.value):
                        self._stuck_announced.add(idx)
                        self._record(machine, idx, spec, before=before, after=spec.value)
            elif spec.mode == "duplicate_delivery":
                if idx in self._fired:
                    continue
                regs = self._registers(machine, spec)
                if not regs:
                    continue
                _name, reg = regs[0]
                if tick == spec.tick:
                    # Capture the word latched at the armed edge …
                    self._dup_captured[idx] = reg.value
                elif tick > spec.tick and idx in self._dup_captured:
                    # … and replay it over the next edge's fresh delivery.
                    stale = self._dup_captured.pop(idx)
                    self._fired.add(idx)
                    before = reg.value
                    if _differs(before, stale):
                        reg.force(stale)
                        self._record(machine, idx, spec, before=before, after=stale)
