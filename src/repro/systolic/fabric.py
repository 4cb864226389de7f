"""Register-transfer-level simulation fabric for systolic arrays.

The paper's systolic designs are specified as clocked hardware: processing
elements (PEs) with named registers, combinational operate units, control
signals (FIRST, ODD, MOVE, F=0), nearest-neighbour shift paths and
broadcast buses.  This module provides the simulation substrate those
designs are built on:

* :class:`Register` — a value with two-phase (compute → latch) semantics,
  so every PE in a tick observes the *previous* tick's outputs, exactly
  like edge-triggered hardware.  Forgetting the two-phase discipline is
  the classic systolic-simulator bug (PE *i+1* would see PE *i*'s
  same-tick output); the fabric makes it structurally impossible.
* :class:`ProcessingElement` — a register container with per-PE activity
  accounting (busy ticks, operation counts).
* :class:`SystolicMachine` — the shared simulation machine every array
  design runs on: it owns the clock (tick counter + the latch of staged
  registers), phase accounting with per-hop control-signal delay (the
  ODD/MOVE signals of Fig. 3 propagate one PE per tick, which is what
  skews the overlapped schedule), a deferred-delivery queue for
  feedback/control buses, the I/O-port counters, and the structured
  :class:`EventBus` that trace sinks subscribe to.
* :class:`TraceEvent` / :class:`EventBus` / :class:`TraceSink` — the
  typed trace bus.  Simulators emit ``op`` / ``shift`` / ``broadcast`` /
  ``io`` / ``phase`` events; pluggable sinks consume them (the built-in
  :class:`TraceSink` collects them for space-time rendering and JSON
  export).
* :class:`ArrayStats` / :class:`RunReport` — uniform measurement records:
  iteration counts, wall-clock ticks, per-PE utilization, and I/O-port
  traffic, which the benchmarks compare against the paper's closed forms
  (eq. 9 and friends).

Every array design — Figs. 3, 4, 5, the mesh multiplier, and the
Section-6.2 triangular/parenthesization arrays — is built on the machine
and emits :class:`RunReport`.  Each design additionally ships a
*vectorized fast backend* (whole-array NumPy semiring reductions, no
per-tick Python loop) that reproduces the RTL backend's values and
closed-form counters; :func:`run_with_backend` implements the shared
``"rtl" | "fast" | "auto"`` dispatch, where ``auto`` cross-validates the
two backends on small instances and trusts the fast one above
:data:`AUTO_VALIDATE_LIMIT`.
"""

from __future__ import annotations

# systolic: fabric-internal — this module *is* the register/latch
# implementation, so the repo-wide lint rules about touching register
# internals and bypassing end_tick do not apply here.

import dataclasses
import heapq
import operator
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "Register",
    "ProcessingElement",
    "ArrayStats",
    "RunReport",
    "SystolicError",
    "BackendMismatch",
    "TraceEvent",
    "EventBus",
    "TraceSink",
    "SystolicMachine",
    "BACKENDS",
    "AUTO_VALIDATE_LIMIT",
    "normalize_backend",
    "run_with_backend",
    "finalize_report",
]

#: Recognized execution backends (see :func:`run_with_backend`).
BACKENDS = ("rtl", "fast", "auto")

#: ``backend="auto"`` cross-validates fast against RTL whenever the
#: instance's serial-op count is at most this; larger instances run the
#: fast backend alone (the RTL run would dominate wall time, which is
#: the point of having a fast backend).
AUTO_VALIDATE_LIMIT = 4096


class SystolicError(RuntimeError):
    """Raised for schedule violations inside an array simulation."""


class BackendMismatch(SystolicError):
    """Raised when ``backend="auto"`` finds RTL and fast disagreeing."""


class Register:
    """A clocked register with compute/latch two-phase semantics.

    During a tick, PEs read ``value`` (the state latched at the previous
    clock edge) and stage updates with :meth:`set`.  At the tick boundary
    the clock calls :meth:`latch` on every register that was staged since
    the last edge; a register nobody wrote keeps its state without being
    visited.  Reading always returns pre-tick state; staged writes are
    invisible until latched.

    ``owner`` is the index of the PE the register belongs to (``None``
    for free-standing registers); ``monitor`` is an optional hazard
    monitor (:class:`repro.analysis.hazards.HazardSanitizer`) notified
    on every read/stage/force.  Both are wired by the machine when
    strict mode is on and cost a single ``is not None`` test otherwise.
    ``staged`` is the clock's staged list: the first :meth:`set` of a
    tick appends the register to it.  A free-standing register has none
    and is latched by hand.
    """

    __slots__ = ("name", "owner", "_current", "_next", "_dirty", "_monitor",
                 "_staged_scope", "_staged")

    def __init__(
        self,
        name: str,
        initial: Any = None,
        owner: int | None = None,
        monitor: Any = None,
        staged: list[Register] | None = None,
    ) -> None:
        self.name = name
        self.owner = owner
        self._current: Any = initial
        self._next: Any = None
        self._dirty = False
        self._monitor = monitor
        self._staged_scope: Any = None
        self._staged = staged

    @property
    def value(self) -> Any:
        """State as of the last clock edge."""
        if self._monitor is not None:
            self._monitor.on_read(self)
        return self._current

    @property
    def pending(self) -> bool:
        """True when a write is staged for the next clock edge."""
        return self._dirty

    def cancel(self) -> Any:
        """Discard the staged write, if any; returns the cancelled value.

        Exists for the fault layer (:mod:`repro.faults`): a dropped shift
        delivery or a dead link is exactly "the staged write never
        arrives".  Normal array code never cancels.  The register stays
        on the clock's staged list; its :meth:`latch` is then a no-op.
        """
        if self._monitor is not None:
            self._monitor.on_cancel(self)
        staged = self._next
        self._next = None
        self._dirty = False
        self._staged_scope = None
        return staged

    def force(self, value: Any) -> None:
        """Overwrite the *latched* state directly, bypassing the clock.

        Exists for the fault layer: a register upset corrupts state
        between clock edges, which no two-phase ``set``/``latch``
        sequence can express.  Normal array code never forces; under a
        strict-mode monitor a force outside the fault injector's latch
        hooks is a ``forced-write`` hazard.
        """
        if self._monitor is not None:
            self._monitor.on_force(self)
        self._current = value

    def set(self, value: Any) -> None:
        """Stage a write for the next clock edge.

        Two staged writes to one register in one tick indicate a wiring
        bug (two drivers on one net) and raise :class:`SystolicError`.
        Under a strict-mode monitor the double drive is recorded as a
        ``write-write`` hazard instead and the run continues with the
        last write, so one run surfaces every hazard at once.
        """
        mon = self._monitor
        if self._dirty:
            if mon is None:
                raise SystolicError(f"register {self.name!r} driven twice in one tick")
            mon.on_set(self, double=True)
        else:
            if mon is not None:
                mon.on_set(self, double=False)
            self._dirty = True
            if self._staged is not None:
                self._staged.append(self)  # first write this tick: the clock latches it
        self._next = value

    def latch(self) -> None:
        """Clock edge: staged value (if any) becomes visible."""
        if self._dirty:
            self._current = self._next
            self._next = None
            self._dirty = False
            self._staged_scope = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Register({self.name}={self._current!r})"


class ProcessingElement:
    """A PE: a bundle of named registers plus activity accounting.

    Subclasses (or owning arrays) create registers with :meth:`reg` and
    record work with :meth:`count_op`.  ``busy_ticks`` increments at most
    once per tick regardless of how many elementary operations the PE
    performed in it, matching the paper's definition of an *iteration* as
    one shift-multiply-accumulate slot.

    A PE built by :meth:`SystolicMachine.add_pes` shares the machine's
    clock: its registers join the machine's staged list and its first op
    of a tick joins the machine's busy list, and only the machine's
    :meth:`~SystolicMachine.end_tick` clocks it.  A free-standing PE is
    its own clock domain, edged by :meth:`end_tick`.
    """

    def __init__(
        self, index: int, monitor: Any = None, *, machine: SystolicMachine | None = None
    ) -> None:
        self.index = index
        self.registers: dict[str, Register] = {}
        self.busy_ticks = 0
        self.op_count = 0
        self._busy_this_tick = False
        self._monitor = monitor
        # The machine's lists, not the machine: a back-reference would
        # make every machine a reference cycle, freed only by the GC.
        self._clocked_by = None if machine is None else machine.design
        self._staged: list[Register] = [] if machine is None else machine._staged
        self._busy: list[ProcessingElement] = [] if machine is None else machine._busy

    def reg(self, name: str, initial: Any = None) -> Register:
        """Create (or return) the named register."""
        if name not in self.registers:
            self.registers[name] = Register(
                f"P{self.index}.{name}", initial, owner=self.index,
                monitor=self._monitor, staged=self._staged,
            )
        return self.registers[name]

    def __getitem__(self, name: str) -> Register:
        return self.registers[name]

    def count_op(self, n: int = 1) -> None:
        """Record ``n`` elementary operations in the current tick."""
        self.op_count += n
        if not self._busy_this_tick:
            self._busy_this_tick = True
            self._busy.append(self)

    def end_tick(self) -> None:
        """Clock edge of a free-standing PE: latch what was staged, fold
        the busy flag into the tick count.

        A machine-owned PE raises :class:`SystolicError`: latching one PE
        alone would desynchronize the array clock.
        """
        if self._clocked_by is not None:
            raise SystolicError(
                f"PE {self.index} is clocked by machine {self._clocked_by!r}; "
                "call machine.end_tick()"
            )
        _clock_edge(self._staged, self._busy)


def _clock_edge(staged: list[Register], busy: list[ProcessingElement]) -> None:
    """Latch every staged register and charge every busy PE one tick.

    Cancelled registers stay listed and latch as no-ops.  Both lists are
    emptied, so a write staged after the edge lands on the next one.
    """
    for r in staged:
        r.latch()
    staged.clear()
    for pe in busy:
        pe.busy_ticks += 1
        pe._busy_this_tick = False
    busy.clear()


# ----------------------------------------------------------------------
# Typed trace bus
# ----------------------------------------------------------------------

#: Event kinds carried on the bus.  ``op`` is a shift-multiply-accumulate
#: slot, ``shift`` a pure data movement, ``broadcast`` a bus placement,
#: ``io`` a port transfer, ``phase`` a control-phase change.  The last
#: three belong to the fault layer (:mod:`repro.faults`): ``fault`` marks
#: an injected hardware fault taking effect, ``detect`` a detector
#: flagging a suspect run, ``recover`` a recovery action.  ``hazard``
#: belongs to the analysis layer (:mod:`repro.analysis`): a strict-mode
#: sanitizer caught a systolic-discipline violation.
TRACE_KINDS = (
    "op", "shift", "broadcast", "io", "phase", "fault", "detect", "recover",
    "hazard",
)

#: Kinds that occupy a PE for a tick, i.e. that belong in a space-time
#: diagram cell.  ``io`` and ``phase`` are array-level bookkeeping.
CELL_KINDS = frozenset({"op", "shift", "broadcast"})


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One typed event on a machine's trace bus.

    ``tick`` is 1-based (the paper's iteration numbering).  ``pe`` is the
    PE index, or ``-1`` for array-level events (``io`` / ``phase``).
    ``phase`` is the control phase the event occurred in (0 when the
    design has no phase structure).
    """

    tick: int
    pe: int
    kind: str
    label: str
    phase: int = 0

    def as_cell(self) -> tuple[int, int, str]:
        """Legacy ``(tick, pe, label)`` form used by space-time grids."""
        return (self.tick, self.pe, self.label)


class EventBus:
    """Pluggable sink fan-out for :class:`TraceEvent` streams.

    Emission is a no-op while no sink is subscribed, so instrumented
    simulators pay nothing when tracing is off (guard hot paths with
    :attr:`active` to skip even event construction).

    A sink that raises does not kill the simulation: per-sink exceptions
    are swallowed, counted in :attr:`sink_errors`, and a bounded sample
    of them is kept in :attr:`sink_error_samples` for the run report.
    """

    __slots__ = ("_sinks", "sink_errors", "sink_error_samples")

    #: At most this many ``(sink repr, exception repr)`` samples are kept.
    MAX_ERROR_SAMPLES = 8

    def __init__(self) -> None:
        self._sinks: list[Callable[[TraceEvent], None]] = []
        self.sink_errors = 0
        self.sink_error_samples: list[tuple[str, str]] = []

    @property
    def active(self) -> bool:
        """True when at least one sink is subscribed."""
        return bool(self._sinks)

    def subscribe(self, sink: Callable[[TraceEvent], None]) -> Callable[[], None]:
        """Attach ``sink``; returns a zero-argument unsubscribe callable."""
        self._sinks.append(sink)

        def unsubscribe() -> None:
            if sink in self._sinks:
                self._sinks.remove(sink)

        return unsubscribe

    def emit(self, event: TraceEvent) -> None:
        """Deliver ``event`` to every sink subscribed at call time.

        Delivery iterates over a snapshot of the sink list, so a sink
        that unsubscribes itself (or subscribes a new sink) *during*
        ``emit`` cannot mutate the list mid-iteration; a sink added
        while an event is being delivered first sees the next event.

        A sink that raises is isolated: the exception is counted (see
        :attr:`sink_errors`) and delivery continues with the remaining
        sinks, so one misbehaving telemetry consumer cannot abort the
        simulation.  The count surfaces in
        :attr:`RunReport.sink_errors`.
        """
        for sink in tuple(self._sinks):
            try:
                sink(event)
            except Exception as exc:  # noqa: BLE001 - sink isolation
                self.sink_errors += 1
                if len(self.sink_error_samples) < self.MAX_ERROR_SAMPLES:
                    self.sink_error_samples.append((repr(sink), repr(exc)))


class TraceSink:
    """The built-in collecting sink: stores every event, in emit order."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def __call__(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """Every collected event, including ``io`` and ``phase``."""
        return tuple(self._events)

    def cell_events(self) -> tuple[TraceEvent, ...]:
        """Only the PE-occupying events (``op``/``shift``/``broadcast``)."""
        return tuple(e for e in self._events if e.kind in CELL_KINDS and e.pe >= 0)

    def legacy(self) -> tuple[tuple[int, int, str], ...]:
        """Cell events as ``(tick, pe, label)`` tuples (pre-bus format)."""
        return tuple(e.as_cell() for e in self.cell_events())


# ----------------------------------------------------------------------
# Measurement records
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ArrayStats:
    """Mutable counters an array accumulates while running."""

    wall_ticks: int = 0
    input_words: int = 0  # words entering the array through I/O ports
    output_words: int = 0  # words leaving through I/O ports
    broadcast_words: int = 0  # words placed on a broadcast bus

    def record_tick(self) -> None:
        self.wall_ticks += 1


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Measurement record of one array execution.

    Attributes
    ----------
    design:
        Name of the array design (``"fig3-pipelined"`` …).
    backend:
        Execution backend that produced the record: ``"rtl"`` for the
        cycle-accurate machine, ``"fast"`` for the vectorized backend
        (whose counters are closed forms of the same schedule).
    num_pes:
        PEs instantiated.
    iterations:
        Schedule length in the paper's *iteration* unit (per-PE
        shift-multiply-accumulate slots); the quantity the paper's
        formulas (``N·m``, ``(N+1)·m`` …) predict.
    wall_ticks:
        Global clock ticks actually simulated, including pipeline
        fill/drain skew.
    pe_busy_ticks:
        Per-PE busy-tick counts.
    pe_op_counts:
        Per-PE elementary-operation counts.
    serial_ops:
        Elementary operations a single PE would need for the same job
        (the numerator of PU).
    input_words / output_words / broadcast_words:
        I/O-port traffic, for the input-bandwidth comparison of
        Section 3.2.
    sink_errors:
        Exceptions raised by subscribed trace sinks during the run
        (isolated per sink, never aborting the simulation; see
        :meth:`EventBus.emit`).  0 for healthy telemetry.
    hazards:
        Systolic-discipline violations the strict-mode hazard sanitizer
        recorded during the run (see :mod:`repro.analysis.hazards`).
        Always 0 without ``strict=True``; a strict run that completes
        with ``hazards > 0`` only exists in the sanitizer's ``"record"``
        mode (the default ``"raise"`` mode aborts at finalize).
    """

    design: str
    num_pes: int
    iterations: int
    wall_ticks: int
    pe_busy_ticks: tuple[int, ...]
    pe_op_counts: tuple[int, ...]
    serial_ops: int
    input_words: int
    output_words: int
    broadcast_words: int
    backend: str = "rtl"
    sink_errors: int = 0
    hazards: int = 0

    @property
    def total_ops(self) -> int:
        return int(sum(self.pe_op_counts))

    @property
    def is_empty(self) -> bool:
        """Explicit empty-run marker: no schedule or no PEs.

        Utilization ratios are undefined for such runs; rather than
        propagating NaN into JSON exports and benchmark aggregation,
        :attr:`processor_utilization` and :attr:`busy_fraction` return
        0.0 and this flag records *why*.
        """
        return self.iterations == 0 or self.num_pes == 0 or self.wall_ticks == 0

    @property
    def processor_utilization(self) -> float:
        """Measured PU: serial work over (parallel iterations × PEs).

        This is the paper's PU definition ("ratio of the number of serial
        iterations to the product of the number of parallel iterations
        and the number of processors"), using measured quantities.
        Returns 0.0 for empty runs (see :attr:`is_empty`).
        """
        denom = self.iterations * self.num_pes
        return self.serial_ops / denom if denom else 0.0

    @property
    def busy_fraction(self) -> float:
        """Mean fraction of wall ticks each PE spent busy.

        Returns 0.0 for empty runs (see :attr:`is_empty`).
        """
        denom = self.wall_ticks * self.num_pes
        return sum(self.pe_busy_ticks) / denom if denom else 0.0


def finalize_report(
    design: str,
    pes: Iterable[ProcessingElement],
    stats: ArrayStats,
    *,
    iterations: int,
    serial_ops: int,
    backend: str = "rtl",
    sink_errors: int = 0,
    hazards: int = 0,
) -> RunReport:
    """Assemble the immutable :class:`RunReport` from live simulation state."""
    pes = list(pes)
    return RunReport(
        design=design,
        num_pes=len(pes),
        iterations=iterations,
        wall_ticks=stats.wall_ticks,
        pe_busy_ticks=tuple(p.busy_ticks for p in pes),
        pe_op_counts=tuple(p.op_count for p in pes),
        serial_ops=serial_ops,
        input_words=stats.input_words,
        output_words=stats.output_words,
        broadcast_words=stats.broadcast_words,
        backend=backend,
        sink_errors=sink_errors,
        hazards=hazards,
    )


# ----------------------------------------------------------------------
# The shared simulation machine
# ----------------------------------------------------------------------


class SystolicMachine:
    """The clocked simulation machine all array designs run on.

    The machine owns what used to be duplicated per design:

    * the **clock** — a 1-based tick counter, the edge that latches the
      registers staged since the last one (:meth:`end_tick`), and the
      distinction between a *counted* tick and a latch-only control
      action such as Fig. 3's MOVE (``end_tick(advance=False)``);
    * **phase accounting with per-hop control delay** — control signals
      (ODD, MOVE, FIRST) enter at P₁ and propagate ``hop_delay`` ticks
      per PE, so phase ``p`` reaches PE ``i`` at
      ``phase_start + i·hop_delay``; :meth:`overlapped_tick` turns a
      (PE, local step) pair into the overlapped-schedule tick that
      space-time diagrams use;
    * a **deferred-delivery queue** (:meth:`after` / :meth:`start_tick`)
      for feedback buses and other signals that arrive a fixed number of
      ticks after being driven (the Fig. 5 feedback controller);
    * the **I/O counters** (:meth:`read_input` / :meth:`write_output` /
      :meth:`put_on_bus`), which also publish ``io``/``broadcast``
      events; and
    * the **event bus** — every emission goes through :meth:`emit`,
      which is free when no sink is subscribed.

    A design builds its PEs with :meth:`add_pes`, drives its schedule by
    staging register writes and calling :meth:`end_tick`, and closes
    with :meth:`finalize` to obtain the uniform :class:`RunReport`.
    """

    def __init__(
        self,
        design: str,
        *,
        record_trace: bool = False,
        hop_delay: int = 1,
        sinks: Iterable[Callable[[TraceEvent], None]] = (),
        injector: Any = None,
        strict: bool = False,
        sanitizer: Any = None,
        topology: Any = "line",
    ) -> None:
        if hop_delay < 0:
            raise SystolicError("hop_delay must be nonnegative")
        self.design = design
        self.hop_delay = hop_delay
        #: Interconnect the design claims: ``"line"`` (nearest-neighbour
        #: chain, the default), ``("grid", rows, cols)`` (4-neighbour mesh
        #: over row-major flattened indices), or ``"complete"`` (every PE
        #: reaches every PE — broadcast-bus designs).  Only consulted by
        #: the strict-mode sanitizer's ``non-neighbor-link`` rule.
        self.topology = topology
        #: Hazard sanitizer (:class:`repro.analysis.hazards.HazardSanitizer`)
        #: or ``None``.  ``strict=True`` constructs the default sanitizer;
        #: passing ``sanitizer=`` explicitly implies strict mode.  The
        #: import is deferred: the analysis package consumes this module.
        if sanitizer is None and strict:
            from ..analysis.hazards import HazardSanitizer  # deferred

            sanitizer = HazardSanitizer()
        self.sanitizer = sanitizer
        if sanitizer is not None:
            sanitizer.attach(self)
        #: Optional fault injector (:class:`repro.faults.FaultInjector`):
        #: any object with ``before_latch(machine)`` / ``after_latch(machine)``
        #: hooks, called around every clock edge.  ``None`` (the default)
        #: keeps the tick loop byte-for-byte on the healthy path.
        self.injector = injector
        self.pes: list[ProcessingElement] = []
        # The clock's work lists: registers staged since the last edge
        # and PEs that counted an op this tick (see _clock_edge).
        self._staged: list[Register] = []
        self._busy: list[ProcessingElement] = []
        self.stats = ArrayStats()
        self.bus = EventBus()
        self.trace: TraceSink | None = None
        if record_trace:
            self.trace = TraceSink()
            self.bus.subscribe(self.trace)
        for sink in sinks:  # external telemetry sinks (metrics, timelines, …)
            self.bus.subscribe(sink)
        self.tick = 1  # the tick currently being simulated (1-based)
        self.phase = -1  # index of the current control phase
        self.phase_start = 0  # overlapped-tick origin of the current phase
        self._pending: list[tuple[int, int, Callable[[], None]]] = []
        self._pending_seq = 0

    # -- construction ---------------------------------------------------
    def add_pes(self, n: int) -> list[ProcessingElement]:
        """Append ``n`` fresh PEs; returns the full PE list."""
        base = len(self.pes)
        self.pes.extend(
            ProcessingElement(base + i, monitor=self.sanitizer, machine=self)
            for i in range(n)
        )
        return self.pes

    # -- strict-mode acting scope ---------------------------------------
    def enter_pe(self, index: int) -> None:
        """Declare that subsequent register traffic acts *as* PE ``index``.

        The strict-mode sanitizer attributes reads and writes to the
        acting PE to enforce the ownership rules (``cross-pe-write``,
        ``non-neighbor-link``, same-scope ``read-after-staged-write``).
        Plain methods, not a context manager: the scope switch sits on
        the per-PE hot path and must stay two attribute stores when
        strict mode is off.
        """
        san = self.sanitizer
        if san is not None:
            san.scope = index

    def exit_pe(self) -> None:
        """Return to array-scope (controller) register traffic."""
        san = self.sanitizer
        if san is not None:
            san.scope = None

    def neighbors(self, a: int, b: int) -> bool:
        """True when PEs ``a`` and ``b`` are linked under :attr:`topology`.

        A PE is always its own neighbour.  Unknown topology values fail
        loudly rather than silently allowing everything.
        """
        if a == b:
            return True
        topo = self.topology
        if topo == "line":
            return abs(a - b) == 1
        if topo == "complete":
            return True
        if isinstance(topo, tuple) and len(topo) == 3 and topo[0] == "grid":
            _kind, _rows, cols = topo
            ra, ca = divmod(a, cols)
            rb, cb = divmod(b, cols)
            return abs(ra - rb) + abs(ca - cb) == 1
        raise SystolicError(f"unknown topology {topo!r}")

    # -- event emission -------------------------------------------------
    @property
    def tracing(self) -> bool:
        """True when at least one sink listens (guard for hot paths)."""
        return self.bus.active

    @property
    def observed(self) -> bool:
        """True when a sink or the strict-mode sanitizer consumes events.

        Tick loops check it once per tick: when it is false, :meth:`emit`
        has no effect, so they skip building labels and ticks entirely.
        """
        return self.sanitizer is not None or self.bus.active

    def emit(
        self, kind: str, pe: int, label: str, *, tick: int | None = None
    ) -> None:
        """Publish one typed event (no-op without subscribed sinks).

        An unknown ``kind`` raises :class:`SystolicError` whether or not
        anyone listens.
        """
        if kind not in TRACE_KINDS:
            raise SystolicError(f"unknown trace-event kind {kind!r}")
        if self.sanitizer is not None and kind in CELL_KINDS and pe >= 0:
            self.sanitizer.on_emit(pe)
        if self.bus.active:
            self.bus.emit(
                TraceEvent(
                    tick=self.tick if tick is None else tick,
                    pe=pe,
                    kind=kind,
                    label=label,
                    phase=max(self.phase, 0),
                )
            )

    # -- phase / control-signal accounting ------------------------------
    def begin_phase(self, label: str | None = None, *, start: int | None = None) -> int:
        """Enter the next control phase.

        ``start`` pins the overlapped-tick origin of the phase (Fig. 3's
        phases start every ``m`` ticks); by default the phase starts at
        the current tick.  Emits a ``phase`` event and returns the new
        phase index.
        """
        self.phase += 1
        self.phase_start = (self.tick - 1) if start is None else start
        self.emit(
            "phase", -1, label if label is not None else f"phase{self.phase}",
            tick=self.phase_start + 1,
        )
        return self.phase

    def overlapped_tick(self, pe: int, step: int) -> int:
        """Overlapped-schedule tick of local ``step`` at PE ``pe``.

        The control signal that opens the current phase reaches PE ``i``
        after ``i·hop_delay`` ticks, so PE ``i`` executes its local step
        ``s`` at ``phase_start + i·hop_delay + s`` (1-based).
        """
        return self.phase_start + pe * self.hop_delay + step + 1

    # -- deferred delivery (feedback/control buses) ----------------------
    def after(self, delay: int, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run at the start of tick ``tick+delay``.

        ``delay`` counts from the current tick counter; ``delay=0`` runs
        at the next :meth:`start_tick` (used when the driving edge has
        already been latched, e.g. a feedback bus loaded from post-latch
        state that must arrive one iteration after the drive).
        """
        if delay < 0:
            raise SystolicError("deferred actions cannot run in the past")
        self._pending_seq += 1
        heapq.heappush(self._pending, (self.tick + delay, self._pending_seq, action))

    def start_tick(self) -> None:
        """Run deferred actions due at the current tick (call at tick top)."""
        while self._pending and self._pending[0][0] <= self.tick:
            _due, _seq, action = heapq.heappop(self._pending)
            action()

    # -- the clock -------------------------------------------------------
    def end_tick(self, *, advance: bool = True) -> None:
        """Clock edge: latch what was staged; count the tick unless
        ``advance=False``.

        Only the registers written since the last edge are latched and
        only the PEs that counted an op this tick are charged a busy
        tick; every other register already holds its next state.
        ``advance=False`` models control actions that latch registers
        without consuming an iteration slot (Fig. 3's MOVE).

        When a fault :attr:`injector` is attached it is invoked around
        the latch: ``before_latch`` may cancel staged writes (dropped
        deliveries, dead PEs/links), ``after_latch`` may corrupt latched
        state (transient flips, stuck-at registers).
        """
        injector = self.injector
        san = self.sanitizer
        if san is not None:
            san.on_end_tick(self, advance=advance)
        if injector is not None:
            if san is not None:
                san.enter_injector()
            injector.before_latch(self)
            if san is not None:
                san.exit_injector()
        _clock_edge(self._staged, self._busy)
        if injector is not None:
            if san is not None:
                san.enter_injector()
            injector.after_latch(self)
            if san is not None:
                san.exit_injector()
        if advance:
            self.stats.record_tick()
            self.tick += 1

    def latch(self) -> None:
        """Latch-only edge (``end_tick(advance=False)``)."""
        self.end_tick(advance=False)

    # -- I/O accounting --------------------------------------------------
    def read_input(
        self, words: int = 1, *, pe: int = -1, label: str | None = None,
        tick: int | None = None,
    ) -> None:
        """Count ``words`` entering through I/O ports (emits an ``io`` event)."""
        self.stats.input_words += words
        if self.bus.active:
            self.emit("io", pe, label if label is not None else f"in:{words}", tick=tick)

    def write_output(
        self, words: int = 1, *, pe: int = -1, label: str | None = None,
        tick: int | None = None,
    ) -> None:
        """Count ``words`` leaving through I/O ports (emits an ``io`` event)."""
        self.stats.output_words += words
        if self.bus.active:
            self.emit("io", pe, label if label is not None else f"out:{words}", tick=tick)

    def put_on_bus(
        self, words: int = 1, *, label: str | None = None, tick: int | None = None
    ) -> None:
        """Count ``words`` placed on a broadcast bus (array-level event).

        Emits a ``broadcast`` event with ``pe = -1``: the bus belongs to
        the array, not a PE, so the event never occupies a space-time
        cell (see :data:`CELL_KINDS` filtering on the PE index).
        """
        self.stats.broadcast_words += words
        if self.bus.active:
            self.emit(
                "broadcast", -1,
                label if label is not None else f"bus:{words}", tick=tick,
            )

    # -- teardown --------------------------------------------------------
    def trace_events(self) -> tuple[TraceEvent, ...]:
        """All events the built-in sink collected (empty without tracing)."""
        return self.trace.events if self.trace is not None else ()

    def legacy_trace(self) -> tuple[tuple[int, int, str], ...]:
        """Cell events in the legacy ``(tick, pe, label)`` form."""
        return self.trace.legacy() if self.trace is not None else ()

    def finalize(self, *, iterations: int, serial_ops: int) -> RunReport:
        """Assemble the uniform :class:`RunReport` for this run.

        With a strict-mode sanitizer attached this is also the hazard
        checkpoint: every hazard collected over the whole run is counted
        into :attr:`RunReport.hazards`, and in the sanitizer's default
        ``"raise"`` mode a non-empty report aborts here with
        :class:`repro.analysis.hazards.HazardError` — *after* the run,
        so a single strict run surfaces all hazards at once.
        """
        san = self.sanitizer
        report = finalize_report(
            self.design,
            self.pes,
            self.stats,
            iterations=iterations,
            serial_ops=serial_ops,
            backend="rtl",
            sink_errors=self.bus.sink_errors,
            hazards=0 if san is None else len(san.report),
        )
        if san is not None:
            san.finish(self)
        return report


# ----------------------------------------------------------------------
# Backend dispatch
# ----------------------------------------------------------------------


def normalize_backend(backend: str | None, default: str = "rtl") -> str:
    """Validate a backend name; ``None`` resolves to ``default``."""
    resolved = default if backend is None else backend
    if resolved not in BACKENDS:
        raise SystolicError(
            f"unknown backend {resolved!r}; expected one of {BACKENDS}"
        )
    return resolved


def run_with_backend(
    backend: str,
    *,
    work: int,
    rtl: Callable[..., Any],
    fast: Callable[[], Any],
    design: str = "array",
    **cycle: Any,
) -> Any:
    """Shared ``rtl | fast | auto`` dispatch used by every array design.

    ``cycle`` holds the cycle-level keywords a design's ``run`` takes
    (``record_trace``, ``sinks``, ``injector``, ``observe``, ``strict``);
    they reach ``rtl`` as keywords, with ``sinks`` made a tuple and
    ``observe=None`` meaning "observe exactly when an injector is
    attached".  A trace, a sink, an injector or strict mode is a
    cycle-level request and forces rtl whatever ``backend`` says: the
    fast path never ticks a machine.

    ``work`` is the instance's serial-op count.  ``auto`` always returns
    the fast result; up to :data:`AUTO_VALIDATE_LIMIT` it also runs rtl
    and raises :class:`BackendMismatch` unless the two agree on the whole
    :class:`RunReport` (``backend`` aside) and on every field the result
    class lists in ``backend_fields``.  Each comparison is exact, except
    that floats agree under ``np.allclose(..., equal_nan=True)`` with
    equal shapes.

    Each backend invocation runs under a ``<design>.backend.<name>``
    timing span (:mod:`repro.telemetry.timing`), so rtl and fast
    executions yield comparable wall-clock telemetry even though the
    fast path never ticks a machine.  The import is deferred — the
    telemetry package consumes this module — and the span is a shared
    no-op unless a :func:`~repro.telemetry.timing.collect_timings`
    collector is installed.
    """
    from ..telemetry.timing import span  # deferred: telemetry imports fabric

    sinks = cycle.get("sinks")
    if sinks is not None:
        cycle["sinks"] = sinks = tuple(sinks)
    injector = cycle.get("injector")
    if cycle.get("record_trace") or sinks or injector is not None or cycle.get("strict"):
        backend = "rtl"
    if cycle.get("observe", False) is None:
        cycle["observe"] = injector is not None

    if backend == "rtl":
        with span(f"{design}.backend.rtl"):
            return rtl(**cycle)
    if backend == "fast":
        with span(f"{design}.backend.fast"):
            return fast()
    with span(f"{design}.backend.fast"):
        fast_result = fast()
    if work <= AUTO_VALIDATE_LIMIT:
        with span(f"{design}.backend.rtl"):
            rtl_result = rtl(**cycle)
        _check_agreement(design, rtl_result, fast_result)
    return fast_result


def _check_agreement(design: str, rtl: Any, fast: Any) -> None:
    """The ``auto`` check of :func:`run_with_backend`."""
    if dataclasses.replace(rtl.report, backend=fast.report.backend) != fast.report:
        raise BackendMismatch(
            f"{design}: rtl/fast reports disagree (rtl {rtl.report!r}, "
            f"fast {fast.report!r})"
        )
    for name in type(fast).backend_fields:
        get = operator.attrgetter(name)
        if not _agree(get(rtl), get(fast)):
            raise BackendMismatch(
                f"{design}: rtl/fast disagree on {name} "
                f"(rtl {get(rtl)!r}, fast {get(fast)!r})"
            )


def _agree(a: Any, b: Any) -> bool:
    """Exact equality, except floats: ``np.allclose`` with NaN equal to
    NaN and equal shapes.  Tuples compare item by item."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_agree, a, b))
    if isinstance(a, (float, np.ndarray)):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype.kind == "f":
            return a.shape == b.shape and bool(np.allclose(a, b, equal_nan=True))
        return bool(np.array_equal(a, b))
    return bool(a == b)
