"""Unit tests for the shared SystolicMachine, its event bus, and the
backend dispatch helpers — the layer every array design now runs on."""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import numpy as np
import pytest

from repro.dp import random_obst_weights
from repro.graphs import NodeValueProblem, random_multistage
from repro.systolic import (
    AUTO_VALIDATE_LIMIT,
    BackendMismatch,
    BroadcastMatrixStringArray,
    EventBus,
    FeedbackSystolicArray,
    MeshMatrixMultiplier,
    ObstSpec,
    PipelinedMatrixStringArray,
    RunReport,
    SystolicError,
    SystolicMachine,
    SystolicParenthesizer,
    TraceEvent,
    TraceSink,
    TriangularArray,
    feedback_array,
    mesh_array,
    normalize_backend,
    parenthesization,
    pipelined_array,
    run_with_backend,
    triangular,
)


class TestMachineTicks:
    def test_tick_starts_at_one_and_advances(self):
        m = SystolicMachine("t")
        assert m.tick == 1
        m.end_tick()
        assert m.tick == 2
        assert m.stats.wall_ticks == 1

    def test_latch_does_not_advance(self):
        # advance=False models latch-only control actions (MOVE).
        m = SystolicMachine("t")
        m.add_pes(1)
        m.pes[0].reg("R", 0.0)
        m.pes[0]["R"].set(5.0)
        m.latch()
        assert m.pes[0]["R"].value == 5.0
        assert m.tick == 1
        assert m.stats.wall_ticks == 0

    def test_end_tick_latches_all_pes(self):
        m = SystolicMachine("t")
        m.add_pes(2)
        for pe in m.pes:
            pe.reg("R", 0.0)
            pe["R"].set(1.0)
        m.end_tick()
        assert all(pe["R"].value == 1.0 for pe in m.pes)

    def test_phase_accounting(self):
        m = SystolicMachine("t")
        assert m.phase == -1
        m.begin_phase("a")
        assert m.phase == 0
        assert m.phase_start == 0
        m.end_tick()
        m.end_tick()
        m.begin_phase("b")
        assert m.phase == 1
        assert m.phase_start == 2

    def test_overlapped_tick_skew(self):
        m = SystolicMachine("t", hop_delay=1)
        m.begin_phase("p", start=6)
        assert m.overlapped_tick(0, 0) == 7
        assert m.overlapped_tick(2, 1) == 10  # pe*hop + step + 1

    def test_after_delivers_at_start_tick(self):
        m = SystolicMachine("t")
        hits = []
        m.after(1, lambda: hits.append(m.tick))
        m.start_tick()
        assert hits == []  # due at tick 2
        m.end_tick()
        m.start_tick()
        assert hits == [2]

    def test_after_rejects_negative_delay(self):
        m = SystolicMachine("t")
        with pytest.raises(SystolicError):
            m.after(-1, lambda: None)


class TestEventBus:
    def test_emit_without_sink_is_dropped(self):
        m = SystolicMachine("t")
        m.add_pes(1)
        m.emit("op", 0, "x")  # no sink: free no-op
        assert m.trace_events() == ()
        assert not m.tracing

    def test_traced_machine_collects_typed_events(self):
        m = SystolicMachine("t", record_trace=True)
        m.add_pes(1)
        m.begin_phase("p0")
        m.emit("op", 0, "x1")
        m.end_tick()
        events = m.trace_events()
        assert any(ev.kind == "phase" for ev in events)
        ops = [ev for ev in events if ev.kind == "op"]
        assert ops == [TraceEvent(tick=1, pe=0, kind="op", label="x1", phase=0)]
        assert m.legacy_trace() == ((1, 0, "x1"),)

    def test_emit_rejects_unknown_kind(self):
        m = SystolicMachine("t", record_trace=True)
        with pytest.raises(SystolicError):
            m.emit("bogus", 0, "x")

    def test_io_helpers_count_and_emit(self):
        m = SystolicMachine("t", record_trace=True)
        m.read_input(3, label="in")
        m.write_output(2, label="out")
        m.put_on_bus(1, label="bus")
        assert m.stats.input_words == 3
        assert m.stats.output_words == 2
        assert m.stats.broadcast_words == 1
        kinds = [ev.kind for ev in m.trace_events()]
        assert kinds.count("io") == 2
        assert kinds.count("broadcast") == 1

    def test_unsubscribe(self):
        bus = EventBus()
        sink = TraceSink()
        off = bus.subscribe(sink)
        bus.emit(TraceEvent(tick=1, pe=0, kind="op", label="a"))
        off()
        assert not bus.active
        bus.emit(TraceEvent(tick=2, pe=0, kind="op", label="b"))
        assert [ev.label for ev in sink.events] == ["a"]


class TestEmptyRunReports:
    def make(self, **kw) -> RunReport:
        base = dict(
            design="t", num_pes=0, iterations=0, wall_ticks=0,
            pe_busy_ticks=(), pe_op_counts=(), serial_ops=0,
            input_words=0, output_words=0, broadcast_words=0,
        )
        base.update(kw)
        return RunReport(**base)

    def test_empty_run_marked_and_finite(self):
        rep = self.make()
        assert rep.is_empty
        assert rep.processor_utilization == 0.0
        assert rep.busy_fraction == 0.0

    def test_zero_iterations_with_pes_is_empty(self):
        rep = self.make(num_pes=2, pe_busy_ticks=(0, 0), pe_op_counts=(0, 0))
        assert rep.is_empty
        assert rep.processor_utilization == 0.0

    def test_nonempty_run_not_marked(self):
        rep = self.make(
            num_pes=2, iterations=4, wall_ticks=4,
            pe_busy_ticks=(4, 2), pe_op_counts=(4, 2), serial_ops=6,
        )
        assert not rep.is_empty
        assert rep.processor_utilization == 6 / 8
        assert rep.busy_fraction == 6 / 8

    def test_machine_finalize_empty(self):
        rep = SystolicMachine("t").finalize(iterations=0, serial_ops=0)
        assert rep.is_empty
        assert rep.busy_fraction == 0.0


@dataclasses.dataclass(frozen=True)
class _StubResult:
    """A result with a report and no other field for ``auto`` to compare."""

    backend_fields: ClassVar[tuple[str, ...]] = ()
    report: RunReport


def _stub(backend, serial_ops=1):
    return _StubResult(RunReport(
        design="stub", num_pes=1, iterations=1, wall_ticks=1, pe_busy_ticks=(1,),
        pe_op_counts=(1,), serial_ops=serial_ops, input_words=1, output_words=1,
        broadcast_words=0, backend=backend,
    ))


class TestBackendDispatch:
    def test_normalize_accepts_known(self):
        assert normalize_backend("rtl") == "rtl"
        assert normalize_backend(None, "fast") == "fast"
        with pytest.raises(SystolicError):
            normalize_backend("gpu")

    def test_rtl_and_fast_select_their_lane(self):
        calls = []
        out = run_with_backend(
            "rtl", work=1,
            rtl=lambda: calls.append("rtl") or _stub("rtl"),
            fast=lambda: calls.append("fast") or _stub("fast"),
        )
        assert out == _stub("rtl")
        out = run_with_backend(
            "fast", work=1,
            rtl=lambda: calls.append("rtl") or _stub("rtl"),
            fast=lambda: calls.append("fast") or _stub("fast"),
        )
        assert out == _stub("fast")
        assert calls == ["rtl", "fast"]

    def test_auto_validates_small_instances(self):
        calls = []
        out = run_with_backend(
            "auto", work=AUTO_VALIDATE_LIMIT,
            rtl=lambda: calls.append("rtl") or _stub("rtl"),
            fast=lambda: calls.append("fast") or _stub("fast"),
        )
        assert out == _stub("fast")
        assert calls == ["fast", "rtl"]
        with pytest.raises(BackendMismatch):
            run_with_backend(
                "auto", work=AUTO_VALIDATE_LIMIT,
                rtl=lambda: _stub("rtl", serial_ops=2), fast=lambda: _stub("fast"),
            )

    def test_auto_skips_validation_above_limit(self):
        out = run_with_backend(
            "auto", work=AUTO_VALIDATE_LIMIT + 1,
            rtl=lambda: (_ for _ in ()).throw(AssertionError("rtl ran")),
            fast=lambda: _stub("fast"),
        )
        assert out == _stub("fast")

    def test_backend_mismatch_is_systolic_error(self):
        assert issubclass(BackendMismatch, SystolicError)


def _graph():
    return random_multistage(np.random.default_rng(3), [1, 3, 3, 3, 1])


def _node_value():
    rng = np.random.default_rng(4)
    values = tuple(rng.uniform(0, 10, 3) for _ in range(4))
    return NodeValueProblem(values=values, edge_cost=lambda a, b: (a - b) ** 2 + a)


#: (module whose dispatch runs the design, answer field, small auto run).
AUTO_DESIGNS = {
    "fig3": (pipelined_array, "value", lambda: PipelinedMatrixStringArray().run_graph(
        _graph(), backend="auto"
    )),
    "fig4-decisions": (pipelined_array, "value", lambda: BroadcastMatrixStringArray().run(
        list(_graph().costs), track_decisions=True, backend="auto"
    )),
    "fig5": (feedback_array, "optimum", lambda: FeedbackSystolicArray().run(
        _node_value(), backend="auto"
    )),
    "mesh": (mesh_array, "value", lambda: MeshMatrixMultiplier().run(
        *np.random.default_rng(5).uniform(0, 9, (2, 3, 3)), backend="auto"
    )),
    "paren": (parenthesization, "order.cost", lambda: SystolicParenthesizer().run(
        [5, 2, 7, 3, 4], backend="auto"
    )),
    "triangular": (triangular, "value", lambda: TriangularArray("systolic").run(
        ObstSpec(*random_obst_weights(np.random.default_rng(6), 4)), backend="auto"
    )),
}


def _perturbed(obj, path):
    """``obj`` with the dotted field ``path`` bumped by one (a tuple's
    first entry)."""
    head, _, rest = path.partition(".")
    old = getattr(obj, head)
    if rest:
        new = _perturbed(old, rest)
    elif isinstance(old, tuple):
        new = (old[0] + 1, *old[1:])
    else:
        new = np.asarray(old) + 1 if isinstance(old, np.ndarray) else old + 1
    return dataclasses.replace(obj, **{head: new})


class TestAutoCrossCheck:
    @pytest.mark.parametrize("design", AUTO_DESIGNS)
    def test_healthy_auto_run_passes(self, design):
        res = AUTO_DESIGNS[design][2]()
        assert res.report.backend == "fast"

    @pytest.mark.parametrize("field", ["answer", "report.wall_ticks", "report.pe_busy_ticks"])
    @pytest.mark.parametrize("design", AUTO_DESIGNS)
    def test_perturbed_fast_result_is_rejected(self, monkeypatch, design, field):
        module, answer, run = AUTO_DESIGNS[design]
        path = answer if field == "answer" else field
        dispatch = module.run_with_backend

        def perturbing(backend, *, fast, **kw):
            return dispatch(backend, fast=lambda: _perturbed(fast(), path), **kw)

        monkeypatch.setattr(module, "run_with_backend", perturbing)
        with pytest.raises(BackendMismatch):
            run()
