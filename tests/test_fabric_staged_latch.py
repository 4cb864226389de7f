"""The clock latches only what was staged, and the fabric's errors are uniform.

The machine keeps a list of the registers written since the last edge
and of the PEs that counted an op this tick, and its edge visits only
those.  The equivalence test drives seeded random register traffic —
writes, advancing and latch-only edges, op counts, plus an injector that
cancels staged writes before the edge and forces latched state after it
— and checks every register and counter after every edge against a
reference model that latches every register of every PE.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.systolic import (
    BroadcastParenthesizer,
    ProcessingElement,
    SystolicError,
    SystolicMachine,
    SystolicParenthesizer,
    TraceSink,
)
from repro.systolic.triangular import Alternative, TriangularArray, TriangularSpec

NAMES = ("R", "ACC", "X")


class _RandomInjector:
    """Cancels some staged writes before the edge, forces some registers after."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.cancelled: list[tuple[int, str]] = []
        self.forced: list[tuple[int, str, float]] = []

    def before_latch(self, machine: SystolicMachine) -> None:
        self.cancelled = []
        for pe in machine.pes:
            for name, reg in pe.registers.items():
                if reg.pending and self.rng.random() < 0.2:
                    reg.cancel()
                    self.cancelled.append((pe.index, name))

    def after_latch(self, machine: SystolicMachine) -> None:
        self.forced = []
        for pe in machine.pes:
            for name, reg in pe.registers.items():
                if self.rng.random() < 0.05:
                    value = float(self.rng.integers(1000, 2000))
                    reg.force(value)
                    self.forced.append((pe.index, name, value))


class _Reference:
    """Two-phase registers and busy accounting, latching every register."""

    def __init__(self, n_pes: int) -> None:
        self.current = {(p, name): 0.0 for p in range(n_pes) for name in NAMES}
        self.staged: dict[tuple[int, str], float] = {}
        self.busy_now: set[int] = set()
        self.busy_ticks = [0] * n_pes
        self.op_count = [0] * n_pes

    def edge(self, injector: _RandomInjector) -> None:
        for key in injector.cancelled:
            del self.staged[key]
        for key in self.current:  # every register, staged or not
            if key in self.staged:
                self.current[key] = self.staged.pop(key)
        for p, name, value in injector.forced:
            self.current[(p, name)] = value
        for p in self.busy_now:
            self.busy_ticks[p] += 1
        self.busy_now.clear()


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_staged_latch_matches_latch_every_register(seed, strict):
    rng = np.random.default_rng(seed)
    n_pes = 5
    injector = _RandomInjector(np.random.default_rng(seed + 100))
    machine = SystolicMachine("staged", injector=injector, strict=strict)
    for pe in machine.add_pes(n_pes):
        for name in NAMES:
            pe.reg(name, 0.0)
    ref = _Reference(n_pes)
    edges = 0
    for _ in range(400):
        roll = rng.random()
        p = int(rng.integers(n_pes))
        name = NAMES[int(rng.integers(len(NAMES)))]
        reg = machine.pes[p][name]
        if roll < 0.55:
            if (p, name) not in ref.staged:
                value = float(rng.integers(0, 1000))
                machine.enter_pe(p)
                reg.set(value)
                machine.exit_pe()
                ref.staged[(p, name)] = value
        elif roll < 0.75:
            n = int(rng.integers(1, 4))
            machine.pes[p].count_op(n)
            ref.op_count[p] += n
            ref.busy_now.add(p)
        else:
            advance = bool(rng.random() < 0.7)
            tick = machine.tick
            machine.end_tick(advance=advance)
            ref.edge(injector)
            edges += 1
            assert machine.tick == tick + advance
            for (q, reg_name), want in ref.current.items():
                got = machine.pes[q][reg_name]
                assert not got.pending
                assert got.value == want, (edges, q, reg_name)
            assert [pe.busy_ticks for pe in machine.pes] == ref.busy_ticks
            assert [pe.op_count for pe in machine.pes] == ref.op_count
            assert not any(pe._busy_this_tick for pe in machine.pes)
    assert edges > 50


def test_rewrite_after_cancel_latches_the_last_write():
    # A register cancelled and written again within one tick is listed
    # twice; the edge must still latch exactly the last staged value.
    machine = SystolicMachine("t")
    (pe,) = machine.add_pes(1)
    reg = pe.reg("R", 0.0)
    reg.set(1.0)
    reg.cancel()
    reg.set(2.0)
    machine.end_tick()
    assert reg.value == 2.0 and not reg.pending
    machine.end_tick()  # nothing staged: state holds
    assert reg.value == 2.0


def test_sanitizer_silent_op_check_sees_busy_flags_before_the_edge():
    machine = SystolicMachine("t", record_trace=True, strict=True)
    machine.sanitizer.mode = "record"
    pe0, pe1 = machine.add_pes(2)
    pe0.count_op()
    machine.emit("op", 0, "a")
    pe1.count_op()  # counted, never emitted
    machine.end_tick()
    assert machine.sanitizer.counts() == {"silent-op": 1}
    assert machine.sanitizer.report[0].pe == 1
    assert (pe0.busy_ticks, pe1.busy_ticks) == (1, 1)


def test_machine_owned_pe_cannot_be_clocked_alone():
    machine = SystolicMachine("t")
    (pe,) = machine.add_pes(1)
    with pytest.raises(SystolicError, match="machine.end_tick"):
        pe.end_tick()


def test_free_standing_pes_are_separate_clock_domains():
    p0, p1 = ProcessingElement(0), ProcessingElement(1)
    r0, r1 = p0.reg("R", 0), p1.reg("R", 0)
    r0.set(1)
    r1.set(2)
    p1.count_op()
    p0.end_tick()
    assert (r0.value, r1.value) == (1, 0)
    assert (p0.busy_ticks, p1.busy_ticks) == (0, 0)
    p1.end_tick()
    assert r1.value == 2 and p1.busy_ticks == 1


# ----------------------------------------------------------------------
# Uniform fabric errors
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs", [{}, {"record_trace": True}, {"strict": True}],
    ids=["no-sink", "sink", "strict"],
)
def test_emit_rejects_unknown_kind_with_or_without_listeners(kwargs):
    machine = SystolicMachine("t", **kwargs)
    machine.add_pes(1)
    with pytest.raises(SystolicError, match="unknown trace-event kind"):
        machine.emit("bogus", 0, "x")
    if machine.sanitizer is not None:  # rejected before the sanitizer hook
        assert machine.sanitizer._emitted == set()


def test_observed_tracks_sinks_and_sanitizer():
    assert not SystolicMachine("t").observed
    assert SystolicMachine("t", strict=True).observed
    assert SystolicMachine("t", sinks=[TraceSink()]).observed


@pytest.mark.parametrize("engine", [BroadcastParenthesizer, SystolicParenthesizer])
def test_parenthesizer_guard_raises_systolic_error(monkeypatch, engine):
    monkeypatch.setattr(engine, "_transfer_delay", lambda self, parent, child: 10**9)
    with pytest.raises(SystolicError, match="did not converge") as info:
        engine().run((3, 4, 5, 6), backend="rtl")
    assert isinstance(info.value, RuntimeError)  # callers catching RuntimeError still do


class _OrphanSpec(TriangularSpec):
    """One subproblem whose only alternative needs a child nobody computes."""

    def leaves(self):
        return {"a": 0.0}

    def subproblems(self):
        return [("goal", [Alternative("a", "missing", 1.0)])]

    def size(self, key):
        return 1 if key in ("a", "missing") else 2

    def goal(self):
        return "goal"


def test_triangular_guard_raises_systolic_error():
    with pytest.raises(SystolicError, match="did not converge") as info:
        TriangularArray().run(_OrphanSpec(), backend="rtl")
    assert isinstance(info.value, RuntimeError)


@pytest.mark.parametrize("backend", ["fast", "auto"])
def test_generic_spec_on_fast_raises_type_error(backend):
    # Only interval specs have a fast path; nothing switches to rtl silently.
    with pytest.raises(TypeError, match="IntervalSpec"):
        TriangularArray().run(_OrphanSpec(), backend=backend)
    with pytest.raises(TypeError, match="IntervalSpec"):
        TriangularArray(backend=backend).run(_OrphanSpec())


def test_lint_flags_the_staged_list_as_register_internal():
    from repro.analysis.static_check import check_source

    found = check_source("def peek(machine):\n    return machine._staged\n")
    assert [f.rule for f in found] == ["register-internals"]
