"""Golden rtl streams: every rtl design's observable output, pinned by digest.

Each case runs one seeded instance on the cycle-accurate machine and
hashes three things: the trace-bus events ``(tick, pe, kind, label,
phase)``, every :class:`~repro.systolic.fabric.RunReport` field, and the
result value.  The digests were recorded on the machine that latched
every register at every edge; the tick loop may get faster, but it must
not change a single event, counter or value.

Every case runs untraced, traced, strict, and traced + strict.  The two
untraced modes have no events and share one digest; the two traced modes
share another, because a clean strict run emits nothing extra and
reports ``hazards == 0``.  The fault-plan cases also pin the injector's
record of every fault that took effect, and the observed cases the
per-phase boundary vectors of the one-row strings.  Every Fig. 5 problem
here has scalar and block costs that agree bit for bit, so its digests
hold whichever of the two the F unit evaluates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.graphs import gain_schedule_problem, traffic_light_problem
from repro.systolic import (
    BroadcastMatrixStringArray,
    BroadcastParenthesizer,
    FeedbackSystolicArray,
    MeshMatrixMultiplier,
    PipelinedMatrixStringArray,
    SystolicParenthesizer,
)


def _string(rng, n_mats, m, row_vector):
    mats = [rng.integers(0, 100, size=(m, m)).astype(float) for _ in range(n_mats)]
    if row_vector:
        mats[0] = rng.integers(0, 100, size=(1, m)).astype(float)
    mats.append(rng.integers(0, 100, size=(m, 1)).astype(float))
    return mats


def _pipelined(seed, n_mats, m, row_vector=False):
    mats = _string(np.random.default_rng(seed), n_mats, m, row_vector)
    arr = PipelinedMatrixStringArray()
    return lambda **kw: arr.run(mats, **kw)


def _broadcast(seed, n_mats, m, row_vector=False, **options):
    mats = _string(np.random.default_rng(seed), n_mats, m, row_vector)
    arr = BroadcastMatrixStringArray()
    return lambda **kw: arr.run(mats, **options, **kw)


#: The Fig. 5 cases' problems.  Each one's scalar ``edge_cost`` (on 0-d
#: operands) equals its cost block bit for bit
#: (:func:`test_feedback_scalar_costs_equal_block_costs`), so a digest
#: does not depend on which of the two the F unit reads.
FEEDBACK_PROBLEMS = {
    "fig5": lambda: traffic_light_problem(np.random.default_rng(31), 6, 4),
    "fig5-m1": lambda: traffic_light_problem(np.random.default_rng(32), 4, 1),
    "fig5-gain": lambda: gain_schedule_problem(np.random.default_rng(33), 16, 8),
}


def _feedback(name):
    problem = FEEDBACK_PROBLEMS[name]()
    arr = FeedbackSystolicArray()
    return lambda **kw: arr.run(problem, **kw)


def _mesh(seed, n, m):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(n, m)).astype(float)
    b = rng.integers(0, 100, size=(m, n)).astype(float)
    arr = MeshMatrixMultiplier()
    return lambda **kw: arr.run(a, b, **kw)


def _paren(engine, seed, n):
    dims = tuple(int(d) for d in np.random.default_rng(seed).integers(2, 50, size=n + 1))
    return lambda **kw: engine.run(dims, **kw)


CASES = {
    "fig3": lambda: _pipelined(11, 5, 4),
    "fig3-row-a": lambda: _pipelined(12, 5, 4, row_vector=True),
    "fig3-row-b": lambda: _pipelined(13, 4, 4, row_vector=True),
    "fig3-m1": lambda: _pipelined(14, 3, 1),
    "fig4": lambda: _broadcast(21, 5, 4),
    "fig4-row": lambda: _broadcast(22, 4, 4, row_vector=True),
    "fig4-row-decisions": lambda: _broadcast(22, 4, 4, row_vector=True, track_decisions=True),
    "fig4-m1": lambda: _broadcast(24, 3, 1),
    "fig5": lambda: _feedback("fig5"),
    "fig5-m1": lambda: _feedback("fig5-m1"),
    "fig5-gain": lambda: _feedback("fig5-gain"),
    "mesh": lambda: _mesh(41, 4, 3),
    "paren-broadcast": lambda: _paren(BroadcastParenthesizer(), 51, 9),
    "paren-systolic": lambda: _paren(SystolicParenthesizer(), 52, 9),
}

FAULT_PLANS = {
    "fig3-dead-stuck": (
        "fig3",
        (
            FaultSpec(mode="dead_pe", pe=2, tick=9),
            FaultSpec(mode="stuck_at", pe=1, reg="ACC", tick=5, value=3.0),
        ),
    ),
    # The row cases' faults hit the final one-row phase, where P1 works
    # alone: faults on other PEs and on P1's shift register R must find
    # nothing staged there.  fig3-row-a's last phase is ticks 17-20 (its
    # ACC reset latches at 17), fig3-row-b's and fig4-row's ticks 13-16.
    "fig3-row-a-p1": (
        "fig3-row-a",
        (
            FaultSpec(mode="dead_pe", pe=1, tick=17),
            FaultSpec(mode="drop_delivery", pe=0, reg="R", tick=17, duration=4),
            FaultSpec(mode="transient_flip", pe=0, reg="ACC", tick=18, delta=5.0),
        ),
    ),
    "fig3-row-b-p1": (
        "fig3-row-b",
        (
            FaultSpec(mode="stuck_at", pe=0, reg="X", tick=13, value=3.0),
            FaultSpec(mode="transient_flip", pe=0, reg="Y", tick=13, delta=5.0),
            FaultSpec(mode="drop_delivery", pe=0, reg="R", tick=13, duration=4),
        ),
    ),
    "fig4-row-p1": (
        "fig4-row",
        (
            FaultSpec(mode="dead_pe", pe=2, tick=13),
            FaultSpec(mode="transient_flip", pe=0, reg="ACC", tick=14, delta=5.0),
            FaultSpec(mode="stuck_at", pe=0, reg="ARG", tick=15, value=3.0),
        ),
    ),
    "fig5-drop-flip": (
        "fig5",
        (
            FaultSpec(mode="drop_delivery", pe=1, reg="K", tick=6),
            FaultSpec(mode="transient_flip", pe=2, reg="PAIR", tick=10, delta=5.0),
        ),
    ),
    # K faults on the rtl_arrays-sized gain case: each leaves a K that is
    # not the predecessor stage's own value, so the F unit must evaluate
    # g on the corrupted operand.  fig5-gain-dup-k captures P4's K at
    # tick 35 and replays it over stage 4's delivery latched at tick 36.
    "fig5-gain-flip-k": (
        "fig5-gain",
        (FaultSpec(mode="transient_flip", pe=2, reg="K", tick=40, delta=0.25),),
    ),
    "fig5-gain-stuck-k": (
        "fig5-gain",
        (FaultSpec(mode="stuck_at", pe=5, reg="K", tick=60, duration=12, value=0.5),),
    ),
    "fig5-gain-dup-k": (
        "fig5-gain",
        (FaultSpec(mode="duplicate_delivery", pe=3, reg="K", tick=35),),
    ),
}

MODES = {
    "untraced": {},
    "traced": {"record_trace": True},
    "strict": {"strict": True},
    "traced-strict": {"record_trace": True, "strict": True},
}


def _canonical(value):
    """A JSON-ready, order-stable form of a result value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "items"):  # dicts and read-only mappings
        return sorted([_canonical(k), _canonical(v)] for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value


def _result_value(res):
    """The design's answer: value vector, optimum/path, or chain order."""
    if hasattr(res, "optimum"):
        return [res.optimum, res.path.nodes, res.final_stage_values]
    if hasattr(res, "order"):
        return [
            res.order.cost, res.order.expression, res.steps,
            res.subproblem_completion, res.alternatives_evaluated,
        ]
    return [res.value, getattr(res, "decisions", None)]


def _digest(res, faults=None, phase_values=False):
    payload = {
        "events": [[e.tick, e.pe, e.kind, e.label, e.phase] for e in res.events],
        "report": _canonical(list(dataclasses.astuple(res.report))),
        "value": _canonical(_result_value(res)),
    }
    if faults is not None:
        payload["faults"] = [f.to_dict() for f in faults]
    if phase_values:
        payload["phase_values"] = _canonical(res.phase_values)
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def case_digest(name, mode):
    return _digest(CASES[name]()(**MODES[mode]))


def fault_digest(name, mode):
    base, specs = FAULT_PLANS[name]
    injector = FaultInjector(FaultPlan(specs=specs))
    res = CASES[base]()(injector=injector, **MODES[mode])
    assert injector.injections, f"{name}: the plan never took effect"
    return _digest(res, injector.injections)


def observed_digest(name):
    """The untraced run with ``observe``: its digest adds the per-phase
    ``(x, y)`` boundary vectors the ABFT detectors read."""
    return _digest(CASES[name]()(observe=True), phase_values=True)


#: ``(untraced digest, traced digest)`` per case, recorded on the
#: latch-every-register machine (``fig4-row-decisions``, ``fig4-m1`` and
#: the one-row fault plans on the machine that ran a one-row phase as
#: its own scalar routine; ``fig5-gain`` and its K-fault plans on the F
#: unit that called ``edge_cost`` at every op).
GOLDEN = {
    "fig3": ("341340c6c358ba6ab71e1fa26c519144a52cb7d77dedea06040228bd40c99625",
             "7b633ad64ad2aab571affe3a0c272300f292d970882df1660fb967e71a044d57"),
    "fig3-row-a": ("102a749fa848d80a6bbd6a1dae3903c02c12d28ab5aea28ac368f1c50929699b",
                   "7ecb63e13ca8696f83d1883e262467dfc9e00126c9c0934ac3d4b79755f975d2"),
    "fig3-row-b": ("386c0866bb8a6ce33126c8b739bb6fe926df1f865ae9e31af9270eb5aa3f48ca",
                   "6f16571141cea09edd040b0897dc5a1ad9544316c6295361b0dfb1bfd7900004"),
    "fig3-m1": ("d1113a2a733e44e0a68b6523b988c94f141d92a816dd6dfa8e83b29d5ddf2f04",
                "a729e643809b7b9af56d47cf305187d8d702677240204975adcc039320bc94f9"),
    "fig4": ("f6980f035679301fa109b491c750091a11393dfbbcd178274bc4ac6145689d46",
             "8677235369824174b1082df039ffcc303e6ec3ef82f3c99d82be7c891ca8a036"),
    "fig4-row": ("faab6c00c788142cbca1a364039ea518ea861f5b7bff8280156df125fbbf3d81",
                 "1d91c9d51c5f84decaacc6bb9ef1b916420131fe98b91d49a22dd86dad5c6c94"),
    "fig4-row-decisions": ("48a0422e17bcbaf1ed6c10c87807e24eee0cbf9e83509c9afe03f5ec886a3c09",
                           "d76ca331a30c3e1b34226840089864bd7283ef5e7dded2ae554af495276b9df9"),
    "fig4-m1": ("6daf9953c02503b64c289b1ed8b511eae93d68fadce0e1572ca1c50cdfa6ec45",
                "656ebad92f29ed1d0f878ba483bf736d69d8607ac6f47e1c32634ef8e703fcf7"),
    "fig5": ("87b90ac5eca95541647442e93a3f50815ec31a882936c708021a0c040806a2d7",
             "d6d2e9b16403abf3ee74165eb6df769c8276fe2729f307cac85973e503810a66"),
    "fig5-m1": ("be2e63dd1ce449aa19a992a0efa819958affb6607e71bf5685aa9097cab6b708",
                "d4ebf5cc964b4028f0ee30dfaa64c96b020d352ceceb7a1055afc0a7e4bd65fc"),
    "fig5-gain": ("c26fefa1ba4697ff31e556061e310cd98eb23441ac72a2a3abf7cc4a318bb172",
                  "ea106c359e5b3c91362b7aff41c667c82d388dac18b727880cb45f2aca0f322e"),
    "mesh": ("a0fe15d266a76c0ef6dbfd14384240e27c16c4d2cd0132fedbaf7c3513a0fd45",
             "b92e955c8b68889d4002b922894a3ee7d3ed3e73a15e49023f5fbeff229b1053"),
    "paren-broadcast": ("826d228d24fb72f4b8962d60832ea906caee09c44c201d19a2474b7b6e6fc762",
                        "cba2e218458ee46b9fd3aec6ee8a4a58949de1fb301f3c6539b703a7c705b4d0"),
    "paren-systolic": ("be054f551553227f6d60afb30273fe0ca52efdcc77b2c3d5a4d4594e2ccec946",
                       "c71c96a4a9ffb38b6e111f6ce393cf84743265c24c4f96f8dbd0636155b865f9"),
}

GOLDEN_FAULTS = {
    "fig3-dead-stuck": ("88e27a65db3d2350b7ef220a66419490a01aa665c540f8cec1a48494cede9ac8",
                        "b0bee46da3a646e43fc34591d5de1692c6daa06d722d483445502e97c9c146de"),
    "fig3-row-a-p1": ("e28dcae8b3faf7e8366a5423df8b4ad992e8dae377897727705e32e59a0735da",
                      "791af15db272dfc39fa1a7f5c949e784e8c28223fb25ee5c89374669448c637d"),
    "fig3-row-b-p1": ("4a2bed56cf8194485b7fb0c1cbd879a73bd7517be748f734736b40975a0ae6be",
                      "ce57cbbe1a2392b04ac791f4750bf65d538ea93d98e4217244eb75976776d4b1"),
    "fig4-row-p1": ("dd63e0d6adf7026ba9c8c89f25eb18ac0be26dc986c21e7e2c11d95c2293cdde",
                    "bee95eecc7237833b0ec5df318123c185ffe63e2c74092f61e27b8e7dd0ab8bb"),
    "fig5-drop-flip": ("610d40ed5c61ab8b5f77687698a79be63213bd478aba54b7cc126e220affe91f",
                       "9e54011cef438e7defe6b86c26047be1bac1b1865e3acf5c4740e6d512154f25"),
    "fig5-gain-flip-k": ("2bff2fd56a51abfd6ff63518102e8f64e0dd92cfb4ac871e4c73289e387989ba",
                         "ab08c3434e204ae24fc88e20b8932f7a679375c8095e383bc3995d0b18d6651b"),
    "fig5-gain-stuck-k": ("c3045f584fd5d3c6b0256129b7b69ae69e8bc2348879f36d53cea0bd6e946e0d",
                          "f00aa67a75cb5aa8a38f760ee69d1634089c4f63fdf283faa1c4713734c6cd3e"),
    "fig5-gain-dup-k": ("d726d688707b3a5956a798aa1bdc9aa792648c4c049b41b6bc596f6f3523e91c",
                        "e69791ebdbe8ee09ff056f2ea44745998e77a1c03943242e400ef33f0f4a231f"),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CASES)
def test_rtl_stream_matches_golden(name, mode):
    untraced, traced = GOLDEN[name]
    want = traced if MODES[mode].get("record_trace") else untraced
    assert case_digest(name, mode) == want


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", FAULT_PLANS)
def test_fault_plan_stream_matches_golden(name, mode):
    untraced, traced = GOLDEN_FAULTS[name]
    want = traced if MODES[mode].get("record_trace") else untraced
    assert fault_digest(name, mode) == want


#: Untraced ``observe=True`` digest, phase values included, per one-row case.
GOLDEN_OBSERVED = {
    "fig3-row-a": "6b8f173b56dd669d52a696ff958e0275b26dfdeecc6d7a336ac9806d34d926f3",
    "fig3-row-b": "3e43fdbb3ee30f99c78973938f9222a741a44d4104c0915f3775192a95a09d2d",
    "fig4-row": "70196b04bda8ff920b6ca3913137fefd96cea831ec4ede16c5972458caa8a34b",
}


@pytest.mark.parametrize("name", GOLDEN_OBSERVED)
def test_observed_phase_values_match_golden(name):
    assert observed_digest(name) == GOLDEN_OBSERVED[name]


@pytest.mark.parametrize("name", FEEDBACK_PROBLEMS)
def test_feedback_scalar_costs_equal_block_costs(name):
    problem = FEEDBACK_PROBLEMS[name]()
    block = problem.cost_blocks[0]
    scalar = [
        [
            [float(problem.edge_cost(np.asarray(x), np.asarray(y))) for y in ys]
            for x in xs
        ]
        for xs, ys in zip(problem.values, problem.values[1:])
    ]
    assert scalar == block.tolist()
