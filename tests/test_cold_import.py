"""A cold ``import repro`` loads only what a ``solve()`` call runs.

``andor``, ``dataflow``, ``faults``, ``io`` and ``search``, and the
telemetry sinks and exporters, load on first attribute access (PEP 562
module ``__getattr__``).  Each check runs in a fresh interpreter, without
a bytecode cache, so the lazy path is the one exercised: in this process
the rest of the suite has imported every subpackage already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Subpackages (and the one module ``io``) no solve path imports.
COLD_PACKAGES = ("repro.andor", "repro.dataflow", "repro.faults", "repro.io", "repro.search")
#: The telemetry modules a solve does not import; ``timing`` is on the path.
COLD_TELEMETRY = tuple(
    f"repro.telemetry.{name}" for name in ("compare", "export", "metrics", "timeline")
)

#: ``import repro``, then one fast Fig. 5 solve(), one rtl Fig. 3 solve()
#: and one solve_batch(); prints the repro modules loaded after each step.
SOLVE_PATH = """
import json, sys
import numpy as np
def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
steps = {}
import repro
from repro.graphs import add_virtual_terminals, traffic_light_problem, uniform_multistage
steps["import"] = loaded()
rng = np.random.default_rng(0)
report = repro.solve(traffic_light_problem(rng, 6, 5), backend="fast")
assert report.method == "fig5-feedback-array", report.method
steps["fast fig5"] = loaded()
report = repro.solve(add_virtual_terminals(uniform_multistage(rng, 5, 4)), backend="rtl")
assert report.method == "fig3-pipelined-array", report.method
steps["rtl fig3"] = loaded()
problems = [traffic_light_problem(rng, 6, 5) for _ in range(3)]
problems += [uniform_multistage(rng, 5, 3), repro.MatrixChainProblem((5, 3, 7, 2))]
assert all(r.validated for r in repro.solve_batch(problems))
steps["solve_batch"] = loaded()
print(json.dumps(steps))
"""


def fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter without a bytecode cache and
    return the JSON its last output line holds."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def is_cold(module: str) -> bool:
    return module in COLD_TELEMETRY or any(
        module == pkg or module.startswith(pkg + ".") for pkg in COLD_PACKAGES
    )


@pytest.fixture(scope="module")
def steps() -> dict[str, list[str]]:
    out = fresh(SOLVE_PATH)
    assert isinstance(out, dict)
    return out


class TestSolvePath:
    def test_no_cold_module_loads(self, steps):
        assert list(steps) == ["import", "fast fig5", "rtl fig3", "solve_batch"]
        for step, modules in steps.items():
            assert [m for m in modules if is_cold(m)] == [], step

    def test_module_counts_are_pinned(self, steps):
        # A new eager import on the solve path moves these.
        counts = {step: len(modules) for step, modules in steps.items()}
        assert counts == {"import": 43, "fast fig5": 45, "rtl fig3": 45, "solve_batch": 45}

    def test_only_timing_loads_from_telemetry_and_only_on_an_array_run(self, steps):
        assert not [m for m in steps["import"] if m.startswith("repro.telemetry")]
        for step in ("fast fig5", "rtl fig3", "solve_batch"):
            telemetry = [m for m in steps[step] if m.startswith("repro.telemetry")]
            assert telemetry == ["repro.telemetry", "repro.telemetry.timing"], step

    def test_the_cold_set_is_what_a_full_import_adds(self):
        # Every module the solve path leaves out is one the lazy names load.
        code = SOLVE_PATH.replace(
            'print(json.dumps(steps))',
            "for name in repro.__all__: getattr(repro, name)\n"
            "for name in repro.telemetry.__all__: getattr(repro.telemetry, name)\n"
            'steps["all names"] = loaded()\n'
            "print(json.dumps(steps))",
        )
        steps = fresh(code)
        added = sorted(set(steps["all names"]) - set(steps["solve_batch"]))
        assert added and all(is_cold(m) for m in added)
        assert set(COLD_TELEMETRY) <= set(added)
        for pkg in COLD_PACKAGES:
            assert pkg in added, pkg


class TestLazyNames:
    def test_every_public_name_resolves_by_getattr(self):
        out = fresh(
            "import json, repro\n"
            "print(json.dumps({\n"
            "    'repro': [n for n in repro.__all__ if getattr(repro, n, None) is None],\n"
            "    'telemetry': [n for n in repro.telemetry.__all__\n"
            "                  if getattr(repro.telemetry, n, None) is None],\n"
            "}))"
        )
        assert out == {"repro": [], "telemetry": []}

    def test_every_public_name_resolves_by_from_import(self):
        names = {
            "repro": list(repro.__all__),
            "repro.telemetry": list(repro.telemetry.__all__),
        }
        out = fresh(
            "import json\n"
            f"names = {names!r}\n"
            "bad = []\n"
            "for pkg, ns in names.items():\n"
            "    for n in ns:\n"
            "        scope = {}\n"
            "        exec(f'from {pkg} import {n}', scope)\n"
            "        if n not in scope: bad.append((pkg, n))\n"
            "print(json.dumps(bad))"
        )
        assert out == []

    def test_star_import(self):
        out = fresh(
            "import json\n"
            "from repro import *\n"
            "from repro.telemetry import *\n"
            "print(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))"
        )
        want = set(repro.__all__) | set(repro.telemetry.__all__)
        assert want - {"__version__"} <= set(out)

    def test_dir_lists_every_public_name_before_any_load(self):
        out = fresh(
            "import json, sys, repro, repro.telemetry\n"
            "print(json.dumps({\n"
            "    'repro': dir(repro), 'telemetry': dir(repro.telemetry),\n"
            "    'faults loaded': 'repro.faults' in sys.modules,\n"
            "    'metrics loaded': 'repro.telemetry.metrics' in sys.modules,\n"
            "}))"
        )
        assert set(repro.__all__) <= set(out["repro"])
        assert set(repro.telemetry.__all__) <= set(out["telemetry"])
        assert not out["faults loaded"] and not out["metrics loaded"]

    def test_a_second_access_returns_the_same_object(self):
        out = fresh(
            "import json, sys, repro\n"
            "faults = repro.faults\n"
            "from repro import faults as again\n"
            "sink = repro.telemetry.MetricsSink\n"
            "from repro.telemetry import MetricsSink\n"
            "from repro.telemetry.metrics import MetricsSink as defined\n"
            "print(json.dumps([\n"
            "    faults is repro.faults is again is sys.modules['repro.faults'],\n"
            "    sink is repro.telemetry.MetricsSink is MetricsSink is defined,\n"
            "]))"
        )
        assert out == [True, True]

    def test_an_unknown_name_raises_the_usual_attribute_error(self):
        out = fresh(
            "import json, repro\n"
            "msgs = []\n"
            "for mod in (repro, repro.telemetry):\n"
            "    try:\n"
            "        mod.nope\n"
            "    except AttributeError as exc:\n"
            "        msgs.append(str(exc))\n"
            "print(json.dumps(msgs))"
        )
        assert out == [
            "module 'repro' has no attribute 'nope'",
            "module 'repro.telemetry' has no attribute 'nope'",
        ]
