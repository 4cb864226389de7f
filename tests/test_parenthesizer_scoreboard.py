"""The parenthesizers' event-driven scoreboard against a full per-step scan.

The rtl backend scans a cell only at steps where one of its alternatives
may fold.  The reference below is the plain schedule: every step, every
unresolved cell in sorted order rescans all of its pending alternatives.
Both must fold the same alternatives at the same steps, so the ``op`` and
``broadcast`` events, the completion steps and the chosen splits agree.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.systolic import BroadcastParenthesizer, SystolicParenthesizer


def _full_scan(engine, dims):
    """Events, completion steps and splits of the every-cell, every-step sweep."""
    n = len(dims) - 1
    r = np.asarray(dims, dtype=np.int64)
    done = {(i, i): engine.base_time for i in range(1, n + 1)}
    pending = {
        (i, i + span - 1): list(range(i, i + span - 1))
        for span in range(2, n + 1)
        for i in range(1, n - span + 2)
    }
    latched: dict[tuple[int, int], float] = {}
    split: dict[tuple[int, int], int] = {}
    events = []
    bus = engine._transfer_delay(2, 1) == 0

    def value(key):
        return 0.0 if key[0] == key[1] else latched.get(key, math.inf)

    unresolved = set(pending)
    step = engine.base_time
    while unresolved:
        step += 1
        staged_now = {}
        for key in sorted(unresolved):
            i, j = key
            size = j - i + 1
            staged = latched.get(key)
            remaining, folded = [], 0
            for k in pending[key]:
                left, right = (i, k), (k + 1, j)
                if left not in done or right not in done:
                    remaining.append(k)
                    continue
                avail = max(
                    done[left] + engine._transfer_delay(size, k - i + 1),
                    done[right] + engine._transfer_delay(size, j - k),
                )
                if avail <= step - 1 and folded < engine.alternatives_per_step:
                    cost = value(left) + value(right) + float(r[i - 1] * r[k] * r[j])
                    if staged is None or cost < staged:
                        staged = cost
                        split[key] = k
                    folded += 1
                else:
                    remaining.append(k)
            pending[key] = remaining
            if folded:
                events.append((step, "op", f"m{i},{j}"))
                staged_now[key] = staged
            if not remaining and key in split:
                done[key] = step
                unresolved.discard(key)
                if bus:
                    events.append((step, "broadcast", f"bus:m{i},{j}"))
        latched.update(staged_now)  # the clock edge
    return events, done, split


class _OneFoldPerStep(BroadcastParenthesizer):
    """One alternative per step: available alternatives queue up, so a
    cell must be rescanned at the next step even when no child completes."""

    alternatives_per_step = 1


@pytest.mark.parametrize(
    "engine", [BroadcastParenthesizer, SystolicParenthesizer, _OneFoldPerStep]
)
@pytest.mark.parametrize("seed", range(40))
def test_event_driven_scoreboard_matches_full_scan(engine, seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 11
    # Few distinct dimensions, so cost ties between splits are common.
    dims = tuple(int(d) for d in rng.integers(1, 6 if seed % 2 else 40, size=n + 1))
    arr = engine()
    run = arr.run(dims, backend="rtl", record_trace=True)
    events, done, split = _full_scan(arr, dims)
    got = [(e.tick, e.kind, e.label) for e in run.events if e.kind in ("op", "broadcast")]
    assert got == events
    assert dict(run.subproblem_completion) == done

    def build(i, j):
        return i if i == j else (build(i, split[(i, j)]), build(split[(i, j)] + 1, j))

    assert run.order.expression == build(1, n)
