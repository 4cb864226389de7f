"""Observability over the systolic trace bus.

Everything in this package consumes the typed
:class:`~repro.systolic.fabric.TraceEvent` stream the PR-1 machine core
publishes (or, for the vectorized backends, wall-clock timing spans) —
no simulator internals are reached into, and nothing here costs a
traced run anything unless a sink is actually subscribed:

* :mod:`~repro.telemetry.metrics` — Prometheus-style
  :class:`MetricsRegistry` (counters / gauges / fixed-bucket
  histograms) fed by a :class:`MetricsSink`;
* :mod:`~repro.telemetry.timeline` — :class:`TimelineSink` per-PE
  busy/idle timelines, ASCII occupancy heatmaps, and measured-vs-paper
  PU breakdowns;
* :mod:`~repro.telemetry.export` — Chrome-trace / Perfetto JSON
  export plus the schema check CI runs on it;
* :mod:`~repro.telemetry.compare` — :class:`RunComparison` per-metric
  deltas between two runs;
* :mod:`~repro.telemetry.timing` — ``perf_counter_ns`` spans so rtl
  and fast backends yield comparable wall-clock telemetry.

See ``docs/observability.md`` for the naming scheme and CLI workflows
(``python -m repro trace`` / ``compare``).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from .timing import TimingCollector, active_collector, collect_timings, span

if TYPE_CHECKING:
    from .compare import MetricDelta, RunComparison
    from .export import chrome_trace, validate_chrome_trace, write_chrome_trace
    from .metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricFamily,
        MetricsRegistry,
        MetricsSink,
    )
    from .timeline import PhaseSpan, TimelineSink, paper_reference_pu

#: Public name -> the submodule that defines it, loaded on first access
#: (PEP 562).  Only :mod:`.timing` loads with the package: the array
#: fabric times every backend run under its spans, and nothing else here
#: takes part in a solve.
_LAZY: dict[str, str] = {
    "MetricDelta": "compare",
    "RunComparison": "compare",
    "chrome_trace": "export",
    "validate_chrome_trace": "export",
    "write_chrome_trace": "export",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricFamily": "metrics",
    "MetricsRegistry": "metrics",
    "MetricsSink": "metrics",
    "PhaseSpan": "timeline",
    "TimelineSink": "timeline",
    "paper_reference_pu": "timeline",
}

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricDelta",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSink",
    "PhaseSpan",
    "RunComparison",
    "TimelineSink",
    "TimingCollector",
    "active_collector",
    "chrome_trace",
    "collect_timings",
    "paper_reference_pu",
    "span",
    "validate_chrome_trace",
    "write_chrome_trace",
]


if not TYPE_CHECKING:
    # Hidden from mypy, which would otherwise type every unknown name as
    # __getattr__'s return; the TYPE_CHECKING imports above give it the
    # real ones.

    def __getattr__(name: str) -> Any:
        module = _LAZY.get(name)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value  # later accesses do not come back here
        return value

    def __dir__() -> list[str]:
        return sorted(set(globals()) | _LAZY.keys())
