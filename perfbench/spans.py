"""Span recorder for the traced benchmark run.

The traced run wraps the public functions of each ``repro`` layer at the
import site its caller looks them up from (:data:`SITES`), records one
span per call -- name, id, parent id, start and end in nanoseconds -- and
puts every original back on exit.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.  A span's self time is its duration
minus the durations of its direct children, so the self times of all
layers add up to the time of the root calls (``repro.solve`` /
``repro.solve_batch``).

Every ``*_ms`` metric is a layer's self time per traced call, in
milliseconds; counts are normalized per submitted problem, per call or
per run of the layer, as their unit says.  The work is single-process,
so no layer waits and no wait time is reported.
"""

from __future__ import annotations

import array
import collections
import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.graphs import NodeValueProblem

_BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
#: Per-layer metrics as ``BENCHMARK.json`` lists them: name -> unit.
UNITS: dict[str, str] = {
    m["name"]: m["unit"] for m in json.loads(_BENCHMARK.read_text())["per_layer"]
}

#: Which end-to-end metric on which workload a change to each layer should move.
MOVES: dict[str, str] = {
    "core.solver.self_ms": "call_p50_ms on solve_mixed",
    "core.classification.recommend_ms": "problems_per_s on batch_nodevalue",
    "core.classification.recommend_per_problem": "problems_per_s on batch_nodevalue",
    "graphs.materialize_ms": "problems_per_s on batch_nodevalue; call_p90_ms on polyadic_long",
    "graphs.materialize_per_layer":
        "problems_per_s on batch_nodevalue; call_p90_ms on polyadic_long",
    "exec.digest.ms": "problems_per_s on batch_nodevalue",
    "exec.digest.calls": "problems_per_s on batch_nodevalue",
    "exec.cache.get_ms": "problems_per_s on batch_nodevalue",
    "exec.cache.put_ms": "problems_per_s on batch_nodevalue",
    "exec.cache.hit_ratio": "problems_per_s on batch_nodevalue",
    "exec.cache.evictions": "problems_per_s on batch_nodevalue",
    "exec.grouping.ms": "problems_per_s on batch_nodevalue",
    "exec.grouping.fill_factor": "problems_per_s on batch_nodevalue",
    "exec.vectorized.prepare_ms": "problems_per_s on batch_nodevalue",
    "exec.vectorized.kernel_ms": "problems_per_s on batch_nodevalue",
    "dp.oracle_ms": "call_p50_ms on solve_mixed and polyadic_long",
    "dp.oracle_per_solve": "call_p50_ms on solve_mixed and polyadic_long",
    "dnc.chain_product_ms": "call_p50_ms on polyadic_long",
    "dnc.matmuls": "call_p50_ms on polyadic_long",
    "dnc.rounds": "call_p50_ms on polyadic_long (an eq.-29 count: must not change)",
    "systolic.fast_ms": "call_p50_ms on solve_mixed",
    "systolic.serial_ops": "call_p50_ms on solve_mixed",
    "systolic.bytes_computed": "call_p50_ms on solve_mixed",
    "systolic.rtl_ms": "call_p50_ms on rtl_arrays",
    "systolic.rtl_us_per_pe_iter": "call_p50_ms on rtl_arrays",
    "trace.call_ms": "none: the traced call time that the *_ms self times add up to",
    "trace.overhead_frac": "none (reported only)",
}

Hook = Callable[[collections.Counter, tuple, dict, Any], None]


def _count_cost_matrix(counts: collections.Counter, args: tuple, kwargs: dict, out: Any) -> None:
    counts["cost_matrix"] += 1


def _batch_stats(counts: collections.Counter, args: tuple, kwargs: dict, out: Any) -> None:
    counts["batch_executed"] += out.stats.executed
    counts["batch_vectorized"] += out.stats.vectorized_problems


def _cache_get(counts: collections.Counter, args: tuple, kwargs: dict, out: Any) -> None:
    counts["cache_gets"] += 1
    counts["cache_hits"] += out is not None


def _payload_bytes(counts: collections.Counter, args: tuple, kwargs: dict, out: Any) -> None:
    counts["fast_bytes"] += sum(a.nbytes for key in ("layers", "mats") for a in out.get(key, ()))


def _kernel_reports(counts: collections.Counter, args: tuple, kwargs: dict, out: Any) -> None:
    if args[0]["kind"] != "scalar":  # scalar payloads loop solve(), which is spanned itself
        counts["serial_ops"] += sum(r.detail.report.serial_ops for r in out)


def _chain_product(counts: collections.Counter, args: tuple, kwargs: dict, out: Any) -> None:
    counts["dnc_matmuls"] += out.total_multiplications
    counts["dnc_rounds"] += out.rounds


def _operand_bytes(operand: Any) -> int:
    """Cost-operand bytes a fast array kernel reads, computed from array sizes."""
    if isinstance(operand, NodeValueProblem):  # one float64 cost layer per stage pair
        sizes = operand.stage_sizes
        return 8 * sum(a * b for a, b in zip(sizes, sizes[1:]))
    if all(isinstance(d, int) for d in operand):  # matrix-chain dimensions, int64
        return 8 * len(operand)
    return 8 * sum(int(np.size(a)) for a in operand)  # float64 matrix string


def _array_span(args: tuple, kwargs: dict) -> str:
    backend = kwargs.get("backend") or args[0].backend
    return "systolic.rtl" if backend == "rtl" else "systolic.fast"


def _array_run(counts: collections.Counter, args: tuple, kwargs: dict, out: Any) -> None:
    rr = out.report
    counts["serial_ops"] += rr.serial_ops
    if rr.backend == "rtl":
        counts["rtl_pe_iters"] += rr.iterations * rr.num_pes
    else:
        counts["fast_bytes"] += _operand_bytes(args[1])


#: (module, attribute, span name -- or a function of (args, kwargs) that
#: gives it -- and a hook that counts from the call's arguments and result).
SITES: tuple[tuple[str, str, str | Callable[[tuple, dict], str], Hook | None], ...] = (
    ("repro", "solve", "core.solver", None),
    ("repro", "solve_batch", "core.solver", _batch_stats),
    ("repro.core.solver", "solve", "core.solver", None),
    ("repro.core.solver", "recommend", "core.classification.recommend", None),
    ("repro.exec.grouping", "recommend", "core.classification.recommend", None),
    ("repro.graphs.multistage", "NodeValueProblem.cost_matrix", "graphs.materialize",
     _count_cost_matrix),
    ("repro.graphs.multistage", "NodeValueProblem.to_graph", "graphs.materialize", None),
    ("repro.exec.digest", "cache_key", "exec.digest", None),
    ("repro.exec.engine", "cache_key", "exec.digest", None),
    ("repro.exec.cache", "SolveCache.get", "exec.cache.get", _cache_get),
    ("repro.exec.cache", "SolveCache.put", "exec.cache.put", None),
    ("repro.exec.engine", "group_problems", "exec.grouping", None),
    ("repro.exec.engine", "prepare_payload", "exec.vectorized.prepare", _payload_bytes),
    ("repro.exec.engine", "run_payload", "exec.vectorized.kernel", _kernel_reports),
    ("repro.core.solver", "solve_node_value", "dp.oracle", None),
    ("repro.core.solver", "solve_backward", "dp.oracle", None),
    ("repro.core.solver", "solve_matrix_chain", "dp.oracle", None),
    ("repro.core.solver", "simulate_chain_product", "dnc.chain_product", _chain_product),
    ("repro.systolic.feedback_array", "FeedbackSystolicArray.run", _array_span, _array_run),
    ("repro.systolic.pipelined_array", "PipelinedMatrixStringArray.run", _array_span,
     _array_run),
    ("repro.systolic.parenthesization", "_ParenthesizerBase.run", _array_span, _array_run),
)


def _resolve(module: str, attr: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def current_targets() -> list[Any]:
    """What every site holds now: the originals unless a tracer is installed."""
    return [getattr(*_resolve(module, attr)) for module, attr, _name, _hook in SITES]


class Tracer:
    """Context manager: wraps every site on entry, restores every original on exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Flat rows of (name index, span id, parent id, start ns, end ns).
        self.spans = array.array("q")
        self.counts: collections.Counter = collections.Counter()
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        try:
            for module, attr, name, hook in SITES:
                owner, leaf = _resolve(module, attr)
                original = getattr(owner, leaf)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, hook))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    @property
    def span_count(self) -> int:
        return len(self.spans) // 5

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(
        self, fn: Callable[..., Any], name: str | Callable[[tuple, dict], str],
        hook: Hook | None,
    ) -> Callable[..., Any]:
        fixed = self._name_id(name) if isinstance(name, str) else None
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = fixed if fixed is not None else self._name_id(name(args, kwargs))
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.extend((idx, sid, parent, start, end))
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return wrapper

    def totals(self) -> tuple[collections.Counter, collections.Counter, int, int]:
        """Self ns and calls per span name; the number of root spans and their total ns."""
        self_ns: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        child_ns: dict[int, int] = {}
        roots = root_ns = 0
        rows = self.spans
        for k in range(0, len(rows), 5):
            idx, sid, parent, start, end = rows[k : k + 5]
            dur = end - start
            name = self.names[idx]
            # A span is recorded when it ends, so its children come first.
            self_ns[name] += dur - child_ns.pop(sid, 0)
            calls[name] += 1
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + dur
            else:
                roots += 1
                root_ns += dur
        return self_ns, calls, roots, root_ns

    def dump(self, path: Path, record: dict[str, Any]) -> None:
        """Write the run record and every span, as JSON, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                {
                    "record": record,
                    "span_names": self.names,
                    "span_fields": ["name", "id", "parent", "start_ns", "end_ns"],
                    "spans": self.spans.tolist(),
                },
                fh,
            )


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    problems: int,
    node_value_layers: int,
    evictions: int,
    overhead_frac: float,
) -> dict[str, tuple[float, str]]:
    """Every :data:`UNITS` metric of one traced phase, as name -> (value, unit)."""
    self_ns, calls, roots, root_ns = tracer.totals()
    c = tracer.counts

    def ms(name: str) -> float:
        return _per(self_ns[name] / 1e6, roots)

    runs = calls["dnc.chain_product"]
    values = {
        "core.solver.self_ms": ms("core.solver"),
        "core.classification.recommend_ms": ms("core.classification.recommend"),
        "core.classification.recommend_per_problem": _per(
            calls["core.classification.recommend"], problems
        ),
        "graphs.materialize_ms": ms("graphs.materialize"),
        "graphs.materialize_per_layer": _per(c["cost_matrix"], node_value_layers),
        "exec.digest.ms": ms("exec.digest"),
        "exec.digest.calls": _per(calls["exec.digest"], problems),
        "exec.cache.get_ms": ms("exec.cache.get"),
        "exec.cache.put_ms": ms("exec.cache.put"),
        "exec.cache.hit_ratio": _per(c["cache_hits"], c["cache_gets"]),
        "exec.cache.evictions": _per(evictions, roots),
        "exec.grouping.ms": ms("exec.grouping"),
        "exec.grouping.fill_factor": _per(c["batch_vectorized"], c["batch_executed"]),
        "exec.vectorized.prepare_ms": ms("exec.vectorized.prepare"),
        "exec.vectorized.kernel_ms": ms("exec.vectorized.kernel"),
        "dp.oracle_ms": ms("dp.oracle"),
        "dp.oracle_per_solve": _per(calls["dp.oracle"], problems),
        "dnc.chain_product_ms": ms("dnc.chain_product"),
        "dnc.matmuls": _per(c["dnc_matmuls"], runs),
        "dnc.rounds": _per(c["dnc_rounds"], runs),
        "systolic.fast_ms": ms("systolic.fast"),
        "systolic.serial_ops": _per(c["serial_ops"], problems),
        "systolic.bytes_computed": _per(c["fast_bytes"], problems),
        "systolic.rtl_ms": ms("systolic.rtl"),
        "systolic.rtl_us_per_pe_iter": _per(self_ns["systolic.rtl"] / 1e3, c["rtl_pe_iters"]),
        "trace.call_ms": _per(root_ns / 1e6, roots),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (values[name], unit) for name, unit in UNITS.items()}
