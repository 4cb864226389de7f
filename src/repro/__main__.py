"""Command-line interface: ``python -m repro <command>``.

Small demonstration front-end over the library:

* ``python -m repro demo`` — classify and solve one representative
  problem per Table-1 class, printing the dispatch report.
* ``python -m repro fig6 [--n N]`` — regenerate the Figure-6 sweep.
* ``python -m repro spacetime [--stages N] [--values M]`` — run the
  Fig. 5 array on a random instance and print its space-time diagram.
* ``python -m repro bench [--design D|all] [--n N] [--m M]
  [--backend B]`` — time any of the five array designs on a random
  instance, per backend, and optionally write uniform ``BENCH_*.json``
  records (the CI smoke step and the perf-trajectory corpus).
* ``python -m repro batch [--kind K] [--batch B]`` — throughput demo
  of the batch engine (:mod:`repro.exec`): solve a random batch with
  ``solve_batch`` and a looped ``solve()``, print the speedup,
  grouping stats and second-pass cache hit rate.
* ``python -m repro trace --design D [--export chrome|json|ascii]`` —
  run one design with telemetry sinks subscribed and export a
  Chrome-trace/Perfetto JSON, a full run record (report + events +
  metrics + timings, consumable by ``compare``), or an ASCII space-time
  occupancy heatmap.
* ``python -m repro compare A.json B.json`` — per-metric delta table
  between two saved run records.
* ``python -m repro inject [--design D|all] [--trials T]
  [--policy P] [--fault-plan F.json]`` — seeded fault-injection
  campaigns (or one explicit plan) with ABFT detection and recovery;
  exits 1 if any output-corrupting fault went undetected.
* ``python -m repro lint [paths...] [--json F] [--include-suppressed]
  [--no-tools]`` — the systolic discipline checker
  (:mod:`repro.analysis`): static fabric rules over the tree plus
  gated ruff/mypy sections; exits 1 on findings, the CI lint gate.

``demo`` and ``bench`` accept ``--backend rtl|fast|auto`` to pick the
array execution engine (cycle-accurate machine vs. vectorized
whole-array reductions).

File and plan errors (unreadable run records, corrupted JSON, invalid
fault plans) exit with status 2 and a one-line ``error:`` message, the
same convention argparse uses for bad flags.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .faults import DESIGNS, make_harness


def _design_runner(design: str, rng: np.random.Generator, n: int, m: int):
    """Build ``design``'s random instance with
    :func:`~repro.faults.make_harness`, as ``inject`` does; return
    ``(name, run)``.

    ``name`` is the simulator's ``design_name``; ``run(**kw)`` runs the
    instance on the array with the array's keywords (``backend``,
    ``sinks``, ``record_trace``, ``injector``, ``strict``) and returns a
    result carrying ``.report`` (and ``.events`` when traced).
    """
    harness = make_harness(design, rng, n=n, m=m)
    return harness.array.design_name, harness.run


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import MatrixChainProblem, solve
    from .dp import banded_objective
    from .graphs import traffic_light_problem, uniform_multistage

    rng = np.random.default_rng(args.seed)
    problems = [
        ("monadic-serial", traffic_light_problem(rng, 6, 5)),
        ("polyadic-serial", uniform_multistage(rng, 40, 3)),
        ("monadic-nonserial", banded_objective(rng, [4, 3, 4, 3])),
        ("polyadic-nonserial", MatrixChainProblem((30, 35, 15, 5, 10, 20, 25))),
    ]
    print(f"{'class':20s} {'method':36s} {'optimum':>12s}  validated")
    for name, problem in problems:
        rep = solve(problem, backend=args.backend)
        print(f"{name:20s} {rep.method:36s} {rep.optimum:12.3f}  {rep.validated}")
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from .dnc import argmin_kt2, kt2, optimal_granularity, schedule_time

    n = args.n
    best_k, best_v = argmin_kt2(n, k_min=2, k_max=n)
    print(f"N = {n}: argmin of K*T^2 is K = {best_k} (KT^2 = {best_v:.0f}); "
          f"N/log2(N) = {optimal_granularity(n):.0f}")
    ks = sorted({max(2, n // d) for d in (64, 32, 16, 12, 10, 8, 6, 4, 2)} | {best_k})
    print(f"{'K':>6s} {'T_c':>5s} {'T_w':>5s} {'T':>5s} {'K*T^2':>12s}")
    for k in ks:
        st = schedule_time(n, k)
        print(f"{k:6d} {st.computation:5d} {st.wind_down:5d} {st.total:5d} "
              f"{kt2(n, k):12.0f}")
    return 0


def _cmd_spacetime(args: argparse.Namespace) -> int:
    import json

    from .graphs import traffic_light_problem
    from .systolic import FeedbackSystolicArray
    from .telemetry import TimelineSink

    rng = np.random.default_rng(args.seed)
    problem = traffic_light_problem(rng, args.stages, args.values)
    timeline = TimelineSink()
    res = FeedbackSystolicArray().run(problem, sinks=[timeline])
    if args.json:
        print(json.dumps(timeline.to_json(res.report), indent=2))
        return 0
    print(
        f"Fig. 5 array on {args.stages} stages x {args.values} values: "
        f"optimum {res.optimum:.3f}, path {res.path.nodes}, "
        f"{res.report.iterations} iterations\n"
    )
    print(timeline.render_spacetime(args.values, res.report.iterations))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .analysis import HazardError
    from .telemetry import (
        MetricsSink,
        TimelineSink,
        collect_timings,
        validate_chrome_trace,
        write_chrome_trace,
    )

    rng = np.random.default_rng(args.seed)
    design_name, run = _design_runner(args.design, rng, args.n, args.m)
    injector = None
    fault_plan = None
    if args.fault_plan:
        from .faults import FaultInjector, FaultPlan, FaultPlanError

        fault_plan = FaultPlan.load(args.fault_plan)
        if fault_plan.design and fault_plan.design != args.design:
            raise FaultPlanError(
                f"fault plan targets design {fault_plan.design!r}, "
                f"trace is running {args.design!r}"
            )
        injector = FaultInjector(fault_plan)
    timeline = TimelineSink(design_name)
    metrics = MetricsSink(design_name)
    try:
        with collect_timings() as timer:
            res = run(
                record_trace=True, sinks=[timeline, metrics],
                injector=injector, strict=args.strict,
            )
    except HazardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if injector is None:
            raise
        # Crash-as-detection: injected faults may corrupt state into
        # shapes the schedule cannot finish on.  Report, don't traceback.
        print(
            f"{design_name}: run crashed under fault injection after "
            f"{len(injector.injections)} injection(s): "
            f"{type(exc).__name__}: {exc}"
        )
        return 1
    report = res.report
    print(
        f"{report.design} (rtl): {report.num_pes} PEs, "
        f"{report.iterations} iterations, {report.wall_ticks} wall ticks, "
        f"PU {report.processor_utilization:.3f}"
    )
    if args.strict:
        print(f"hazard sanitizer: {report.hazards} hazard(s)")
    if injector is not None:
        print(
            f"fault plan {args.fault_plan}: {len(fault_plan)} spec(s), "
            f"{len(injector.injections)} injection(s) performed"
        )

    if args.metrics:
        path = pathlib.Path(args.metrics)
        if path.suffix == ".json":
            path.write_text(
                json.dumps(metrics.registry.snapshot(), indent=2) + "\n"
            )
        else:
            path.write_text(metrics.registry.to_prometheus())
        print(f"wrote metrics {path}")

    if args.export == "ascii":
        print()
        print(timeline.render_heatmap())
        breakdown = timeline.pu_breakdown(report)
        print()
        print("phase  label            start  length  busy  occupancy")
        for row in breakdown["phases"]:
            print(
                f"{row['phase']:>5d}  {row['label']:<15s}  {row['start']:>5d}  "
                f"{row['length']:>6d}  {row['busy_ticks']:>4d}  {row['occupancy']:.3f}"
            )
        if "paper_pu" in breakdown:
            print(f"paper closed-form PU: {breakdown['paper_pu']:.4f}")
        return 0

    out = pathlib.Path(
        args.out if args.out else f"trace_{report.design}.{args.export}.json"
    )
    if args.export == "chrome":
        data = write_chrome_trace(out, res.events, design=report.design)
        summary = validate_chrome_trace(data)
        print(
            f"wrote {out}: {summary['events']} events on {summary['lanes']} lanes, "
            f"{summary['phases']} phase spans"
        )
    else:  # json: the full run record, consumable by `compare`
        from .io import save_run

        faults_payload = None
        if injector is not None:
            faults_payload = {
                "kind": "fault_trace",
                "plan": fault_plan.to_dict(),
                "injections": [inj.to_dict() for inj in injector.injections],
            }
        save_run(
            out,
            report,
            res.events,
            metrics=metrics.registry.snapshot(),
            timings=timer.summary(),
            faults=faults_payload,
        )
        print(f"wrote {out}: run record with {len(res.events)} events")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .telemetry import RunComparison

    comparison = RunComparison.from_files(args.run_a, args.run_b)
    print(comparison.render(only_changed=args.only_changed))
    return 0


def _bench_record(
    design: str, backend: str, n: int, m: int, wall: float, report
) -> dict:
    """The uniform ``BENCH_*.json`` record shape, for every design."""
    return {
        "bench": "cli_smoke",
        "design": report.design,
        "backend": backend,
        "N": n,
        "m": m,
        "wall_seconds": wall,
        "iterations": report.iterations,
        "pu": report.processor_utilization,
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import time

    from .systolic import BACKENDS

    designs = list(DESIGNS) if args.design == "all" else [args.design]
    backends = list(BACKENDS[:2]) if args.backend == "auto" else [args.backend]
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    for design in designs:
        rng = np.random.default_rng(args.seed)
        design_name, run = _design_runner(design, rng, args.n, args.m)
        timings: dict[str, float] = {}
        for backend in backends:
            start = time.perf_counter()
            res = run(backend=backend)
            timings[backend] = time.perf_counter() - start
            print(
                f"{design} N={args.n} m={args.m} backend={backend}: "
                f"{timings[backend]:.4f}s, {res.report.iterations} iterations, "
                f"PU {res.report.processor_utilization:.3f}"
            )
        if len(timings) == 2:
            print(f"speedup fast vs rtl: {timings['rtl'] / timings['fast']:.1f}x")
        backend = backends[-1]
        record = _bench_record(
            design, backend, args.n, args.m, timings[backend], res.report
        )
        records.append(record)
        if out_dir is not None:
            path = out_dir / f"BENCH_{design_name.replace('-', '_')}.json"
            path.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {path}")
    if args.json:
        # One design keeps the historical flat record shape; `--design all`
        # consolidates every design into a single suite record instead of
        # silently keeping only the last one.
        if len(records) == 1:
            payload = records[0]
        else:
            payload = {
                "bench": "cli_smoke_suite",
                "designs": [r["design"] for r in records],
                "records": records,
                "total_wall_seconds": sum(r["wall_seconds"] for r in records),
            }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if out_dir is not None and len(records) > 1:
        path = out_dir / "BENCH_all.json"
        path.write_text(
            json.dumps(
                {
                    "bench": "cli_smoke_suite",
                    "designs": [r["design"] for r in records],
                    "records": records,
                    "total_wall_seconds": sum(r["wall_seconds"] for r in records),
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {path}")
    return 0


def _batch_problems(kind: str, rng: np.random.Generator, batch: int, n: int, m: int):
    """Build ``batch`` random instances of ``kind`` for the batch engine."""
    from . import MatrixChainProblem
    from .graphs import traffic_light_problem, uniform_multistage

    if kind == "feedback":
        return [traffic_light_problem(rng, n, m) for _ in range(batch)]
    if kind == "pipelined":
        return [uniform_multistage(rng, n, m) for _ in range(batch)]
    if kind == "chain":
        return [
            MatrixChainProblem(tuple(int(d) for d in rng.integers(2, 50, size=n + 1)))
            for _ in range(batch)
        ]
    # mixed: a third of each, exercising grouping across kinds
    third = max(1, batch // 3)
    probs: list = [traffic_light_problem(rng, n, m) for _ in range(third)]
    probs += [uniform_multistage(rng, n, m) for _ in range(third)]
    while len(probs) < batch:
        probs.append(
            MatrixChainProblem(tuple(int(d) for d in rng.integers(2, 50, size=n + 1)))
        )
    return probs[:batch]


def _cmd_batch(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import time

    from . import SolveCache, solve, solve_batch

    rng = np.random.default_rng(args.seed)
    problems = _batch_problems(args.kind, rng, args.batch, args.n, args.m)

    start = time.perf_counter()
    looped = [solve(p, backend=args.backend) for p in problems]
    looped_wall = time.perf_counter() - start

    cache = SolveCache(capacity=max(2 * args.batch, 64))
    start = time.perf_counter()
    result = solve_batch(problems, backend=args.backend, cache=cache)
    batched_wall = time.perf_counter() - start
    for rep, ref in zip(result.reports, looped):
        if rep.optimum != ref.optimum:
            print("error: batched optimum diverged from looped solve()",
                  file=sys.stderr)
            return 1

    second = solve_batch(problems, backend=args.backend, cache=cache)
    stats = result.stats
    speedup = looped_wall / batched_wall if batched_wall > 0 else float("inf")
    print(
        f"batch kind={args.kind} B={args.batch} n={args.n} m={args.m} "
        f"backend={stats.backend}"
    )
    print(
        f"  looped solve(): {looped_wall:.4f}s "
        f"({args.batch / looped_wall:.0f} problems/s)"
    )
    print(
        f"  solve_batch():  {batched_wall:.4f}s "
        f"({stats.problems_per_second:.0f} problems/s)  speedup {speedup:.1f}x"
    )
    print(
        f"  groups={stats.groups} vectorized={stats.vectorized_groups} "
        f"fill={stats.fill_factor:.2f}"
    )
    print(
        f"  cache second pass: {second.stats.cache_hits}/{second.stats.total} hits "
        f"({cache.stats.hit_rate:.2f} overall hit rate)"
    )
    if args.json:
        payload = {
            "bench": "batch_cli",
            "kind": args.kind,
            "batch": args.batch,
            "n": args.n,
            "m": args.m,
            "backend": stats.backend,
            "looped_wall_seconds": looped_wall,
            "batched_wall_seconds": batched_wall,
            "speedup": speedup,
            "problems_per_second": stats.problems_per_second,
            "fill_factor": stats.fill_factor,
            "groups": stats.groups,
            "second_pass_cache_hits": second.stats.cache_hits,
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .faults import (
        FaultDetected,
        FaultPlan,
        FaultPlanError,
        make_harness,
        run_campaign,
        run_with_recovery,
    )
    from .telemetry import MetricsRegistry, MetricsSink

    registry = MetricsRegistry()

    if args.fault_plan:
        # One explicit plan against one design instance.
        plan = FaultPlan.load(args.fault_plan)
        design = plan.design or (args.design if args.design != "all" else None)
        if design is None:
            raise FaultPlanError(
                "plan names no design; pass --design with a concrete one"
            )
        if args.design != "all" and args.design != design:
            raise FaultPlanError(
                f"fault plan targets design {design!r}, --design says {args.design!r}"
            )
        rng = np.random.default_rng(args.seed)
        harness = make_harness(design, rng, n=args.n, m=args.m)
        sink = MetricsSink(harness.design, registry)
        try:
            _, run_report = run_with_recovery(
                harness, plan, policy=args.policy, sinks=(sink,)
            )
        except FaultDetected as exc:
            print(f"{design}: fail-fast raised ({len(exc.detections)} detections)")
            return 1
        print(
            f"{design}: outcome {run_report.outcome}, "
            f"{len(run_report.injections)} injection(s), "
            f"{len(run_report.detections)} detection(s), "
            f"{run_report.attempts} attempt(s)"
        )
        for deg in run_report.degraded:
            print(
                f"  spare-PE remap of PE {deg['dead_pe']}: "
                f"PU {deg['measured_pu']:.3f} on {deg['active_pes']} PEs "
                f"(clean {deg['clean_pu']:.3f}, paper "
                + (
                    f"{deg['predicted_pu']:.3f})"
                    if deg["predicted_pu"] is not None
                    else "n/a)"
                )
            )
        if args.json:
            payload = {"kind": "fault_run_record", "run": run_report.to_dict()}
            pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {args.json}")
        ok = run_report.outcome in ("clean", "recovered", "degraded") or (
            run_report.outcome == "detected" and args.policy == "warn"
        )
        return 0 if ok else 1

    designs = list(DESIGNS) if args.design == "all" else [args.design]
    print(
        f"{'design':10s} {'injected':>8s} {'effective':>9s} {'detected':>8s} "
        f"{'recovered':>9s} {'det rate':>8s} {'rec rate':>8s} {'silent':>6s}"
    )
    campaigns = []
    silent_total = 0
    for design in designs:
        rep = run_campaign(
            design,
            seed=args.seed,
            trials=args.trials,
            n=args.n,
            m=args.m,
            policy=args.policy,
            registry=registry,
        )
        campaigns.append(rep)
        silent_total += rep.undetected_effective
        print(
            f"{design:10s} {rep.faults_injected:8d} {rep.effective:9d} "
            f"{rep.detected:8d} {rep.recovered:9d} {rep.detection_rate:8.3f} "
            f"{rep.recovery_rate:8.3f} {rep.undetected_effective:6d}"
        )
    if args.json:
        payload = {
            "kind": "fault_campaign_suite",
            "campaigns": [rep.to_dict() for rep in campaigns],
            "metrics": registry.snapshot(),
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if silent_total:
        print(
            f"FAIL: {silent_total} effective fault(s) escaped every detector",
            file=sys.stderr,
        )
        return 1
    print("every output-corrupting fault was detected or recovered")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis import run_lint

    paths = [pathlib.Path(p) for p in args.paths] or None
    if paths:
        for p in paths:
            if not p.exists():
                raise FileNotFoundError(f"no such file or directory: {p}")
    report = run_lint(
        paths,
        include_suppressed=args.include_suppressed,
        run_tools=not args.no_tools,
    )
    if args.json:
        pathlib.Path(args.json).write_text(report.to_json() + "\n")
    for finding in report.findings:
        print(finding)
    if args.include_suppressed:
        for finding in report.suppressed:
            print(f"{finding}  [suppressed: {finding.justification}]")
    for name, section in sorted(report.tools.items()):
        status = section.get("status", "?")
        detail = ""
        if status == "failed":
            detail = f" ({section.get('errors', section.get('findings', '?'))} problem(s))"
        print(f"tool {name}: {status}{detail}")
    verdict = "clean" if report.ok else "FAILED"
    print(
        f"lint {verdict}: {report.files_checked} file(s), "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed) if args.include_suppressed else '-'} suppressed"
    )
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Systolic processing for dynamic programming (Wah & Li, 1985)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="solve one problem per Table-1 class")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument(
        "--backend", choices=("rtl", "fast", "auto"), default="rtl",
        help="systolic-array execution engine (default: rtl)",
    )
    p_demo.set_defaults(func=_cmd_demo)

    p_fig6 = sub.add_parser("fig6", help="regenerate the Figure-6 sweep")
    p_fig6.add_argument("--n", type=int, default=4096)
    p_fig6.set_defaults(func=_cmd_fig6)

    p_st = sub.add_parser("spacetime", help="Fig. 5 space-time diagram")
    p_st.add_argument("--stages", type=int, default=4)
    p_st.add_argument("--values", type=int, default=3)
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument(
        "--json", action="store_true",
        help="print the timeline as JSON instead of the labelled diagram",
    )
    p_st.set_defaults(func=_cmd_spacetime)

    p_bench = sub.add_parser("bench", help="time an array design per backend")
    p_bench.add_argument(
        "--design", choices=DESIGNS + ("all",), default="pipelined",
        help="array design to time, or 'all' (default: pipelined)",
    )
    p_bench.add_argument("--n", type=int, default=16, help="instance size (matrices/stages/rows)")
    p_bench.add_argument("--m", type=int, default=8, help="values per stage / columns")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--backend", choices=("rtl", "fast", "auto"), default="auto",
        help="backend to time; 'auto' times both and prints the speedup",
    )
    p_bench.add_argument("--json", default=None, help="write a BENCH_*.json record here")
    p_bench.add_argument(
        "--out-dir", default=None,
        help="write one BENCH_<design>.json record per design into this directory",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_batch = sub.add_parser(
        "batch",
        help="throughput demo: solve_batch vs looped solve() on a random batch",
    )
    p_batch.add_argument(
        "--kind", choices=("feedback", "pipelined", "chain", "mixed"),
        default="feedback",
        help="instance family to batch (default: feedback)",
    )
    p_batch.add_argument("--batch", type=int, default=64, help="instances in the batch")
    p_batch.add_argument("--n", type=int, default=6, help="stages / matrices per instance")
    p_batch.add_argument("--m", type=int, default=5, help="values per stage / columns")
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument(
        "--backend", choices=("rtl", "fast", "auto"), default="fast",
        help="array execution engine (default: fast — the throughput engine)",
    )
    p_batch.add_argument("--json", default=None, help="write a batch_cli record here")
    p_batch.set_defaults(func=_cmd_batch)

    p_trace = sub.add_parser(
        "trace", help="run one design with telemetry sinks and export the trace"
    )
    p_trace.add_argument(
        "--design", choices=DESIGNS, default="feedback",
        help="array design to trace (default: feedback)",
    )
    p_trace.add_argument(
        "--export", choices=("chrome", "json", "ascii"), default="chrome",
        help="chrome: Perfetto-loadable trace; json: full run record "
             "(for `compare`); ascii: space-time occupancy heatmap",
    )
    p_trace.add_argument("--out", default=None, help="output path for chrome/json exports")
    p_trace.add_argument(
        "--metrics", default=None,
        help="also write the metrics registry here (.json: snapshot; "
             "otherwise Prometheus text)",
    )
    p_trace.add_argument("--n", type=int, default=6, help="instance size (matrices/stages/rows)")
    p_trace.add_argument("--m", type=int, default=4, help="values per stage / columns")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "--fault-plan", default=None,
        help="inject this fault plan (JSON from FaultPlan.save) during the "
             "traced run; fault events land in the exported trace",
    )
    p_trace.add_argument(
        "--strict", action="store_true",
        help="run under the hazard sanitizer (repro.analysis); exits 1 "
             "with the hazard report if the design violates the "
             "register/latch discipline",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_cmp = sub.add_parser(
        "compare", help="per-metric delta table between two saved run records"
    )
    p_cmp.add_argument("run_a", help="baseline systolic_run JSON file")
    p_cmp.add_argument("run_b", help="candidate systolic_run JSON file")
    p_cmp.add_argument(
        "--only-changed", action="store_true",
        help="hide metrics whose values are identical on both sides",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_inj = sub.add_parser(
        "inject",
        help="fault-injection campaign (or one plan) with detection/recovery",
    )
    p_inj.add_argument(
        "--design", choices=DESIGNS + ("all",), default="all",
        help="array design to attack, or 'all' (default: all)",
    )
    p_inj.add_argument(
        "--trials", type=int, default=100,
        help="random fault plans per design (default: 100)",
    )
    p_inj.add_argument(
        "--policy", choices=("fail_fast", "warn", "retry", "spare"),
        default="retry", help="recovery policy (default: retry)",
    )
    p_inj.add_argument("--n", type=int, default=6, help="instance size (matrices/stages/rows)")
    p_inj.add_argument("--m", type=int, default=4, help="values per stage / columns")
    p_inj.add_argument("--seed", type=int, default=0)
    p_inj.add_argument(
        "--fault-plan", default=None,
        help="run this one plan (JSON from FaultPlan.save) instead of a "
             "random campaign",
    )
    p_inj.add_argument(
        "--json", default=None,
        help="write the campaign/run report (with metrics snapshot) here",
    )
    p_inj.set_defaults(func=_cmd_inject)

    p_lint = sub.add_parser(
        "lint",
        help="systolic discipline checker: static fabric rules + ruff/mypy",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p_lint.add_argument(
        "--json", default=None, help="write the full LintReport JSON here"
    )
    p_lint.add_argument(
        "--include-suppressed", action="store_true",
        help="also list findings silenced by `# systolic: allow(...)`",
    )
    p_lint.add_argument(
        "--no-tools", action="store_true",
        help="skip the ruff/mypy subprocess sections (static rules only)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 — filtered to the typed CLI errors
        if isinstance(exc, _cli_error_types()):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


def _cli_error_types() -> tuple[type[BaseException], ...]:
    """Errors that exit 2 with a one-line message instead of a traceback."""
    from .faults import FaultPlanError
    from .io import RunRecordError

    return (RunRecordError, FaultPlanError, FileNotFoundError, IsADirectoryError,
            PermissionError)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
