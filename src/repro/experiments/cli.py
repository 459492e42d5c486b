"""Command-line interface: ``aurora-sim``.

Subcommands::

    aurora-sim run <workload> [--model baseline] [--issue 2] [--latency 17]
    aurora-sim suite [--suite int|fp] [--model baseline]
    aurora-sim experiments [--only fig4 table6 ...] [--factor 0.5] [--out d/]
                           [--trace sweep-trace.json]
    aurora-sim trace <workload> [--factor 0.05] [--out trace.ndjson]
    aurora-sim report <trace.ndjson> [--window 1000] [--occupancy-out o.json]
    aurora-sim explore [workload] [--space fig8] [--factor 0.05]
                       [--budget 0.5] [--jobs 2]
                       [--validate] [--out explore.json]
                       [--metrics-out m.json] [--trace spans.json]
                       [--history BENCH_history.json] [--check]
    aurora-sim spans <sweep-trace.json> [--min-ms 0.1]
    aurora-sim perf <workload> [--factor 0.05] [--check] [--seed-baseline]
    aurora-sim serve [--host 127.0.0.1] [--port 8311] [--jobs 2]
                     [--store results/.sim_memo]
                     [--sample-interval 1.0] [--ring-out ring.jsonl]
    aurora-sim loadgen --url http://127.0.0.1:8311 [--queries q.jsonl]
                       [--concurrency 8] [--requests 64] [--record out.jsonl]
                       [--slo p99:0.5] [--slo error-rate:0.01]
    aurora-sim top --url http://127.0.0.1:8311 [--interval 2] [--no-clear]
    aurora-sim cost [--model baseline] [--issue 2]
    aurora-sim list

Structured JSON-lines logging is available on every subcommand via the
global ``--log-file PATH`` / ``--log-level LEVEL`` flags (or the
``REPRO_LOG`` / ``REPRO_LOG_LEVEL`` environment, validated eagerly);
see docs/OBSERVABILITY.md.

Exit codes are unified across subcommands (see
:mod:`repro.experiments.exit_codes`): 0 success, 1 internal error,
2 usage error (bad arguments, unknown workload, invalid ``REPRO_*``
environment, ``perf --check`` without a stored baseline), 3 perf
regression, 4 partial experiment results (some failed, the rest
completed and checkpointed), 5 interrupted by SIGINT/SIGTERM after a
graceful checkpoint flush, 6 SLO violation (``loadgen --slo``).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.core.config import (
    BASELINE,
    LARGE,
    RECOMMENDED,
    SMALL,
    MachineConfig,
)
from repro.cost.rbe import fpu_cost, ipu_cost
from repro.experiments.exit_codes import (
    EXIT_ERROR,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_PERF_REGRESSION,
    EXIT_SLO_VIOLATION,
    EXIT_USAGE,
    sweep_exit_code,
)
from repro.experiments.run_all import nonneg_int, positive_float, positive_int
from repro.robustness.validation import EnvValidationError, validate_environment
from repro.telemetry import logging as structlog
from repro.workloads.registry import WorkloadError, all_specs

_MODELS = {
    "small": SMALL,
    "baseline": BASELINE,
    "large": LARGE,
    "recommended": RECOMMENDED,
}


def _configure(args: argparse.Namespace) -> MachineConfig:
    config = _MODELS[args.model]
    config = config.with_(issue_width=args.issue, mem_latency=args.latency)
    if getattr(args, "no_prefetch", False):
        config = config.without_prefetch()
    if getattr(args, "mshrs", None):
        config = config.with_mshrs(args.mshrs)
    return config


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=sorted(_MODELS), default="baseline")
    parser.add_argument("--issue", type=int, choices=(1, 2), default=2)
    parser.add_argument("--latency", type=int, default=17)
    parser.add_argument("--no-prefetch", action="store_true")
    parser.add_argument("--mshrs", type=int, default=None)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.api import simulate_workload

    config = _configure(args)
    result = simulate_workload(args.workload, config, scale=args.scale)
    print(f"workload:  {args.workload}")
    print(f"machine:   {config.label}")
    print(result.stats.summary())
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.api import suite_results

    config = _configure(args)
    results = suite_results(config, suite=args.suite)
    print(f"machine: {config.label}")
    # Empty (zero-instruction) runs have NaN CPI by design; folding one
    # into the mean would poison it, so they are skipped and flagged.
    live = []
    for name, result in results.items():
        if result.stats.instructions:
            live.append(result.cpi)
            print(f"  {name:<10} CPI={result.cpi:.3f}")
        else:
            print(f"  {name:<10} CPI=n/a (empty run)")
    if live:
        average = sum(live) / len(live)
        print(f"  {'average':<10} CPI={average:.3f}")
    empty_runs = len(results) - len(live)
    if empty_runs:
        print(f"  ({empty_runs} empty runs skipped from the average)")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import run_resilient
    from repro.robustness.chaos import ChaosError

    try:
        _results, report = run_resilient(
            factor=args.factor,
            out_dir=args.out,
            only=args.only,
            resume=not args.no_resume,
            manifest=args.manifest,
            timeout=args.timeout,
            retries=args.retries,
            jobs=args.jobs,
            use_trace_cache=not args.no_trace_cache,
            trace_out=args.trace,
            chaos=args.chaos,
            chaos_seed=args.chaos_seed,
        )
    except ChaosError as error:
        print(f"error: --chaos: {error}", file=sys.stderr)
        return EXIT_USAGE
    return sweep_exit_code(report)


def cmd_trace(args: argparse.Namespace) -> int:
    """Simulate one workload with telemetry on, streaming events to disk."""
    from repro.core.processor import simulate_trace
    from repro.experiments.common import scaled_trace
    from repro.telemetry import (
        EventBus,
        MetricsRegistry,
        NDJSONSink,
        RingBufferSink,
        assert_stalls_match,
        publish_stats,
        render_summary,
    )

    config = _configure(args)
    trace = scaled_trace(args.workload, args.factor)
    out = args.out or f"{args.workload}-trace.ndjson"
    bus = EventBus()
    ring = RingBufferSink()
    bus.attach(ring)
    bus.attach(NDJSONSink(out))
    try:
        result = simulate_trace(trace, config, telemetry=bus)
    finally:
        bus.close()
    events = ring.events
    assert_stalls_match(events, result.stats, dropped=ring.dropped)
    metrics_out = args.metrics_out or f"{args.workload}-metrics.json"
    publish_stats(result.stats, MetricsRegistry()).write_json(metrics_out)
    print(f"workload:  {args.workload} (factor {args.factor})")
    print(f"machine:   {config.label}")
    print(f"events:    {len(events)} -> {out}")
    print(f"metrics:   {metrics_out}")
    print()
    print(render_summary(events, result.stats, window=args.window))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Summarise a previously captured NDJSON event trace."""
    import json

    from repro.telemetry import load_ndjson, occupancy_export, render_summary

    events = load_ndjson(args.trace)
    print(f"trace:  {args.trace}")
    print(f"events: {len(events)}")
    if args.occupancy_out:
        document = occupancy_export(events)
        with open(args.occupancy_out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"occupancy: {args.occupancy_out}")
    print()
    print(render_summary(events, window=args.window))
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Model-guided Pareto exploration of a named config space.

    Calibrates the analytic CPI estimator, simulates only the
    predicted-frontier band (docs/EXPLORATION.md), and reports the
    simulated Pareto frontier.  ``--validate`` additionally simulates
    the *entire* space and asserts the guided frontier matches the
    exhaustive one (exit 1 when it does not); ``--history``/``--check``
    track a ``mode="explore"`` series in BENCH_history.json.  Exits 4
    when the simulation budget ran out before the frontier stabilised.
    """
    import json
    import time

    from repro.core.kernel import simulate_many
    from repro.explore import ExploreError, explore, get_space
    from repro.explore.model import ModelReport
    from repro.explore.pareto import frontier_indices
    from repro.explore.space import SpaceError
    from repro.experiments.common import scaled_trace
    from repro.telemetry import MetricsRegistry, tracing
    from repro.telemetry.baseline import BaselineError, PerfHistory, git_sha
    from repro.workloads import trace_cache

    try:
        candidates = get_space(args.space)
    except SpaceError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    trace = scaled_trace(args.workload, args.factor)
    registry = MetricsRegistry()
    tracer = None
    if args.trace:
        tracer = tracing.SpanTracer()
    base_hits, base_misses = trace_cache.snapshot()
    started = time.perf_counter()
    try:
        with tracing.use_tracer(tracer):
            result = explore(
                candidates,
                trace,
                workload=args.workload,
                factor=args.factor,
                budget=args.budget,
                safety=args.safety,
                jobs=args.jobs,
                metrics=registry,
            )
            validation = None
            if args.validate:
                exhaustive = simulate_many(
                    trace, [c.config for c in candidates]
                )
                validation = _explore_validation(
                    result, [r.stats for r in exhaustive], ModelReport,
                    frontier_indices,
                )
    except ExploreError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    wall = time.perf_counter() - started
    hits, misses = trace_cache.snapshot()
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print(f"spans: {args.trace}")
    print(result.render())
    if validation is not None:
        grid = validation["grid_model"]
        registry.gauge("explore.grid_mean_rel_error").set(
            grid["mean_rel_error"]
        )
        verdict = "MATCH" if validation["frontier_match"] else "MISMATCH"
        print()
        print(
            f"validation: exhaustive frontier {verdict} "
            f"(grid model error: mean {grid['mean_rel_error'] * 100:.1f}%, "
            f"max {grid['max_rel_error'] * 100:.1f}%, "
            f"rank correlation {grid['rank_correlation']:.3f})"
        )
        if not validation["frontier_match"]:
            print(
                "  guided:     " + ", ".join(result.frontier_labels()),
            )
            print(
                "  exhaustive: "
                + ", ".join(validation["exhaustive_frontier"]),
            )
    if args.metrics_out:
        registry.write_json(args.metrics_out)
        print(f"metrics: {args.metrics_out}")
    if args.out:
        document = result.to_dict()
        if validation is not None:
            document["validation"] = validation
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"summary: {args.out}")
    status = EXIT_OK
    if args.history:
        record = {
            "git_sha": git_sha(),
            "recorded_at": time.time(),
            "workload": args.workload,
            "factor": args.factor,
            "config": f"space:{args.space}",
            "instructions": result.sim_instructions,
            "sim_cycles": result.sim_cycles,
            "wall_seconds": wall,
            "cycles_per_second": result.sim_cycles / wall if wall > 0 else 0.0,
            "instructions_per_second": (
                result.sim_instructions / wall if wall > 0 else 0.0
            ),
            "cache_hits": max(hits - base_hits, 0),
            "cache_misses": max(misses - base_misses, 0),
            "mode": "explore",
            "configs_considered": result.configs_considered,
            "configs_simulated": result.configs_simulated,
            "model_mean_rel_error": result.model.mean_rel_error,
        }
        history = PerfHistory(args.history)
        try:
            history.append(record)
            if args.seed_baseline:
                history.seed_baseline(record)
        except BaselineError as error:
            print(f"perf history: {error}", file=sys.stderr)
            return EXIT_ERROR
        print(f"perf history: {history.path} (explore-mode record appended)")
        if args.check:
            try:
                check = history.compare(record, threshold=args.threshold)
            except BaselineError as error:
                print(f"perf check: {error}", file=sys.stderr)
                return EXIT_USAGE
            print(f"perf check: {check.render()}")
            if check.regressed:
                status = EXIT_PERF_REGRESSION
    if validation is not None and not validation["frontier_match"]:
        return EXIT_ERROR
    if result.budget_exhausted:
        return EXIT_PARTIAL
    return status


def _explore_validation(result, grid_stats, report_cls, frontier_fn) -> dict:
    """Compare a guided result against exhaustive stats for the space."""
    live = [
        (point, stats)
        for point, stats in zip(result.points, grid_stats)
        if stats.instructions
    ]
    chosen = frontier_fn([(p.cost, s.cpi) for p, s in live])
    exhaustive = sorted(
        (live[i][0] for i in chosen), key=lambda p: p.cost
    )
    grid = report_cls.from_pairs(
        [(p.predicted_cpi, s.cpi) for p, s in live]
    )
    return {
        "exhaustive_frontier": [p.label for p in exhaustive],
        "frontier_match": (
            sorted(p.label for p in exhaustive)
            == sorted(result.frontier_labels())
        ),
        "grid_model": {
            "count": grid.count,
            "mean_rel_error": grid.mean_rel_error,
            "max_rel_error": grid.max_rel_error,
            "rank_correlation": grid.rank_corr,
        },
    }


def cmd_spans(args: argparse.Namespace) -> int:
    """Render a sweep's Chrome span trace as a text tree."""
    from repro.telemetry import SpanError, load_chrome_trace, render_span_tree

    try:
        spans = load_chrome_trace(args.trace)
    except SpanError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    print(f"spans:  {args.trace} ({len(spans)} spans)")
    print()
    print(render_span_tree(spans, min_duration=args.min_ms / 1000.0))
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Profile the simulator on one workload; track/check perf history."""
    from repro.telemetry.baseline import BaselineError, PerfHistory, record_now
    from repro.telemetry.profiling import profile_workload

    config = _configure(args)
    report = profile_workload(
        args.workload,
        config,
        factor=args.factor,
        sample=not args.no_sample,
        use_cprofile=args.cprofile,
        top=args.top,
    )
    print(report.render())
    history = PerfHistory(args.history)
    record = record_now(report)
    try:
        history.append(record)
        if args.seed_baseline:
            history.seed_baseline(record)
    except BaselineError as error:
        print(f"perf history: {error}", file=sys.stderr)
        return EXIT_ERROR
    print()
    print(
        f"perf history: {history.path} "
        f"({len(history.records())} records"
        + (", baseline seeded from this run)" if args.seed_baseline else ")")
    )
    if not args.check:
        return EXIT_OK
    try:
        check = history.compare(record, threshold=args.threshold)
    except BaselineError as error:
        print(f"perf check: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(f"perf check: {check.render()}")
    return EXIT_PERF_REGRESSION if check.regressed else EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived design-space query service (docs/SERVING.md).

    Exits 0 when stopped programmatically, 5 after a graceful
    SIGINT/SIGTERM drain (the PR 6 contract, shared with 'experiments'
    through robustness/signals.py); a second signal aborts hard through
    the generic KeyboardInterrupt path below.
    """
    from repro.serve.server import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        store_root=args.store,
        trace_out=args.trace,
        sample_interval=args.sample_interval,
        ring_capacity=args.ring_capacity,
        ring_out=args.ring_out,
    )
    return serve_forever(config)


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a live serve endpoint and report p50/p99/throughput.

    With ``--slo``, the declared objectives are evaluated over the
    run's own time-series samples; any violation exits 6
    (``EXIT_SLO_VIOLATION``) so CI can gate on service health.
    """
    from repro.serve.loadgen import (
        LoadError,
        load_queries,
        run_load,
        synthetic_queries,
        write_queries,
    )
    from repro.telemetry.baseline import BaselineError, PerfHistory, git_sha
    from repro.telemetry.slo import SLOError, parse_slo

    try:
        slos = [parse_slo(spec) for spec in args.slo or []]
    except SLOError as error:
        print(f"error: --slo: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.queries:
            queries = load_queries(args.queries)
        else:
            queries = synthetic_queries(
                seed=args.seed,
                factor=args.factor,
                count=args.count,
            )
        if args.record:
            path = write_queries(args.record, queries)
            print(f"recorded {len(queries)} queries -> {path}")
            if not args.url:
                return EXIT_OK
        if not args.url:
            raise LoadError("--url is required to drive a server")
        report = run_load(
            args.url,
            queries,
            concurrency=args.concurrency,
            requests=args.requests,
            duration=args.duration,
            slos=slos,
            sample_interval=args.sample_interval,
        )
    except LoadError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(f"target:   {args.url}")
    print(f"queries:  {len(queries)} ({'recorded' if args.queries else 'synthetic'})")
    print(f"workers:  {args.concurrency}")
    print(report.render())
    if args.history:
        import time as _time

        record = report.as_perf_record(
            git_sha=git_sha(),
            recorded_at=_time.time(),
            workload=args.series_workload,
            factor=args.factor,
        )
        history = PerfHistory(args.history)
        try:
            history.append(record)
        except BaselineError as error:
            print(f"perf history: {error}", file=sys.stderr)
            return EXIT_ERROR
        print(f"perf history: {history.path} (serve-mode record appended)")
    if report.slo_violated:
        return EXIT_SLO_VIOLATION
    return EXIT_ERROR if report.errors else EXIT_OK


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running server's /metrics."""
    from repro.serve.top import TopError, run_top

    try:
        return run_top(
            args.url,
            interval=args.interval,
            iterations=args.iterations,
            clear=False if args.no_clear else None,
        )
    except TopError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        return EXIT_OK  # ^C is how a dashboard session normally ends


def cmd_cost(args: argparse.Namespace) -> int:
    config = _configure(args)
    print(ipu_cost(config).render(f"IPU cost: {config.label}"))
    print()
    print(fpu_cost(config.fpu).render("FPU cost"))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    for spec in all_specs():
        print(
            f"{spec.name:<10} [{spec.suite}] scale={spec.default_scale:<6} "
            f"{spec.description}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aurora-sim", description=__doc__)
    parser.add_argument("--log-file", default=None, metavar="PATH",
                        help="structured JSON-lines log destination "
                             "(a path, or 'stderr'/'-'); overrides "
                             "REPRO_LOG")
    parser.add_argument("--log-level", choices=structlog.LEVELS,
                        default=None,
                        help="structured log level (default INFO; "
                             "overrides REPRO_LOG_LEVEL)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("workload")
    p_run.add_argument("--scale", type=int, default=None)
    _add_machine_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="simulate a whole suite")
    p_suite.add_argument("--suite", choices=("int", "fp"), default="int")
    _add_machine_args(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_exp = sub.add_parser("experiments", help="regenerate paper experiments")
    p_exp.add_argument("--factor", type=positive_float, default=1.0)
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--only", nargs="*", default=None)
    p_exp.add_argument("--timeout", type=float, default=None,
                       help="per-experiment wall-clock budget (seconds)")
    p_exp.add_argument("--retries", type=nonneg_int, default=2,
                       help="retries for transient failures")
    p_exp.add_argument("--jobs", type=positive_int, default=1,
                       help="worker processes for parallel execution")
    p_exp.add_argument("--no-trace-cache", action="store_true",
                       help="disable the persistent on-disk trace cache")
    p_exp.add_argument("--no-resume", action="store_true",
                       help="ignore the checkpoint manifest")
    p_exp.add_argument("--manifest", default=None,
                       help="checkpoint manifest path")
    p_exp.add_argument("--trace", default=None, metavar="PATH",
                       help="record host-side spans and export Chrome "
                            "trace-event JSON here (see 'spans')")
    p_exp.add_argument("--chaos", default=None, metavar="SPEC",
                       help="chaos plan: comma-separated "
                            "kind[:target[:count[:seconds]]] tokens "
                            "(see docs/ROBUSTNESS.md)")
    p_exp.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for deterministic chaos injections")
    p_exp.set_defaults(func=cmd_experiments)

    p_trace = sub.add_parser(
        "trace", help="simulate a workload with event telemetry on"
    )
    p_trace.add_argument("workload")
    p_trace.add_argument("--factor", type=positive_float, default=1.0,
                         help="workload scale factor (as in 'experiments')")
    p_trace.add_argument("--out", default=None,
                         help="NDJSON output path "
                              "(default <workload>-trace.ndjson)")
    p_trace.add_argument("--metrics-out", default=None,
                         help="sim.* metrics JSON path "
                              "(default <workload>-metrics.json)")
    p_trace.add_argument("--window", type=positive_int, default=1000,
                         help="CPI phase-summary window (cycles)")
    _add_machine_args(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_report = sub.add_parser(
        "report", help="summarise a captured NDJSON event trace"
    )
    p_report.add_argument("trace")
    p_report.add_argument("--window", type=positive_int, default=1000,
                          help="CPI phase-summary window (cycles)")
    p_report.add_argument("--occupancy-out", default=None, metavar="PATH",
                          dest="occupancy_out",
                          help="write per-structure occupancy summaries "
                               "(mean/p50/p90/p99/max + histogram) as "
                               "stable JSON — the explorer's calibration "
                               "inputs, inspectable offline")
    p_report.set_defaults(func=cmd_report)

    p_explore = sub.add_parser(
        "explore", help="model-guided Pareto exploration of a config space"
    )
    p_explore.add_argument("workload", nargs="?", default="espresso")
    p_explore.add_argument("--space", default="fig8",
                           help="candidate space to explore "
                                "(fig8 = the paper's 58-config grid; "
                                "fig8-L17 = its 17-cycle half)")
    p_explore.add_argument("--factor", type=positive_float, default=1.0,
                           help="workload scale factor (as in "
                                "'experiments')")
    p_explore.add_argument("--budget", type=positive_float, default=0.5,
                           help="max fraction of the space to simulate, "
                                "calibration runs included (exit 4 when "
                                "exhausted before the frontier settles)")
    p_explore.add_argument("--safety", type=positive_float, default=1.5,
                           help="uncertainty-margin multiplier on the "
                                "worst observed model residual")
    p_explore.add_argument("--jobs", type=positive_int, default=1,
                           help="process-pool workers for each "
                                "refinement round's band")
    p_explore.add_argument("--validate", action="store_true",
                           help="also simulate the whole space; report "
                                "full-grid model error and exit 1 "
                                "unless the guided frontier matches "
                                "the exhaustive one exactly")
    p_explore.add_argument("--out", default=None, metavar="PATH",
                           help="write the exploration summary "
                                "(points, frontier, model error) as JSON")
    p_explore.add_argument("--metrics-out", default=None, metavar="PATH",
                           dest="metrics_out",
                           help="write explore.* metrics JSON")
    p_explore.add_argument("--trace", default=None, metavar="PATH",
                           help="export calibration/round spans as "
                                "Chrome trace-event JSON (see 'spans')")
    p_explore.add_argument("--history", default=None, metavar="PATH",
                           help="append a mode=\"explore\" record to "
                                "this BENCH_history.json")
    p_explore.add_argument("--seed-baseline", action="store_true",
                           help="promote this run to the stored baseline")
    p_explore.add_argument("--check", action="store_true",
                           help="compare throughput against the stored "
                                "baseline; exit 3 on regression")
    p_explore.add_argument("--threshold", type=float, default=0.20,
                           help="regression threshold as a fraction")
    p_explore.set_defaults(func=cmd_explore)

    p_spans = sub.add_parser(
        "spans", help="render a sweep span trace as a text tree"
    )
    p_spans.add_argument("trace", help="Chrome trace-event JSON "
                                       "(from 'experiments --trace')")
    p_spans.add_argument("--min-ms", type=float, default=0.0,
                         help="fold spans shorter than this many ms")
    p_spans.set_defaults(func=cmd_spans)

    p_perf = sub.add_parser(
        "perf", help="profile simulator throughput; track perf history"
    )
    p_perf.add_argument("workload")
    p_perf.add_argument("--factor", type=positive_float, default=1.0,
                        help="workload scale factor (as in 'experiments')")
    p_perf.add_argument("--history", default="BENCH_history.json",
                        help="perf-history JSON path")
    p_perf.add_argument("--no-sample", action="store_true",
                        help="skip the sampling phase profiler")
    p_perf.add_argument("--cprofile", action="store_true",
                        help="also run cProfile (exact but ~2x slower)")
    p_perf.add_argument("--top", type=positive_int, default=15,
                        help="cProfile rows to show")
    p_perf.add_argument("--seed-baseline", action="store_true",
                        help="promote this run to the stored baseline")
    p_perf.add_argument("--check", action="store_true",
                        help="compare against the baseline; exit 3 on "
                             "regression, 2 when no baseline is stored")
    p_perf.add_argument("--threshold", type=float, default=0.20,
                        help="regression threshold as a fraction "
                             "(0.20 = fail when >20%% slower)")
    _add_machine_args(p_perf)
    p_perf.set_defaults(func=cmd_perf)

    p_serve = sub.add_parser(
        "serve", help="coalescing design-space query service (long-lived)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8311,
                         help="listen port (0 = ephemeral; the bound "
                              "port is announced on stdout)")
    p_serve.add_argument("--jobs", type=positive_int, default=1,
                         help="simulation slots (1 = in-process "
                              "thread, >1 = process pool over the "
                              "shared trace cache); a miss dispatches "
                              "as soon as a slot is free")
    p_serve.add_argument("--store", default="results/.sim_memo",
                         help="persistent SimStats memo-store root")
    p_serve.add_argument("--trace", default=None, metavar="PATH",
                         help="export request spans as Chrome trace-"
                              "event JSON on shutdown (see 'spans')")
    p_serve.add_argument("--sample-interval", type=float, default=1.0,
                         dest="sample_interval",
                         help="metrics time-series sampling interval "
                              "in seconds (0 disables sampling and "
                              "the /timeseries route)")
    p_serve.add_argument("--ring-capacity", type=positive_int,
                         default=2048, dest="ring_capacity",
                         help="time-series ring capacity (samples)")
    p_serve.add_argument("--ring-out", default=None, metavar="PATH",
                         dest="ring_out",
                         help="persist time-series samples to this "
                              "JSONL file (reloaded on restart)")
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen", help="drive a live serve endpoint; report p50/p99"
    )
    p_load.add_argument("--url", default=None,
                        help="serve endpoint, e.g. http://127.0.0.1:8311")
    p_load.add_argument("--queries", default=None, metavar="PATH",
                        help="recorded query file (JSON lines); "
                             "default: seeded synthetic queries over "
                             "the Figure 8 grid")
    p_load.add_argument("--record", default=None, metavar="PATH",
                        help="write the query stream to PATH (replayable "
                             "with --queries); without --url, record "
                             "only and exit")
    p_load.add_argument("--concurrency", type=positive_int, default=4,
                        help="closed-loop client threads")
    p_load.add_argument("--requests", type=positive_int, default=None,
                        help="total requests to issue (default: one "
                             "pass over the query list)")
    p_load.add_argument("--duration", type=positive_float, default=None,
                        help="run for this many seconds instead of a "
                             "fixed request count")
    p_load.add_argument("--seed", type=nonneg_int, default=0,
                        help="synthetic-generator seed")
    p_load.add_argument("--count", type=positive_int, default=64,
                        help="synthetic queries to generate")
    p_load.add_argument("--factor", type=positive_float, default=0.05,
                        help="workload scale factor for synthetic queries")
    p_load.add_argument("--history", default=None, metavar="PATH",
                        help="append a serve-mode record to this "
                             "BENCH_history.json")
    p_load.add_argument("--series-workload", default="mixed",
                        help="workload label for the history record")
    p_load.add_argument("--slo", action="append", default=None,
                        metavar="KIND:VALUE",
                        help="declare an objective to evaluate after "
                             "the run: p99:SECONDS, error-rate:FRAC, "
                             "or availability:FRAC (repeatable; any "
                             "violation exits 6)")
    p_load.add_argument("--sample-interval", type=positive_float,
                        default=0.25, dest="sample_interval",
                        help="loadgen-side time-series sampling "
                             "interval for --slo evaluation (seconds)")
    p_load.set_defaults(func=cmd_loadgen)

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a serve endpoint"
    )
    p_top.add_argument("--url", required=True,
                       help="serve endpoint, e.g. http://127.0.0.1:8311")
    p_top.add_argument("--interval", type=positive_float, default=2.0,
                       help="refresh interval in seconds")
    p_top.add_argument("--iterations", type=positive_int, default=None,
                       help="render this many frames then exit "
                            "(default: run until ^C)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="never emit the ANSI clear between frames "
                            "(frames append; good for piping)")
    p_top.set_defaults(func=cmd_top)

    p_cost = sub.add_parser("cost", help="RBE cost of a configuration")
    _add_machine_args(p_cost)
    p_cost.set_defaults(func=cmd_cost)

    p_list = sub.add_parser("list", help="list registered workloads")
    p_list.set_defaults(func=cmd_list)

    args = parser.parse_args(argv)
    try:
        validate_environment()
    except EnvValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.log_file is not None:
            structlog.configure(args.log_file, args.log_level or "INFO")
        elif args.log_level is not None and os.environ.get(structlog.ENV_LOG):
            structlog.configure(os.environ[structlog.ENV_LOG], args.log_level)
        else:
            structlog.configure_from_env()
    except structlog.LogConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except WorkloadError as error:
        # KeyError.__str__ wraps the message in quotes; unwrap it.
        print(f"error: {error.args[0]}", file=sys.stderr)
        print("valid kernels:", file=sys.stderr)
        for spec in all_specs():
            print(f"  {spec.name:<10} [{spec.suite}]", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        # A second SIGINT aborts hard, past the runner's graceful path.
        print("aborted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed stdout: not a bug
        # in the sweep.  Point the interpreter's shutdown flush at
        # devnull so it cannot traceback, and report the conventional
        # 128+SIGPIPE status a signal-killed process would have.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    finally:
        # Back to zero-overhead-off: close the log file so embedding
        # callers (tests drive main() in-process) stay hermetic.
        structlog.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
