"""Per-layer attribution of a traced benchmark run (``run.py --trace 1``).

The spans come from the program's own probe sites (``trace_build``,
``cache_lookup``, ``cache_store``, ``trace_prepare``, ``simulate_batch``,
``simulate``, ``sweep``/``experiment:*``/``attempt#*``/``checkpoint``,
``explore*`` and the serve request spans) plus three the benchmark puts
around public calls: ``validate_trace``, ``trace_rows`` and
``grid_exhaustive``.

Every layer ``*_s`` metric is a *self* time: its spans' durations minus
what their child spans cover.  The layers therefore partition the
traced wall time, and ``layers.unattributed_frac`` is the share no layer
span claims.  The exceptions are phase totals, named as such in
bench/README.md: ``experiments.<id>_s``, ``grid.exhaustive_s``,
``ingest.*`` and the ``serve.*`` times.  Seconds and counts are per
round (per 100 requests for serve-mixed); ratios and rates are not.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

#: Span name -> the per-layer metric its self time belongs to.
_SELF_TIME = {
    "trace_build": "func.build_s",
    "cache_store": "trace_cache.store_s",
    "cache_lookup": "trace_cache.lookup_s",
    "trace_prepare": "prepared.prepare_s",
    "trace_rows": "prepared.rows_s",
    "validate_trace": "validation.validate_s",
    "simulate_batch": "kernel.simulate_s",
    "simulate": "processor.telemetry_run_s",
    "sweep": "runner.overhead_s",
    "checkpoint": "runner.checkpoint_s",
    "explore": "explore.score_s",
    "explore_calibrate": "explore.calibrate_s",
    "explore_round": "explore.round_s",
}

#: Self-time metric prefix -> the repo module the layer is.
MODULES = {
    "func": "func.machine",
    "trace_cache": "workloads.trace_cache",
    "prepared": "func.prepared",
    "validation": "robustness.validation",
    "kernel": "core.kernel",
    "processor": "core.processor",
    "experiments": "experiments",
    "runner": "robustness.runner",
    "explore": "explore",
}


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile, as ``repro.serve.server.percentile``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def layer_of(span) -> str | None:
    """The self-time metric a span belongs to (None: the benchmark's own)."""
    if span.name.startswith("attempt#"):
        return "experiments.self_s"
    if span.name.startswith("experiment:"):
        return "runner.overhead_s"
    if span.name == "simulate_batch" and span.category != "simulate":
        return None  # the serve batcher's dispatch span, see serve_attribute
    return _SELF_TIME.get(span.name)


def _kernel_metrics(spans, metrics: dict, rounds: float) -> None:
    batches = [
        s for s in spans
        if s.name == "simulate_batch" and s.category == "simulate"
    ]
    configs = sum(int(s.args.get("configs", 0)) for s in batches)
    busy = sum(s.duration for s in batches)
    work = sum(
        int(s.args.get("records", 0)) * int(s.args.get("configs", 0))
        for s in batches
    )
    metrics["kernel.calls"] = len(batches) / rounds
    metrics["kernel.configs"] = configs / rounds
    metrics["kernel.mean_width"] = configs / len(batches) if batches else 0.0
    metrics["kernel.record_configs_per_s"] = work / busy if busy else 0.0
    metrics["kernel.batched_calls"] = (
        sum(1 for s in batches if s.args.get("kernel") == "batched") / rounds
    )
    for name, low, high in (("w1", 1, 1), ("w2_8", 2, 8), ("w9_plus", 9, None)):
        metrics[f"kernel.simulate_s.{name}"] = sum(
            s.duration for s in batches
            if int(s.args.get("configs", 0)) >= low
            and (high is None or int(s.args.get("configs", 0)) <= high)
        ) / rounds


def _trace_metrics(spans, metrics: dict, rounds: float) -> None:
    lookups = [s for s in spans if s.name == "cache_lookup"]
    hits = sum(1 for s in lookups if s.args.get("hit"))
    metrics["trace_cache.hits"] = hits / rounds
    metrics["trace_cache.misses"] = (len(lookups) - hits) / rounds
    # Every registry memo miss goes to the disk tier exactly once.
    metrics["registry.memo_misses"] = len(lookups) / rounds
    metrics["prepared.prepares"] = (
        sum(1 for s in spans if s.name == "trace_prepare") / rounds
    )


def _module_table(self_by_metric: dict, count_by_metric: dict, wall: float) -> dict:
    table: dict[str, dict] = {}
    for metric, seconds in self_by_metric.items():
        module = MODULES[metric.split(".")[0]]
        entry = table.setdefault(module, {"count": 0, "self_s": 0.0, "share": 0.0})
        entry["count"] += count_by_metric[metric]
        entry["self_s"] += seconds
        entry["share"] = entry["self_s"] / wall if wall else 0.0
    return table


def attribute(rounds, *, untraced_walls: list[float]) -> dict:
    """Per-layer report over traced worker rounds (``workloads.Round``)."""
    spans = [span for r in rounds for span in r.spans]
    n = len(rounds)
    wall = sum(r.wall for r in rounds)
    self_by_metric: dict[str, float] = defaultdict(float)
    count_by_metric: dict[str, int] = defaultdict(int)
    for r in rounds:  # span ids are unique only within one round's tracer
        children: dict[str, float] = defaultdict(float)
        for span in r.spans:
            if span.parent_id:
                children[span.parent_id] += span.duration
        for span in r.spans:
            metric = layer_of(span)
            if metric is not None:
                self_by_metric[metric] += span.duration - children[span.span_id]
                count_by_metric[metric] += 1
    metrics = {name: seconds / n for name, seconds in self_by_metric.items()}
    metrics["processor.telemetry_runs"] = (
        count_by_metric["processor.telemetry_run_s"] / n
    )
    metrics["runner.attempts"] = count_by_metric["experiments.self_s"] / n
    _kernel_metrics(spans, metrics, n)
    _trace_metrics(spans, metrics, n)
    for span in spans:
        if span.name.startswith("experiment:"):
            key = f"experiments.{span.name.split(':', 1)[1]}_s"
            metrics[key] = metrics.get(key, 0.0) + span.duration / n
        elif span.name == "grid_exhaustive":
            metrics["grid.exhaustive_s"] = (
                metrics.get("grid.exhaustive_s", 0.0) + span.duration / n
            )
    for name in rounds[0].counters:
        metrics[name] = sum(r.counters[name] for r in rounds) / n
    for name in rounds[0].extra:
        metrics[name] = median(r.extra[name] for r in rounds)
    built = metrics.pop("records_built", 0.0)
    build_s = metrics.get("func.build_s", 0.0)
    metrics["func.records_per_s"] = built / build_s if build_s else 0.0
    metrics["layers.unattributed_frac"] = (
        1.0 - sum(self_by_metric.values()) / wall if wall else 0.0
    )
    metrics["tracing.overhead_frac"] = (
        median(r.wall for r in rounds) / median(untraced_walls) - 1.0
    )
    return {
        "rounds": n,
        "wall_s": wall,
        "layers": _module_table(self_by_metric, count_by_metric, wall),
        "unattributed_frac": metrics["layers.unattributed_frac"],
        "tracing_overhead_frac": metrics["tracing.overhead_frac"],
        "metrics": metrics,
    }


def serve_attribute(
    spans, responses: list[dict], *, rounds: float, untraced_walls, traced_walls
) -> dict:
    """Per-layer report for serve-mixed from the server's spans.

    ``spans`` are the server's spans after the ``/healthz`` marker the
    load generator sends just before the timed requests; ``responses``
    are the client's records of those requests.  Requests on two
    connections interleave on the server's event loop, so span
    parentage is not reliable there: serve layers are sums over span
    names, and the self-time partition is replaced by the share of
    client-observed latency that no server ``request`` span covers.
    """
    markers = [
        s for s in spans
        if s.name == "request" and s.args.get("path") == "/healthz"
    ]
    since = max((s.end for s in markers), default=0.0)
    spans = [s for s in spans if s.start >= since]

    def total(name: str, category: str | None = "serve") -> float:
        return sum(
            s.duration for s in spans
            if s.name == name and (category is None or s.category == category)
        )

    queries = [
        s for s in spans
        if s.name == "request" and s.args.get("path") == "/query"
    ]
    dispatches = [
        s for s in spans
        if s.name == "simulate_batch" and s.category == "serve"
    ]
    hits = [r["latency_ms"] for r in responses if r.get("memo")]
    misses = [r["latency_ms"] for r in responses if r["ok"] and not r.get("memo")]
    request_s = sum(s.duration for s in queries)
    metrics = {
        "serve.memo_hit_rate": len(hits) / len(responses) if responses else 0.0,
        "serve.hit_p50_ms": percentile(hits, 0.50),
        "serve.miss_p50_ms": percentile(misses, 0.50),
        "serve.miss_p99_ms": percentile(misses, 0.99),
        "serve.mean_batch_width": (
            sum(int(s.args.get("width", 0)) for s in dispatches) / len(dispatches)
            if dispatches else 0.0
        ),
        "serve.coalesced": sum(1 for r in responses if r.get("coalesced")) / rounds,
        "serve.dispatches": len(dispatches) / rounds,
        "serve.validate_s": total("validate") / rounds,
        "serve.batch_wait_s": total("batch_wait") / rounds,
        "serve.simulate_s": total("simulate_batch") / rounds,
        "serve.store_s": total("store") / rounds,
        "serve.request_self_s": (
            request_s - total("validate") - total("batch_wait")
        ) / rounds,
        "trace_cache.lookup_s": total("cache_lookup", "trace") / rounds,
        "prepared.prepare_s": total("trace_prepare", "trace") / rounds,
        "kernel.simulate_s": total("simulate_batch", "simulate") / rounds,
    }
    _kernel_metrics(spans, metrics, rounds)
    _trace_metrics(spans, metrics, rounds)
    client_s = sum(r["latency_ms"] for r in responses) / 1e3
    metrics["layers.unattributed_frac"] = (
        1.0 - request_s / client_s if client_s else 0.0
    )
    metrics["tracing.overhead_frac"] = (
        median(traced_walls) / median(untraced_walls) - 1.0
    )
    return {
        "rounds": rounds,
        "client_latency_s": client_s,
        "server_request_s": request_s,
        "unattributed_frac": metrics["layers.unattributed_frac"],
        "tracing_overhead_frac": metrics["tracing.overhead_frac"],
        "metrics": metrics,
    }
