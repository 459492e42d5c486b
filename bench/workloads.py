"""The worker side of the benchmark: paper-sweep, design-grid, trace-ingest.

``run.py`` starts this file as a subprocess per workload run, with a
controlled environment (see ``procs.bench_env``), so memos never leak
between workloads and peak RSS is the workload's own::

    python bench/workloads.py run <workload> --seed N --seconds S \\
        --trace 0|1 --out DIR --result FILE [--setup-only]

The process prints ``ready`` on its original stdout once set-up is done
(the parent times set-up up to that line), then measures whole rounds of
the workload's fixed work until ``--seconds`` have passed, at least one
round, and writes the rounds to ``--result`` as JSON.  With ``--trace 1``
it measures the rounds twice, untraced then traced, and adds the
per-layer attribution of the traced rounds.  Every round starts with a
cold in-process trace memo and checks its outputs against
``golden.json`` outside the timed region.

Two helper verbs serve the ``serve-mixed`` workload, whose load
generator is the parent process: ``fill`` builds the serve traces into
the trace cache named by the environment, and ``check`` re-simulates a
sample of served answers and counts mismatches.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import random
import shutil
import sys
import time
from dataclasses import dataclass, field

import golden
import layers

#: Workload scale factor of every simulating workload.  Every workload
#: is at its minimum scale at factor 0.05, so a smaller factor would not
#: shorten the sweep (measured: 0.01 and 0.05 both take ~29 s on a
#: 2-vCPU host).
FACTOR = 0.05
#: trace-ingest uses full-size traces: functional build, store and
#: reload are what it measures.
INGEST_FACTOR = 1.0
#: Cache-line shift of the paper's 32-byte lines (``PreparedTrace.rows``).
LINE_SHIFT = 5
#: design-grid's integer traces.  compress and gcc, the longest traces,
#: are left out so that a round takes ~16 s instead of ~31 s on a 2-vCPU
#: host and a full benchmark set fits its time budget.  li stays: the
#: explorer exhausts its budget there.
GRID_WORKLOADS = ("espresso", "li", "eqntott", "sc")


@dataclass
class Round:
    """One measured round of a workload's fixed work."""

    #: Wall seconds of the timed operations (checks excluded).
    wall: float
    attempted: int
    failed: int
    #: Per-layer values this round measured directly (not from spans).
    extra: dict = field(default_factory=dict)
    #: Process-wide counter deltas over the round's timed operations.
    counters: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    spans: list | None = None


def all_workload_names() -> tuple[str, ...]:
    from repro.workloads.registry import FP_SUITE, INTEGER_SUITE

    return INTEGER_SUITE + FP_SUITE


def _counters() -> dict[str, int]:
    """Process-wide counters the traced run reports as per-layer metrics."""
    from repro.robustness.validation import validation_snapshot
    from repro.workloads import registry, trace_cache

    memo_hits, memo_misses, _evictions = registry.memo_snapshot()
    passes, validation_hits = validation_snapshot()
    _degraded, checksum_failures = trace_cache.health_snapshot()
    return {
        "registry.memo_hits": memo_hits,
        "registry.memo_misses": memo_misses,
        "validation.passes": passes,
        "validation.memo_hits": validation_hits,
        "trace_cache.checksum_failures": checksum_failures,
    }


def _delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


def _new_tracer(traced: bool):
    from repro.telemetry.tracing import SpanTracer

    return SpanTracer() if traced else None


def _report_failure(workload: str, what: str, error: BaseException) -> None:
    print(
        f"bench: {workload}: {what} failed: {type(error).__name__}: {error}",
        file=sys.stderr,
    )


class PaperSweep:
    """All 12 paper experiments, as ``run_all --factor 0.05 --no-resume``."""

    name = "paper-sweep"

    def __init__(self, seed: int, out: pathlib.Path, only=None) -> None:
        # The sweep has no generated inputs, so the seed changes nothing.
        self.out = out
        self.only = only
        self.expected = golden.load()

    def setup(self) -> None:
        import importlib

        from repro.experiments.common import scaled_trace
        from repro.experiments.run_all import EXPERIMENTS

        for experiment in EXPERIMENTS.values():
            importlib.import_module(f"repro.experiments.{experiment.module}")
        for name in all_workload_names():
            scaled_trace(name, FACTOR)

    def run_round(self, traced: bool) -> Round:
        from repro.experiments.run_all import run_resilient
        from repro.telemetry.tracing import load_chrome_trace
        from repro.workloads.registry import clear_trace_cache

        clear_trace_cache()
        spans_path = self.out / "spans.json"
        before = _counters()
        started = time.perf_counter()
        results, report = run_resilient(
            factor=FACTOR,
            out_dir=str(self.out / "sweep"),
            only=self.only,
            stream=io.StringIO(),
            resume=False,
            jobs=1,
            trace_out=str(spans_path) if traced else None,
        )
        wall = time.perf_counter() - started
        counters = _delta(before, _counters())
        digests = {}
        failed = 0
        for outcome in report.outcomes:
            key = f"{self.name}/{outcome.exp_id}"
            if outcome.status == "ok":
                digests[key] = golden.digest_text(
                    results[outcome.exp_id].render()
                )
            if outcome.status != "ok" or digests[key] != self.expected.get(key):
                print(
                    f"bench: {key}: status {outcome.status}, report digest "
                    "does not match golden.json",
                    file=sys.stderr,
                )
                failed += 1
        return Round(
            wall=wall,
            attempted=len(report.outcomes),
            failed=failed,
            counters=counters,
            digests=digests,
            spans=load_chrome_trace(spans_path) if traced else None,
        )


class DesignGrid:
    """``aurora-sim explore --validate`` over the Figure 8 grid, per workload."""

    name = "design-grid"

    def __init__(self, seed: int, out: pathlib.Path, workloads=None) -> None:
        self.out = out
        self.workloads = list(workloads or GRID_WORKLOADS)
        random.Random(seed).shuffle(self.workloads)
        self.expected = golden.load()
        self.candidates = []

    def setup(self) -> None:
        from repro.experiments.common import scaled_trace
        from repro.explore import get_space

        self.candidates = get_space("fig8")
        for name in self.workloads:
            scaled_trace(name, FACTOR)

    def run_round(self, traced: bool) -> Round:
        from repro.core.kernel import simulate_many
        from repro.experiments.common import scaled_trace
        from repro.explore import explore
        from repro.explore.pareto import frontier_indices
        from repro.telemetry import tracing
        from repro.workloads.registry import clear_trace_cache

        clear_trace_cache()
        tracer = _new_tracer(traced)
        configs = [candidate.config for candidate in self.candidates]
        digests = {}
        wall = 0.0
        failed = 0
        recall_hits = recall_total = simulated = considered = explore_rounds = 0
        mean_errors, max_errors = [], []
        before = _counters()
        for name in self.workloads:
            started = time.perf_counter()
            try:
                with tracing.use_tracer(tracer):
                    trace = scaled_trace(name, FACTOR)
                    result = explore(
                        self.candidates, trace, workload=name, factor=FACTOR
                    )
                    with tracing.span("grid_exhaustive", "bench", workload=name):
                        exhaustive = simulate_many(trace, configs)
            except Exception as error:  # noqa: BLE001 - a failed op, reported
                _report_failure(self.name, f"{name} explore/exhaustive", error)
                failed += 1
                continue
            finally:
                wall += time.perf_counter() - started
            grid = [run.stats for run in exhaustive]
            live = [
                (point, stats)
                for point, stats in zip(result.points, grid)
                if stats.instructions
            ]
            chosen = frontier_indices([(p.cost, s.cpi) for p, s in live])
            truth = {live[index][0].label for index in chosen}
            recall_hits += len(truth & set(result.frontier_labels()))
            recall_total += len(truth)
            simulated += result.configs_simulated
            considered += result.configs_considered
            explore_rounds += result.rounds
            mean_errors.append(result.model.mean_rel_error)
            max_errors.append(result.model.max_rel_error)
            mismatched = False
            for part, digest in (
                ("grid", golden.digest_json([stats.to_dict() for stats in grid])),
                ("frontier", golden.digest_json(result.frontier_labels())),
            ):
                key = f"{self.name}/{name}/{part}"
                digests[key] = digest
                if digest != self.expected.get(key):
                    print(f"bench: {key}: digest does not match golden.json",
                          file=sys.stderr)
                    mismatched = True
            failed += mismatched
        counters = _delta(before, _counters())
        extra = {
            "explore.rounds": explore_rounds,
            "explore.frontier_recall": (
                recall_hits / recall_total if recall_total else 0.0
            ),
            "explore.sim_frac": simulated / considered if considered else 0.0,
            "explore.model_mean_rel_error": (
                sum(mean_errors) / len(mean_errors) if mean_errors else 0.0
            ),
            "explore.model_max_rel_error": max(max_errors, default=0.0),
        }
        if tracer is not None:
            tracer.write_chrome(self.out / "spans.json")
        return Round(
            wall=wall,
            attempted=len(self.workloads),
            failed=failed,
            extra=extra,
            counters=counters,
            digests=digests,
            spans=tracer.spans() if tracer is not None else None,
        )


class TraceIngest:
    """Cold build then warm reload of the full-size traces, in a fresh cache."""

    name = "trace-ingest"

    def __init__(self, seed: int, out: pathlib.Path, workloads=None) -> None:
        self.out = out
        self.workloads = list(workloads or all_workload_names())
        random.Random(seed).shuffle(self.workloads)
        self.expected = golden.load()

    def setup(self) -> None:
        import repro.experiments.common  # noqa: F401 - import cost is set-up
        import repro.robustness.validation  # noqa: F401

    def run_round(self, traced: bool) -> Round:
        tracer = _new_tracer(traced)
        root = self.out / "ingest-cache"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        cold = self._phase(root, tracer, warm=False)
        warm = self._phase(root, tracer, warm=True)
        shutil.rmtree(root, ignore_errors=True)
        if tracer is not None:
            tracer.write_chrome(self.out / "spans.json")
        counters = {
            name: cold["counters"][name] + warm["counters"][name]
            for name in cold["counters"]
        }
        return Round(
            wall=cold["wall"] + warm["wall"],
            attempted=2 * len(self.workloads),
            failed=cold["failed"] + warm["failed"],
            extra={
                "ingest.cold_s": cold["wall"],
                "ingest.warm_s": warm["wall"],
                "records_built": cold["records"],
            },
            counters=counters,
            digests=cold["digests"],
            spans=tracer.spans() if tracer is not None else None,
        )

    def _phase(self, root: pathlib.Path, tracer, *, warm: bool) -> dict:
        from repro.experiments.common import scaled_trace
        from repro.robustness.validation import validate_trace
        from repro.telemetry import tracing
        from repro.workloads import trace_cache
        from repro.workloads.registry import clear_trace_cache

        # A fresh cache object: the warm phase re-verifies every CRC
        # sidecar instead of trusting this process's verified-path memo.
        cache = trace_cache.configure(root)
        clear_trace_cache()
        before = _counters()
        digests = {}
        wall = 0.0
        failed = records = 0
        for name in self.workloads:
            hits, misses = cache.snapshot()
            started = time.perf_counter()
            try:
                with tracing.use_tracer(tracer):
                    trace = scaled_trace(name, INGEST_FACTOR)
                    with tracing.span("validate_trace", "bench", workload=name):
                        validate_trace(trace)
                    if warm:
                        # rows() materializes the hot-loop lists eagerly;
                        # only the zip it returns is lazy.
                        with tracing.span("trace_rows", "bench", workload=name):
                            trace.rows(LINE_SHIFT)
            except Exception as error:  # noqa: BLE001 - a failed op, reported
                _report_failure(self.name, f"{name} acquisition", error)
                failed += 1
                clear_trace_cache()
                continue
            finally:
                wall += time.perf_counter() - started
            key = f"{self.name}/{name}"
            digests[key] = golden.digest_array(trace.array)
            missed = warm and cache.snapshot() != (hits + 1, misses)
            if missed or digests[key] != self.expected.get(key):
                print(
                    f"bench: {key}: "
                    + ("warm load missed the cache" if missed
                       else "trace digest does not match golden.json"),
                    file=sys.stderr,
                )
                failed += 1
            records += len(trace)
            # Free each trace (and its hot-loop lists) before the next:
            # peak memory stays one trace, not fifteen.
            del trace
            clear_trace_cache()
        return {
            "wall": wall,
            "failed": failed,
            "records": records,
            "digests": digests,
            "counters": _delta(before, _counters()),
        }


WORKLOADS = {
    workload.name: workload for workload in (PaperSweep, DesignGrid, TraceIngest)
}


def measure(workload, seconds: float, traced: bool) -> list[Round]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(workload.run_round(traced))
        if time.perf_counter() - started >= seconds:
            return rounds


def _run(args: argparse.Namespace) -> int:
    # The parent times set-up up to the "ready" line on our stdout; keep
    # that pipe for the one line and send any library output to stderr.
    ready = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    args.out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.out)
    workload.setup()
    ready.write("ready\n")
    ready.close()
    if args.setup_only:
        return 0
    from repro.core.kernel import batch_snapshot

    batched_before, _configs = batch_snapshot()
    untraced = measure(workload, args.seconds, traced=False)
    traced = measure(workload, args.seconds, traced=True) if args.trace else []
    rounds = untraced + traced
    result = {
        "walls": [r.wall for r in untraced],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "digests": rounds[-1].digests,
        # The kernel that actually ran: only the batched one counts calls.
        "kernel": "batched" if batch_snapshot()[0] > batched_before else "scalar",
        "layers": None,
    }
    if traced:
        report = layers.attribute(traced, untraced_walls=result["walls"])
        report["workload"] = args.workload
        (args.out / "layers.json").write_text(json.dumps(report, indent=1) + "\n")
        result["layers"] = report["metrics"]
    args.result.write_text(json.dumps(result))
    return 0


def _fill(_args: argparse.Namespace) -> int:
    from repro.experiments.common import scaled_trace

    for name in all_workload_names():
        scaled_trace(name, FACTOR)
    return 0


def _check(args: argparse.Namespace) -> int:
    """Re-simulate sampled serve answers; write the mismatch count."""
    from repro.core.kernel import simulate_many
    from repro.experiments.common import scaled_trace
    from repro.explore import get_space

    samples = json.loads(args.samples.read_text())
    space = get_space("fig8")
    by_workload: dict[str, list[dict]] = {}
    for sample in samples:
        by_workload.setdefault(sample["workload"], []).append(sample)
    mismatches = 0
    for name, group in sorted(by_workload.items()):
        trace = scaled_trace(name, FACTOR)
        fresh = simulate_many(trace, [space[s["index"]].config for s in group])
        for sample, run in zip(group, fresh):
            expected = json.loads(json.dumps(run.stats.to_dict()))
            if expected != sample["stats"]:
                print(
                    f"bench: serve-mixed: answer for {name} "
                    f"{space[sample['index']].label} differs from a direct "
                    "simulate_many",
                    file=sys.stderr,
                )
                mismatches += 1
    args.result.write_text(json.dumps({"mismatches": mismatches}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    run = verbs.add_parser("run")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--out", type=pathlib.Path, required=True)
    run.add_argument("--result", type=pathlib.Path, required=True)
    run.add_argument("--setup-only", action="store_true")
    run.set_defaults(func=_run)
    verbs.add_parser("fill").set_defaults(func=_fill)
    check = verbs.add_parser("check")
    check.add_argument("--samples", type=pathlib.Path, required=True)
    check.add_argument("--result", type=pathlib.Path, required=True)
    check.set_defaults(func=_check)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
