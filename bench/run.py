"""The repo benchmark: four workloads, end-to-end metrics, per-layer trace.

Run from the repository root::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

For each workload it prints every metric as ``workload metric value
unit`` and then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
(default) reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` reports its per-layer metrics instead, from a separate traced
measurement, and keeps the Chrome trace and a ``layers.json`` under
``.bench_out/<workload>-seed<N>/``.  The seed shapes only generated
inputs.  Workloads, metrics and their bounds are documented in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from statistics import median

import layers
from procs import PYTHON, ROOT, SRC, WORKER, BenchError, Child, bench_env

SPEC_PATH = ROOT / "BENCHMARK.json"
#: Run directories (removed after each run) and traced-run artifacts.
OUT = ROOT / ".bench_out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Safety net: a run ends within 3 minutes, so no child may outlive this.
CHILD_TIMEOUT = 170.0


@dataclass
class Outcome:
    """Everything one workload run measured."""

    walls: list[float]
    attempted: int
    failed: int
    setups: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    kernel: str = "n/a"
    layers: dict | None = None
    digests: dict = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": median(self.walls),
            "setup_s": median(self.setups),
            "peak_rss_mb": self.peak_rss_mb,
        }


def _run_worker(name, seed, seconds, traced, tmp, artifacts) -> Outcome:
    repeats = 1 if traced else SETUP_REPEATS
    result_path = tmp / "result.json"
    setups = []
    for k in range(repeats):
        final = k == repeats - 1
        args = [
            PYTHON, str(WORKER), "run", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(traced)),
            "--out", str(artifacts if traced else tmp / f"work-{k}"),
            "--result", str(result_path),
        ]
        if not final:
            args.append("--setup-only")
        started = time.perf_counter()
        with Child(args, env=bench_env(tmp / f"cache-{k}"), cwd=tmp,
                   stdout=subprocess.PIPE) as child:
            if not select.select([child.proc.stdout], [], [], CHILD_TIMEOUT)[0]:
                raise BenchError(f"{name}: no set-up within {CHILD_TIMEOUT:g}s")
            ready = child.proc.stdout.readline()
            setups.append(time.perf_counter() - started)
            code = child.wait(CHILD_TIMEOUT)
        if ready.strip() != "ready" or code != 0:
            raise BenchError(f"{name}: worker exited {code}")
    result = json.loads(result_path.read_text())
    return Outcome(
        walls=result["walls"],
        attempted=result["attempted"],
        failed=result["failed"],
        setups=setups,
        peak_rss_mb=child.peak_rss_mb,
        kernel=result["kernel"],
        layers=result["layers"],
        digests=result["digests"],
    )


def _serve_phase(workload, label, seconds, trace_path=None):
    """Set up one server, drive it for ``seconds`` (None: set-up only)."""
    server = workload.start(label, trace_path)
    try:
        records = workload.timed(server, seconds) if seconds is not None else []
        peak_rss_mb = server.stop()
    finally:
        server.child.close()
    return server, records, peak_rss_mb


def _run_serve(seed, seconds, traced, tmp, artifacts) -> Outcome:
    from serve_mixed import REQUESTS_PER_ROUND, ServeMixed

    workload = ServeMixed(seed, tmp)
    setups = []
    if not traced:
        for k in range(SETUP_REPEATS - 1):
            server, _records, _rss = _serve_phase(workload, str(k), None)
            setups.append(server.setup_s)
    server, records, peak_rss_mb = _serve_phase(workload, "timed", seconds)
    setups.append(server.setup_s)
    outcome = Outcome(
        walls=workload.round_walls(records),
        attempted=len(records),
        failed=sum(not record["ok"] for record in records),
        setups=setups,
        peak_rss_mb=peak_rss_mb,
    )
    if traced:
        from repro.telemetry.tracing import load_chrome_trace

        spans_path = artifacts / "spans.json"
        server, records, _rss = _serve_phase(workload, "traced", seconds, spans_path)
        outcome.attempted += len(records)
        outcome.failed += sum(not record["ok"] for record in records)
        report = layers.serve_attribute(
            load_chrome_trace(spans_path),
            records,
            rounds=len(records) / REQUESTS_PER_ROUND,
            untraced_walls=outcome.walls,
            traced_walls=workload.round_walls(records),
        )
        report["workload"] = workload.name
        (artifacts / "layers.json").write_text(json.dumps(report, indent=1) + "\n")
        outcome.layers = report["metrics"]
    outcome.failed += workload.check(records, server.cache)
    return outcome


def run_workload(name: str, *, seed: int, seconds: float, traced: bool) -> Outcome:
    """One benchmark run of ``name`` in a fresh run directory."""
    OUT.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    artifacts = OUT / f"{name}-seed{seed}"
    if traced:
        shutil.rmtree(artifacts, ignore_errors=True)
        artifacts.mkdir(parents=True)
    try:
        if name == "serve-mixed":
            return _run_serve(seed, seconds, traced, tmp, artifacts)
        return _run_worker(name, seed, seconds, traced, tmp, artifacts)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def result_line(outcome: Outcome, spec: dict, traced: bool) -> dict:
    """The final JSON object for one run (every metric of its kind)."""
    if traced:
        definitions, values = spec["per_layer"], outcome.layers
    else:
        definitions, values = spec["end_to_end"], outcome.end_to_end()
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {
                "value": float(values.get(metric["name"], 0.0)),
                "unit": metric["unit"],
            }
            for metric in definitions
        },
    }


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds through every ``finally`` so children are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"error: {ROOT} is not a checkout of this repository "
            "(src/repro or BENCHMARK.json is missing)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    selected = names if args.workload == "all" else [args.workload]
    lines = []
    for name in selected:
        try:
            outcome = run_workload(
                name, seed=args.seed, seconds=args.seconds, traced=bool(args.trace)
            )
        except BenchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        line = result_line(outcome, spec, bool(args.trace))
        print(f"{name:<13} kernel {outcome.kernel}, "
              f"{line['attempted']} ops, {line['failed']} failed")
        for metric, reading in line["metrics"].items():
            print(f"{name:<13} {metric:<30} {reading['value']:>14.6g} "
                  f"{reading['unit']}")
        lines.append(line)
    if len(lines) > 1:
        # One object for the whole set: metrics keyed "<workload>/<metric>".
        lines.append({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {
                f"{name}/{metric}": reading
                for name, line in zip(selected, lines)
                for metric, reading in line["metrics"].items()
            },
        })
    print(json.dumps(lines[-1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
