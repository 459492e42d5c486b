"""Fault-tolerant experiment execution with checkpoint/resume.

``run_all`` used to be a bare loop: the first crash threw away every
finished experiment and a hung one blocked the sweep forever.
:class:`ResilientRunner` replaces that with:

* **Isolation** — each experiment runs in a worker; any exception
  (including in ``render()``) is contained and recorded, and a
  per-experiment wall-clock timeout stops hung runs instead of blocking
  the sweep.
* **Parallelism** — with ``jobs > 1`` experiments run in worker
  *processes* (a ``concurrent.futures.ProcessPoolExecutor``): true
  multi-core execution outside the GIL, hard timeout enforcement (the
  worker process is killed, not abandoned), and containment of
  segfault-class worker deaths.  ``jobs=1`` (the default) keeps the
  serial in-process path, where a timeout can only *abandon* the worker
  thread (it keeps burning CPU — threads cannot be killed).
* **Retry** — failures classified as transient (by default
  :class:`~repro.robustness.faults.TransientFault` and :class:`OSError`)
  are retried with bounded exponential backoff; permanent failures are
  not retried, they are reported.
* **Checkpointing** — every completed experiment's rendered report is
  written to a JSON manifest keyed by ``(experiment id, factor, code
  hash)``.  A re-run with the same key skips finished work and re-runs
  only what failed; a code change or different factor invalidates the
  key, so stale results are never reused.
* **Partial-results report** — the runner always finishes and emits a
  :class:`RunReport` listing succeeded / failed / checkpoint-skipped
  experiments with their causes, per-experiment wall time, the worker
  that ran each one, and persistent trace-cache hit/miss counts (see
  :mod:`repro.workloads.trace_cache`).

Manifest format (``version`` 1; the three observability keys were added
later — absent in old manifests, ignored by old readers)::

    {"version": 1,
     "entries": {"fig4": {"key": "fig4|factor=0.1|code=<hash>",
                          "status": "ok",
                          "elapsed": 12.3,
                          "completed_at": 1722950000.0,
                          "worker": "pid-4242",
                          "trace_cache_hits": 15,
                          "trace_cache_misses": 0,
                          "text": "<rendered report>"}},
     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}}

The top-level ``metrics`` key (a
:meth:`~repro.telemetry.metrics.MetricsRegistry.as_dict` snapshot of the
sweep's ``runner.*`` metrics) is likewise optional and ignored by old
readers; the same registry is exported to ``<out>/metrics/runner.json``
and each experiment gets ``<out>/metrics/<exp_id>.json``.  When span
tracing is on and a Chrome trace export was requested, a top-level
``trace`` key records where that file lands.

Deterministic fault injection (:class:`~repro.robustness.faults.FaultPlan`)
hooks in between the runner and the experiment callables, which is how the
tests exercise every path above without flaky sleeps.  In process mode
the same fault specs are replayed by a picklable shim
(:class:`_InjectedFault`) with the attempt counter tracked in the parent.

Worker-death attribution.  When a worker process dies (segfault, OOM
kill, ``SIGKILL``), ``ProcessPoolExecutor`` breaks the *whole* pool and
fails every in-flight future, so the culprit cannot be identified
directly.  The runner rebuilds the pool, resubmits experiments that were
still queued, and re-runs the ones that were actually executing through
a single-worker quarantine pool, one at a time: if the quarantine pool
breaks too, the experiment running in it is the culprit and is marked
failed; innocent bystanders complete normally.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import json
import multiprocessing
import os
import pathlib
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.kernel import reuse_snapshot
from repro.func.prepared import prepare_snapshot
from repro.robustness.faults import FaultPlan, TransientFault, _CorruptResult
from repro.robustness.signals import GracefulSignals
from repro.telemetry import tracing
from repro.telemetry import logging as structlog
from repro.telemetry.logging import get_logger
from repro.telemetry.metrics import MetricsRegistry, publish_stats
from repro.telemetry.tracing import SpanTracer
from repro.workloads import trace_cache

_log = get_logger("runner")

MANIFEST_VERSION = 1
#: Default manifest location (relative to ``out_dir`` when one is given).
MANIFEST_NAME = "manifest.json"


def _chaos_check(site: str) -> None:
    """Chaos fault-site hook (lazy import: chaos pulls in this module's
    package, so a top-level import would be order-sensitive)."""
    from repro.robustness import chaos

    chaos.fs_check(site)


class ExperimentTimeout(RuntimeError):
    """An experiment exceeded its wall-clock budget and was abandoned."""


@dataclass(frozen=True)
class CheckpointedResult:
    """Stand-in result restored from the manifest (text only)."""

    exp_id: str
    text: str

    def render(self) -> str:
        return self.text


@dataclass
class ExperimentOutcome:
    """What happened to one experiment in one sweep."""

    exp_id: str
    status: str  # "ok" | "failed" | "timeout" | "checkpointed" | "interrupted"
    attempts: int = 0
    elapsed: float = 0.0
    error: str | None = None
    #: Who executed the final attempt: "main" (serial path) or "pid-<n>".
    worker: str = "main"
    #: Persistent trace-cache hits/misses attributed to this experiment.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Columnar trace preparations (and their wall seconds) attributed to
    #: this experiment — near zero on warm sweeps, where every config
    #: reuses the workload's already-prepared columns.
    prepares: int = 0
    prepare_seconds: float = 0.0
    #: Trace-cache degradations attributed to this experiment: stores
    #: that fell back to in-memory-only and entries failing checksum.
    cache_degraded: int = 0
    cache_checksum_failures: int = 0
    #: Configs simulate_many answered from results already stored on
    #: the trace (or duplicated within one call) instead of simulating.
    sim_reused: int = 0

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "checkpointed")


@dataclass
class RunReport:
    """Partial-results summary the runner always emits."""

    outcomes: list[ExperimentOutcome] = field(default_factory=list)
    #: Sweep-level observability metrics (``runner.*``); also embedded in
    #: the manifest and exported to ``<out>/metrics/runner.json``.
    metrics: MetricsRegistry | None = None
    #: Signal name ("SIGINT"/"SIGTERM") when the sweep was interrupted
    #: and shut down gracefully, else None.
    interrupted: str | None = None

    @property
    def succeeded(self) -> list[ExperimentOutcome]:
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def checkpointed(self) -> list[ExperimentOutcome]:
        return [o for o in self.outcomes if o.status == "checkpointed"]

    @property
    def failed(self) -> list[ExperimentOutcome]:
        return [o for o in self.outcomes if not o.succeeded]

    @property
    def ok(self) -> bool:
        return not self.failed

    def render(self) -> str:
        lines = [
            "experiment sweep report: "
            f"{len(self.succeeded)} ran, "
            f"{len(self.checkpointed)} from checkpoint, "
            f"{len(self.failed)} failed"
        ]
        if self.interrupted:
            lines.append(
                f"  interrupted by {self.interrupted}: partial results; "
                "checkpoint flushed, resume to finish the rest"
            )
        for outcome in self.outcomes:
            line = f"  {outcome.exp_id:<10} {outcome.status:<13}"
            if outcome.status == "ok":
                line += f"{outcome.elapsed:7.1f}s  ({outcome.attempts} attempt"
                line += "s" if outcome.attempts != 1 else ""
                line += f", {outcome.worker}"
                line += (
                    f", trace-cache {outcome.cache_hits}h/"
                    f"{outcome.cache_misses}m)"
                )
            elif outcome.error:
                line += f" {outcome.error}"
            lines.append(line)
        return "\n".join(lines)


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file — the manifest's code key.

    Any edit to the simulator or the experiment drivers changes the
    fingerprint, which invalidates checkpointed results (they were
    produced by different code).
    """
    package_root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _default_is_transient(error: BaseException) -> bool:
    return isinstance(error, (TransientFault, OSError))


# --------------------------------------------------------- process workers
#
# Everything a ProcessPoolExecutor ships to a worker must pickle, so the
# worker entry points live at module level and fault injection uses the
# picklable _InjectedFault shim instead of FaultPlan.wrap's closure.


def _start_method(requested: str | None) -> str:
    """Multiprocessing start method: explicit choice, else fork, else spawn.

    Fork is preferred where available — it inherits the imported
    simulator modules for free instead of re-importing them per worker.
    """
    if requested is not None:
        return requested
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _pool_initializer(
    cache_root: str,
    cache_enabled: bool,
    cache_max_entries: int,
    cache_verify: bool = True,
    chaos_plan=None,
    log_destination: str | None = None,
    log_level: str = "INFO",
) -> None:
    """Point the worker's process-wide trace cache at the parent's.

    When the sweep runs under a chaos plan the same (picklable, frozen)
    plan is activated in every worker, so injected filesystem faults
    replay identically no matter which process hits the fault site.
    Structured logging propagates the same way: the parent forwards its
    installed (destination, level) and workers append whole JSON lines
    to the same file.
    """
    trace_cache.configure(
        cache_root,
        enabled=cache_enabled,
        max_entries=cache_max_entries,
        verify=cache_verify,
    )
    if chaos_plan is not None:
        from repro.robustness import chaos

        chaos.activate(chaos_plan)
    if log_destination is not None:
        from repro.telemetry import logging as structlog

        structlog.configure(log_destination, log_level)


def _pool_worker(fn, factor: float, trace_id: str | None = None) -> dict:
    """Run one experiment attempt in a worker process.

    Returns a picklable envelope instead of raising: exceptions are
    shipped to the parent for retry classification, and results that do
    not pickle degrade to their rendered text.

    ``trace_id`` (the sweep's span-correlation id) switches on span
    tracing inside the worker: a fresh worker-local tracer records the
    attempt's trace_build / cache_lookup / simulate spans, and the
    envelope ships them back (relative to the attempt start) for the
    parent to graft under the experiment's attempt span.
    """
    worker_tracer: SpanTracer | None = None
    if trace_id is not None:
        worker_tracer = SpanTracer(trace_id)
        tracing.set_tracer(worker_tracer)
    base_hits, base_misses = trace_cache.snapshot()
    base_degraded, base_checksum = trace_cache.health_snapshot()
    base_prepares, base_prepare_seconds = prepare_snapshot()
    base_reused = reuse_snapshot()
    started = time.monotonic()

    def _envelope(payload: dict) -> dict:
        hits, misses = trace_cache.snapshot()
        degraded, checksum = trace_cache.health_snapshot()
        prepares, prepare_seconds = prepare_snapshot()
        payload.update(
            wall=time.monotonic() - started,
            pid=os.getpid(),
            cache_hits=hits - base_hits,
            cache_misses=misses - base_misses,
            cache_degraded=degraded - base_degraded,
            cache_checksum_failures=checksum - base_checksum,
            prepares=prepares - base_prepares,
            prepare_seconds=prepare_seconds - base_prepare_seconds,
            sim_reused=reuse_snapshot() - base_reused,
        )
        if worker_tracer is not None:
            payload["spans"] = worker_tracer.finished_records()
            # Workers are reused across experiments: never leak a stale
            # tracer into the next attempt's probe sites.
            tracing.set_tracer(None)
        else:
            payload["spans"] = []
        return payload

    try:
        result = fn(factor)
        text = result.render()
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        try:
            pickle.dumps(error)
        except Exception:  # noqa: BLE001 - unpicklable exception
            error = RuntimeError(f"{type(error).__name__}: {error}")
        return _envelope({"ok": False, "error": error})
    try:
        pickle.dumps(result)
    except Exception:  # noqa: BLE001 - unpicklable result
        result = None  # the parent substitutes a text-only stand-in
    return _envelope({"ok": True, "text": text, "result": result})


class _InjectedFault:
    """Picklable mirror of :meth:`FaultPlan.wrap` for process workers.

    The closure returned by ``wrap`` cannot cross a process boundary and
    worker-side attempt counters would reset with every retry, so the
    parent passes the attempt number in explicitly.  ``execution`` is a
    separate counter that also ticks on re-runs the retry ledger does
    *not* bill (quarantine re-runs, post-pool-break resubmits): a
    ``kill`` fault keyed on ``attempt`` would re-fire inside the
    quarantine pool and convict an experiment that merely needed a
    clean re-run.
    """

    def __init__(
        self, fn, exp_id: str, spec, attempt: int, execution: int | None = None
    ) -> None:
        self.fn = fn
        self.exp_id = exp_id
        self.spec = spec
        self.attempt = attempt
        self.execution = execution if execution is not None else attempt

    def __call__(self, factor: float):
        spec = self.spec
        if spec.kind == "crash":
            raise RuntimeError(
                f"injected crash in experiment {self.exp_id!r} "
                f"(attempt {self.attempt})"
            )
        if spec.kind == "transient" and self.attempt <= spec.count:
            raise TransientFault(
                f"injected transient fault in experiment {self.exp_id!r} "
                f"(attempt {self.attempt}/{spec.count})"
            )
        if spec.kind == "kill" and self.execution <= spec.count:
            # A real worker death: the parent sees a BrokenProcessPool
            # and must attribute it (the pool path of the chaos harness).
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind == "timeout":
            time.sleep(spec.seconds)
        if spec.kind == "straggler" and self.execution <= spec.count:
            time.sleep(spec.seconds)
        result = self.fn(factor)
        if spec.kind == "corrupt-result":
            return _CorruptResult()
        return result


class ResilientRunner:
    """Run a mapping of experiments fault-tolerantly (see module docs)."""

    def __init__(
        self,
        manifest_path: str | pathlib.Path | None = None,
        *,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.25,
        max_backoff: float = 2.0,
        fault_plan: FaultPlan | None = None,
        is_transient: Callable[[BaseException], bool] = _default_is_transient,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        jobs: int = 1,
        mp_context: str | None = None,
        tracer: SpanTracer | None = None,
        chaos_plan=None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be > 0 (or None)")
        if backoff < 0 or max_backoff < 0:
            raise ValueError("backoff values must be >= 0")
        if not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
        self.manifest_path = (
            pathlib.Path(manifest_path) if manifest_path else None
        )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.fault_plan = fault_plan
        self.is_transient = is_transient
        self.jobs = jobs
        self.mp_context = mp_context
        #: Optional host-side span tracer (see repro.telemetry.tracing);
        #: ``None`` keeps every span site a single falsy check.
        self.tracer = tracer
        #: Optional chaos plan (see repro.robustness.chaos), shipped to
        #: pool workers through the initializer so filesystem-fault
        #: budgets replay per process.  The caller activates it in the
        #: parent; the runner only forwards it.
        self.chaos_plan = chaos_plan
        self._sleep = sleep
        self._clock = clock

    # ----------------------------------------------------------------- run

    def run(
        self,
        experiments: Mapping[str, Callable[[float], object]],
        *,
        factor: float = 1.0,
        only: list[str] | None = None,
        resume: bool = True,
        stream=None,
        out_dir: str | pathlib.Path | None = None,
        code_hash: str | None = None,
        trace_out: str | pathlib.Path | None = None,
    ) -> tuple[dict[str, object], RunReport]:
        """Run the selected experiments; returns ``(results, report)``.

        ``results`` maps experiment id to the driver's result object, or a
        :class:`CheckpointedResult` when the manifest supplied it.

        With a ``tracer`` installed on the runner, the whole sweep is
        recorded as a span tree (sweep -> experiment -> attempt -> probe
        spans, including worker-side spans in parallel mode);
        ``trace_out`` additionally exports it as Chrome trace-event JSON
        once the sweep finishes, and the manifest records the path under
        a top-level ``trace`` key.
        """
        tracer = self.tracer
        trace_path = pathlib.Path(trace_out) if trace_out else None
        if tracer is None:
            return self._run_impl(
                experiments,
                factor=factor,
                only=only,
                resume=resume,
                stream=stream,
                out_dir=out_dir,
                code_hash=code_hash,
            )
        with tracing.use_tracer(tracer):
            sweep_span = tracer.begin(
                "sweep",
                "sweep",
                factor=factor,
                jobs=self.jobs,
                trace_id=tracer.trace_id,
            )
            try:
                with tracer.adopt(sweep_span):
                    return self._run_impl(
                        experiments,
                        factor=factor,
                        only=only,
                        resume=resume,
                        stream=stream,
                        out_dir=out_dir,
                        code_hash=code_hash,
                        sweep_span=sweep_span,
                        trace_path=trace_path,
                    )
            finally:
                tracer.finish(sweep_span)
                if trace_path is not None:
                    tracer.write_chrome(trace_path)

    def _run_impl(
        self,
        experiments: Mapping[str, Callable[[float], object]],
        *,
        factor: float = 1.0,
        only: list[str] | None = None,
        resume: bool = True,
        stream=None,
        out_dir: str | pathlib.Path | None = None,
        code_hash: str | None = None,
        sweep_span=None,
        trace_path: pathlib.Path | None = None,
    ) -> tuple[dict[str, object], RunReport]:
        if only:
            unknown = sorted(set(only) - set(experiments))
            if unknown:
                raise ValueError(
                    f"unknown experiment ids: {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(experiments))}"
                )
        code_hash = code_hash or code_fingerprint()
        out_path = pathlib.Path(out_dir) if out_dir else None
        if out_path:
            out_path.mkdir(parents=True, exist_ok=True)
        manifest_path = self.manifest_path
        if manifest_path is None and out_path is not None:
            manifest_path = out_path / MANIFEST_NAME
        if resume:
            entries, manifest_salvaged = self._load_manifest(
                manifest_path, stream=stream
            )
        else:
            entries, manifest_salvaged = {}, False

        selected = [
            (exp_id, fn)
            for exp_id, fn in experiments.items()
            if not only or exp_id in only
        ]
        keys = {
            exp_id: self._key(exp_id, factor, code_hash)
            for exp_id, _fn in selected
        }
        #: Perfetto row per experiment (row 0 is the sweep's own row), so
        #: parallel experiments render side by side instead of nesting.
        tracks = {
            exp_id: index + 1
            for index, (exp_id, _fn) in enumerate(selected)
        }
        run_started = self._clock()
        results: dict[str, object] = {}
        outcomes: dict[str, ExperimentOutcome] = {}
        #: Simulated work finished by this sweep (for throughput gauges);
        #: only experiments whose results expose ``.stats`` contribute.
        sim_totals = {"cycles": 0, "instructions": 0}
        #: Columnar trace preparation time across the sweep (gauge input).
        prepare_totals = {"seconds": 0.0}
        registry = MetricsRegistry()
        registry.gauge("runner.factor").set(factor)
        registry.gauge("runner.jobs").set(self.jobs)
        if manifest_salvaged:
            registry.counter("runner.manifest_salvaged").inc()

        # Checkpoints about to be recomputed because the *code* changed
        # (same experiment, same factor) deserve an explicit warning —
        # silently redoing hours of work looks like a resume bug.
        for exp_id, _fn in selected:
            entry = entries.get(exp_id)
            if not entry or entry.get("status") != "ok":
                continue
            old_key = entry.get("key", "")
            if old_key == keys[exp_id]:
                continue
            old_stem, _, old_code = old_key.rpartition("|code=")
            new_stem, _, new_code = keys[exp_id].rpartition("|code=")
            if old_stem == new_stem and old_code and old_code != new_code:
                registry.counter("runner.checkpoints_invalidated").inc()
                _log.warning(
                    "runner.checkpoint_invalidated",
                    experiment=exp_id,
                    old_code=old_code,
                    new_code=new_code,
                )
                if stream is not None:
                    print(
                        f"warning: {exp_id}: checkpoint invalidated "
                        f"(code changed): old={old_code} new={new_code}",
                        file=stream,
                    )

        def publish_outcome(outcome: ExperimentOutcome) -> None:
            registry.counter(f"runner.experiments_{outcome.status}").inc()
            registry.counter("runner.attempts").inc(outcome.attempts)
            registry.counter("runner.trace_cache_hits").inc(outcome.cache_hits)
            registry.counter("runner.trace_cache_misses").inc(
                outcome.cache_misses
            )
            if outcome.prepares:
                registry.counter("runner.traces_prepared").inc(
                    outcome.prepares
                )
                prepare_totals["seconds"] += outcome.prepare_seconds
                registry.gauge("runner.trace_prepare_seconds").set(
                    prepare_totals["seconds"]
                )
            if outcome.cache_degraded:
                registry.counter("runner.cache_degraded").inc(
                    outcome.cache_degraded
                )
            if outcome.cache_checksum_failures:
                registry.counter("runner.cache_checksum_failures").inc(
                    outcome.cache_checksum_failures
                )
            if outcome.sim_reused:
                registry.counter("runner.sim_reused").inc(outcome.sim_reused)
            if outcome.status == "ok":
                registry.histogram("runner.elapsed_seconds").observe(
                    outcome.elapsed
                )

        todo: list[tuple[str, Callable[[float], object]]] = []
        for exp_id, runner_fn in selected:
            entry = entries.get(exp_id)
            if (
                entry
                and entry.get("key") == keys[exp_id]
                and entry.get("status") == "ok"
            ):
                results[exp_id] = CheckpointedResult(exp_id, entry.get("text", ""))
                outcomes[exp_id] = ExperimentOutcome(exp_id, "checkpointed")
                publish_outcome(outcomes[exp_id])
                self._emit(stream, exp_id, "checkpointed", entry.get("text", ""))
            else:
                todo.append((exp_id, runner_fn))

        def export_experiment_metrics(exp_id, outcome, result) -> None:
            """Write ``<out>/metrics/<exp_id>.json`` for one experiment."""
            if out_path is None:
                return
            per_exp = MetricsRegistry()
            per_exp.counter("runner.attempts").inc(outcome.attempts)
            per_exp.counter("runner.trace_cache_hits").inc(outcome.cache_hits)
            per_exp.counter("runner.trace_cache_misses").inc(
                outcome.cache_misses
            )
            per_exp.counter("runner.traces_prepared").inc(outcome.prepares)
            per_exp.gauge("runner.trace_prepare_seconds").set(
                outcome.prepare_seconds
            )
            per_exp.counter("runner.sim_reused").inc(outcome.sim_reused)
            per_exp.gauge("runner.elapsed_seconds").set(outcome.elapsed)
            per_exp.gauge("runner.ok").set(1.0 if outcome.succeeded else 0.0)
            stats = getattr(result, "stats", None)
            if stats is not None and hasattr(stats, "stall_cycles"):
                publish_stats(stats, per_exp)
            per_exp.write_json(out_path / "metrics" / f"{exp_id}.json")

        def finish(exp_id, outcome, text, result):
            """Record one finished experiment (shared by both backends)."""
            outcomes[exp_id] = outcome
            publish_outcome(outcome)
            export_experiment_metrics(exp_id, outcome, result)
            stats = getattr(result, "stats", None)
            if stats is not None and hasattr(stats, "cycles"):
                if not stats.instructions:
                    # Empty run: no CPI is defined, so it must not feed
                    # the throughput gauges silently — count it instead.
                    registry.counter("runner.empty_runs").inc()
                sim_totals["cycles"] += stats.cycles
                sim_totals["instructions"] += stats.instructions
            if outcome.status == "ok":
                if result is None:
                    # Parallel result that did not survive pickling.
                    result = CheckpointedResult(exp_id, text)
                results[exp_id] = result
                entries[exp_id] = {
                    "key": keys[exp_id],
                    "status": "ok",
                    "elapsed": outcome.elapsed,
                    "completed_at": time.time(),
                    "worker": outcome.worker,
                    "trace_cache_hits": outcome.cache_hits,
                    "trace_cache_misses": outcome.cache_misses,
                    "text": text,
                }
                if out_path:
                    (out_path / f"{exp_id}.txt").write_text(text + "\n")
                if not self._save_manifest(
                    manifest_path, entries, registry, trace=trace_path
                ):
                    registry.counter("runner.manifest_degraded").inc()
                self._emit(
                    stream,
                    exp_id,
                    f"ok ({outcome.elapsed:.1f}s)",
                    text,
                )
            else:
                # Drop any stale checkpoint for a now-failing experiment.
                stale = entries.get(exp_id)
                if stale is not None and stale.get("key") != keys[exp_id]:
                    entries.pop(exp_id, None)
                    if not self._save_manifest(
                        manifest_path, entries, registry, trace=trace_path
                    ):
                        registry.counter("runner.manifest_degraded").inc()
                self._emit(
                    stream,
                    exp_id,
                    f"{outcome.status}: {outcome.error}",
                    None,
                )

        tracer = self.tracer

        def _warn_interrupt(name: str) -> None:
            _log.warning("runner.interrupted", signal=name)
            if stream is not None:
                print(
                    f"warning: received {name}; stopping after in-flight "
                    "work and flushing the checkpoint manifest "
                    "(repeat to abort hard)",
                    file=stream,
                )

        interrupt = GracefulSignals(notify=_warn_interrupt)
        should_stop = interrupt.should_stop
        interrupt.install()
        try:
            if todo:
                if self.jobs == 1:
                    for exp_id, runner_fn in todo:
                        if should_stop():
                            break
                        if tracer is None:
                            outcome, text, result = self._run_one(
                                exp_id, runner_fn, factor
                            )
                            finish(exp_id, outcome, text, result)
                            continue
                        with tracer.span(
                            f"experiment:{exp_id}",
                            "experiment",
                            track=tracks[exp_id],
                        ) as exp_span:
                            outcome, text, result = self._run_one(
                                exp_id, runner_fn, factor
                            )
                            exp_span.annotate(
                                status=outcome.status,
                                attempts=outcome.attempts,
                                worker=outcome.worker,
                            )
                            if outcome.error:
                                exp_span.annotate(error=outcome.error)
                            finish(exp_id, outcome, text, result)
                else:
                    self._run_pool(
                        todo,
                        factor,
                        finish,
                        sweep_span=sweep_span,
                        tracks=tracks,
                        should_stop=should_stop,
                    )
        finally:
            interrupt.restore()

        # Graceful shutdown: every selected experiment still gets an
        # outcome, so the report is complete (explicitly partial).
        if interrupt.signal is not None:
            for exp_id, _fn in selected:
                if exp_id not in outcomes:
                    outcomes[exp_id] = ExperimentOutcome(
                        exp_id,
                        "interrupted",
                        error=(
                            f"sweep interrupted by {interrupt.signal} "
                            "before this experiment finished"
                        ),
                    )
                    publish_outcome(outcomes[exp_id])

        # Sweep-level throughput gauges: how fast the host chewed through
        # the simulated work (the perf-baseline observatory's inputs).
        wall = self._clock() - run_started
        registry.gauge("runner.wall_seconds").set(wall)
        executed = [o for o in outcomes.values() if o.status == "ok"]
        if wall > 0:
            registry.gauge("runner.experiments_per_second").set(
                len(executed) / wall
            )
            if sim_totals["cycles"]:
                registry.gauge("runner.sim_cycles_per_second").set(
                    sim_totals["cycles"] / wall
                )
                registry.gauge("runner.sim_instructions_per_second").set(
                    sim_totals["instructions"] / wall
                )
        cache_hits = registry.counter("runner.trace_cache_hits").value
        cache_misses = registry.counter("runner.trace_cache_misses").value
        if cache_hits + cache_misses:
            registry.gauge("runner.trace_cache_hit_rate").set(
                cache_hits / (cache_hits + cache_misses)
            )

        # Final manifest write picks up metrics for checkpoint-only runs
        # (and is the flush a graceful shutdown promises).
        if not self._save_manifest(
            manifest_path, entries, registry, trace=trace_path
        ):
            registry.counter("runner.manifest_degraded").inc()
        if out_path is not None:
            registry.write_json(out_path / "metrics" / "runner.json")

        # Canonical report order: the experiments mapping, regardless of
        # parallel completion order — serial and parallel reports match.
        report = RunReport(
            outcomes=[outcomes[e] for e, _fn in selected],
            metrics=registry,
            interrupted=interrupt.signal,
        )
        if stream is not None:
            print(report.render(), file=stream)
        return results, report

    # ------------------------------------------------------------ internals

    def _run_one(self, exp_id, runner_fn, factor):
        """Execute one experiment with containment, timeout and retry."""
        fn = runner_fn
        if self.fault_plan is not None:
            fn = self.fault_plan.wrap(exp_id, fn)
        attempts = 0
        started = self._clock()
        base_hits, base_misses = trace_cache.snapshot()
        base_degraded, base_checksum = trace_cache.health_snapshot()
        base_prepares, base_prepare_seconds = prepare_snapshot()
        base_reused = reuse_snapshot()

        def cache_delta() -> dict:
            hits, misses = trace_cache.snapshot()
            degraded, checksum = trace_cache.health_snapshot()
            return {
                "cache_hits": hits - base_hits,
                "cache_misses": misses - base_misses,
                "cache_degraded": degraded - base_degraded,
                "cache_checksum_failures": checksum - base_checksum,
            }

        def prepare_delta() -> dict:
            prepares, seconds = prepare_snapshot()
            return {
                "prepares": prepares - base_prepares,
                "prepare_seconds": seconds - base_prepare_seconds,
            }

        def reuse_delta() -> dict:
            return {"sim_reused": reuse_snapshot() - base_reused}

        while True:
            attempts += 1
            try:
                result = self._timed_attempt(exp_id, fn, factor, attempts)
                text = result.render()
                elapsed = self._clock() - started
                return (
                    ExperimentOutcome(
                        exp_id,
                        "ok",
                        attempts,
                        elapsed,
                        **cache_delta(),
                        **prepare_delta(),
                        **reuse_delta(),
                    ),
                    text,
                    result,
                )
            except ExperimentTimeout as error:
                elapsed = self._clock() - started
                return (
                    ExperimentOutcome(
                        exp_id,
                        "timeout",
                        attempts,
                        elapsed,
                        str(error),
                        **cache_delta(),
                        **prepare_delta(),
                        **reuse_delta(),
                    ),
                    None,
                    None,
                )
            except BaseException as error:  # noqa: BLE001 - containment
                if self.is_transient(error) and attempts <= self.retries:
                    delay = min(
                        self.backoff * (2 ** (attempts - 1)), self.max_backoff
                    )
                    if delay > 0:
                        self._sleep(delay)
                    continue
                elapsed = self._clock() - started
                cause = f"{type(error).__name__}: {error}"
                return (
                    ExperimentOutcome(
                        exp_id,
                        "failed",
                        attempts,
                        elapsed,
                        cause,
                        **cache_delta(),
                        **prepare_delta(),
                        **reuse_delta(),
                    ),
                    None,
                    None,
                )

    def _timed_attempt(self, exp_id, fn, factor, attempt):
        """One serial attempt, wrapped in an ``attempt`` span when tracing.

        Retried attempts each get their own span (siblings under the
        experiment), annotated with the outcome that ended them.
        """
        tracer = self.tracer
        if tracer is None:
            return self._call_with_timeout(exp_id, fn, factor)
        with tracer.span(f"attempt#{attempt}", "attempt") as span:
            try:
                value = self._call_with_timeout(exp_id, fn, factor)
            except ExperimentTimeout as error:
                span.annotate(status="timeout", error=str(error))
                raise
            except BaseException as error:  # noqa: BLE001 - annotate only
                span.annotate(
                    status="failed",
                    error=f"{type(error).__name__}: {error}",
                )
                raise
            span.annotate(status="ok")
            return value

    def _call_with_timeout(self, exp_id, fn, factor):
        if self.timeout is None:
            return fn(factor)
        box: dict[str, object] = {}
        tracer = self.tracer
        anchor = tracer.current() if tracer is not None else None

        def target() -> None:
            try:
                if anchor is not None:
                    # The worker thread starts with an empty span stack;
                    # adopt the attempt span so trace_build / simulate
                    # spans inside keep their lineage.
                    with tracer.adopt(anchor):
                        box["value"] = fn(factor)
                else:
                    box["value"] = fn(factor)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                box["error"] = error

        worker = threading.Thread(
            target=target, name=f"experiment-{exp_id}", daemon=True
        )
        worker.start()
        worker.join(self.timeout)
        if worker.is_alive():
            # The thread cannot be killed; it is abandoned as a daemon.
            raise ExperimentTimeout(
                f"experiment {exp_id!r} exceeded {self.timeout:g}s "
                "wall-clock budget and was abandoned"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    # ---------------------------------------------------------- process pool

    def _run_pool(
        self,
        todo,
        factor,
        finish,
        *,
        sweep_span=None,
        tracks=None,
        should_stop=None,
    ):
        """Run ``todo`` on a process pool (see module docs for semantics).

        The single-threaded event loop below owns all bookkeeping;
        workers only ever see ``_pool_worker`` and return envelopes, so
        there is no shared mutable state to lock.

        Span bookkeeping is manual (``begin``/``finish``) because
        experiment lifetimes interleave in this loop: an experiment span
        opens at first submission and closes when ``finish`` runs, and
        each returned envelope becomes an ``attempt`` span whose window
        is reconstructed from the worker's wall time, with the worker's
        own spans grafted underneath.
        """
        fns = dict(todo)
        tracer = self.tracer
        trace_id = tracer.trace_id if tracer is not None else None
        exp_spans: dict[str, object] = {}

        if tracer is not None:
            record_finished = finish

            def finish(exp_id, outcome, text, result):
                span = exp_spans.pop(exp_id, None)
                if span is not None:
                    span.annotate(
                        status=outcome.status,
                        attempts=outcome.attempts,
                        worker=outcome.worker,
                    )
                    if outcome.error:
                        span.annotate(error=outcome.error)
                    tracer.finish(span)
                record_finished(exp_id, outcome, text, result)

        def record_attempt(exp_id, pool_name, envelope, status, error=None):
            """Graft one worker envelope as an attempt span (or no-op)."""
            if tracer is None:
                return
            parent = exp_spans.get(exp_id)
            if parent is None:
                return
            attempt = tracer.begin(
                f"attempt#{attempts[exp_id]}",
                "attempt",
                parent=parent,
                start=tracer.now() - envelope["wall"],
                worker=f"pid-{envelope['pid']}",
                status=status,
            )
            if pool_name == "solo":
                attempt.annotate(quarantine=True)
            if error is not None:
                attempt.annotate(error=error)
            tracer.graft(
                envelope.get("spans", []),
                parent=attempt,
                offset=attempt.start,
                prefix=attempt.span_id,
            )
            tracer.finish(attempt)
        attempts = {exp_id: 0 for exp_id in fns}
        #: Every submission, including re-runs the retry ledger does not
        #: bill (quarantine, post-break resubmits) — the schedule basis
        #: for kill/straggler chaos faults (see _InjectedFault).
        executions = {exp_id: 0 for exp_id in fns}
        started_at: dict[str, float] = {}
        #: first time each experiment was *observed* executing — the
        #: timeout basis, and the "suspect" test after a pool break.
        first_running: dict[str, float] = {}
        waiting: list[tuple[float, str]] = []  # backoff retries (resume_at)
        quarantine: deque = deque()
        solo_busy = False

        cache = trace_cache.default_cache()
        ctx = multiprocessing.get_context(_start_method(self.mp_context))
        log_config = structlog.current_config()
        initargs = (
            str(cache.root),
            cache.enabled,
            cache.max_entries,
            cache.verify,
            self.chaos_plan,
            log_config[0] if log_config else None,
            log_config[1] if log_config else "INFO",
        )

        def new_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=_pool_initializer,
                initargs=initargs,
            )

        pools: dict[str, concurrent.futures.ProcessPoolExecutor] = {
            "main": new_pool(min(self.jobs, len(todo)))
        }
        future_home: dict[concurrent.futures.Future, tuple[str, str]] = {}

        def submit(exp_id: str, pool_name: str, count_attempt: bool = True):
            fn = fns[exp_id]
            if count_attempt:
                attempts[exp_id] += 1
            executions[exp_id] += 1
            started_at.setdefault(exp_id, self._clock())
            if self.fault_plan is not None:
                spec = self.fault_plan.faults.get(exp_id)
                if spec is not None:
                    # Keep the plan's observable counters in sync even
                    # though the fault itself fires in the worker.
                    self.fault_plan.attempts[exp_id] = attempts[exp_id]
                    fn = _InjectedFault(
                        fn, exp_id, spec, attempts[exp_id], executions[exp_id]
                    )
            if tracer is not None and exp_id not in exp_spans:
                exp_spans[exp_id] = tracer.begin(
                    f"experiment:{exp_id}",
                    "experiment",
                    parent=sweep_span,
                    track=(tracks or {}).get(exp_id, 0),
                )
            future = pools[pool_name].submit(_pool_worker, fn, factor, trace_id)
            future_home[future] = (pool_name, exp_id)

        def pop_pool_futures(pool_name: str) -> list[str]:
            doomed = [
                f for f, (p, _e) in future_home.items() if p == pool_name
            ]
            return [future_home.pop(f)[1] for f in doomed]

        try:
            for exp_id, _fn in todo:
                submit(exp_id, "main")
            while future_home or waiting or quarantine:
                if should_stop is not None and should_stop():
                    # Graceful shutdown: stop scheduling, kill in-flight
                    # workers (finally), report the rest as interrupted.
                    break
                now = self._clock()
                due = [w for w in waiting if w[0] <= now]
                if due:
                    waiting = [w for w in waiting if w[0] > now]
                    for _at, exp_id in due:
                        submit(exp_id, "main")
                if quarantine and not solo_busy:
                    if "solo" not in pools:
                        pools["solo"] = new_pool(1)
                    submit(quarantine.popleft(), "solo", count_attempt=False)
                    solo_busy = True
                if not future_home:
                    # Only a pending backoff retry remains; sleep it out.
                    if waiting:
                        self._sleep(
                            max(0.0, min(at for at, _e in waiting) - now)
                        )
                    continue
                # Poll (rather than block) whenever a deadline could pass.
                poll = 0.05 if (self.timeout is not None or waiting) else None
                done, _pending = concurrent.futures.wait(
                    set(future_home),
                    timeout=poll,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                now = self._clock()
                for future, (_pool, exp_id) in future_home.items():
                    if future not in done and future.running():
                        first_running.setdefault(exp_id, now)
                broken: dict[str, None] = {}
                for future in done:
                    pool_name, exp_id = future_home.pop(future)
                    if pool_name == "solo":
                        solo_busy = False
                    try:
                        envelope = future.result()
                    except BrokenProcessPool:
                        broken[pool_name] = None
                        # Re-attach: the pool sweep below collects every
                        # future of the broken pool in one place.
                        future_home[future] = (pool_name, exp_id)
                        continue
                    except concurrent.futures.CancelledError:
                        continue
                    except BaseException as error:  # noqa: BLE001
                        # e.g. the callable failed to pickle at submit time
                        first_running.pop(exp_id, None)
                        finish(
                            exp_id,
                            ExperimentOutcome(
                                exp_id,
                                "failed",
                                attempts[exp_id],
                                now - started_at.pop(exp_id, now),
                                f"{type(error).__name__}: {error}",
                            ),
                            None,
                            None,
                        )
                        continue
                    elapsed = now - started_at.get(exp_id, now)
                    worker = f"pid-{envelope['pid']}"
                    if envelope["ok"]:
                        record_attempt(exp_id, pool_name, envelope, "ok")
                        first_running.pop(exp_id, None)
                        started_at.pop(exp_id, None)
                        finish(
                            exp_id,
                            ExperimentOutcome(
                                exp_id,
                                "ok",
                                attempts[exp_id],
                                elapsed,
                                worker=worker,
                                cache_hits=envelope["cache_hits"],
                                cache_misses=envelope["cache_misses"],
                                cache_degraded=envelope.get(
                                    "cache_degraded", 0
                                ),
                                cache_checksum_failures=envelope.get(
                                    "cache_checksum_failures", 0
                                ),
                                prepares=envelope.get("prepares", 0),
                                prepare_seconds=envelope.get(
                                    "prepare_seconds", 0.0
                                ),
                                sim_reused=envelope.get("sim_reused", 0),
                            ),
                            envelope["text"],
                            envelope["result"],
                        )
                        continue
                    error = envelope["error"]
                    record_attempt(
                        exp_id,
                        pool_name,
                        envelope,
                        "failed",
                        error=f"{type(error).__name__}: {error}",
                    )
                    if (
                        self.is_transient(error)
                        and attempts[exp_id] <= self.retries
                    ):
                        first_running.pop(exp_id, None)
                        delay = min(
                            self.backoff * (2 ** (attempts[exp_id] - 1)),
                            self.max_backoff,
                        )
                        waiting.append((now + delay, exp_id))
                        continue
                    first_running.pop(exp_id, None)
                    started_at.pop(exp_id, None)
                    finish(
                        exp_id,
                        ExperimentOutcome(
                            exp_id,
                            "failed",
                            attempts[exp_id],
                            elapsed,
                            f"{type(error).__name__}: {error}",
                            worker=worker,
                            cache_hits=envelope["cache_hits"],
                            cache_misses=envelope["cache_misses"],
                            cache_degraded=envelope.get("cache_degraded", 0),
                            cache_checksum_failures=envelope.get(
                                "cache_checksum_failures", 0
                            ),
                            prepares=envelope.get("prepares", 0),
                            prepare_seconds=envelope.get(
                                "prepare_seconds", 0.0
                            ),
                            sim_reused=envelope.get("sim_reused", 0),
                        ),
                        None,
                        None,
                    )
                for pool_name in broken:
                    affected = pop_pool_futures(pool_name)
                    self._teardown(pools.pop(pool_name, None))
                    if pool_name == "solo":
                        # One worker, one experiment: the culprit is known.
                        solo_busy = False
                        for exp_id in affected:
                            first_running.pop(exp_id, None)
                            finish(
                                exp_id,
                                ExperimentOutcome(
                                    exp_id,
                                    "failed",
                                    attempts[exp_id],
                                    now - started_at.pop(exp_id, now),
                                    "worker process died (crash or kill) "
                                    "while running this experiment",
                                ),
                                None,
                                None,
                            )
                        continue
                    # Experiments observed executing when the pool broke
                    # are suspects — re-run them one at a time in the
                    # quarantine pool so a repeat death convicts exactly
                    # one.  Queued bystanders just resubmit.
                    suspects = [e for e in affected if e in first_running]
                    innocents = [e for e in affected if e not in first_running]
                    if not suspects:
                        suspects, innocents = affected, []
                    for exp_id in suspects:
                        first_running.pop(exp_id, None)
                        quarantine.append(exp_id)
                    pools["main"] = new_pool(min(self.jobs, len(todo)))
                    for exp_id in innocents:
                        submit(exp_id, "main", count_attempt=False)
                if self.timeout is not None:
                    now = self._clock()
                    expired: dict[str, list[str]] = {}
                    for _future, (pool_name, exp_id) in future_home.items():
                        ran_at = first_running.get(exp_id)
                        if ran_at is not None and now - ran_at >= self.timeout:
                            expired.setdefault(pool_name, []).append(exp_id)
                    for pool_name, victims in expired.items():
                        # Hard enforcement: kill the whole pool (worker
                        # identity is opaque), fail the victims, resubmit
                        # innocent co-tenants.
                        affected = pop_pool_futures(pool_name)
                        self._teardown(pools.pop(pool_name, None))
                        if pool_name == "solo":
                            solo_busy = False
                        else:
                            pools["main"] = new_pool(
                                min(self.jobs, len(todo))
                            )
                        for exp_id in affected:
                            first_running.pop(exp_id, None)
                            if exp_id in victims:
                                if tracer is not None and exp_id in exp_spans:
                                    # No envelope survives a killed pool;
                                    # reconstruct the attempt window from
                                    # the budget it blew.
                                    timed_out = tracer.begin(
                                        f"attempt#{attempts[exp_id]}",
                                        "attempt",
                                        parent=exp_spans[exp_id],
                                        start=tracer.now() - self.timeout,
                                        status="timeout",
                                    )
                                    if pool_name == "solo":
                                        timed_out.annotate(quarantine=True)
                                    tracer.finish(timed_out)
                                finish(
                                    exp_id,
                                    ExperimentOutcome(
                                        exp_id,
                                        "timeout",
                                        attempts[exp_id],
                                        now - started_at.pop(exp_id, now),
                                        f"experiment {exp_id!r} exceeded "
                                        f"{self.timeout:g}s wall-clock "
                                        "budget; worker process killed",
                                    ),
                                    None,
                                    None,
                                )
                            elif pool_name == "solo":
                                quarantine.append(exp_id)
                            else:
                                submit(exp_id, "main", count_attempt=False)
        finally:
            for executor in pools.values():
                self._teardown(executor)

    @staticmethod
    def _teardown(executor) -> None:
        """Kill an executor's worker processes and discard it.

        ``_processes`` is private but has been the worker registry of
        ``ProcessPoolExecutor`` since 3.2; killing through it is the only
        way to stop a wedged worker (``shutdown`` only ever waits).
        """
        if executor is None:
            return
        processes = list((getattr(executor, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.kill()
            except Exception:  # noqa: BLE001 - already dead
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.join(timeout=1.0)
            except Exception:  # noqa: BLE001 - reaped elsewhere
                pass

    @staticmethod
    def _key(exp_id: str, factor: float, code_hash: str) -> str:
        return f"{exp_id}|factor={factor!r}|code={code_hash}"

    @staticmethod
    def _parse_manifest(path: pathlib.Path) -> dict | None:
        """Entries of a well-formed manifest; None when it is corrupt.

        A version mismatch is *not* corruption — it means a legitimate
        fresh start, signalled by an empty dict.
        """
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if data.get("version") != MANIFEST_VERSION:
            return {}
        entries = data.get("entries")
        return entries if isinstance(entries, dict) else None

    @classmethod
    def _load_manifest(
        cls, path: pathlib.Path | None, stream=None
    ) -> tuple[dict, bool]:
        """``(entries, salvaged)`` — torn manifests recover from ``.bak``.

        ``_save_manifest`` keeps the previous manifest as ``.bak``, so a
        manifest torn by external corruption (or missing because a crash
        landed between the two renames) salvages the last good
        checkpoint set instead of silently restarting the whole sweep.
        """
        if path is None:
            return {}, False
        bak = path.with_suffix(path.suffix + ".bak")
        torn = False
        if path.exists():
            entries = cls._parse_manifest(path)
            if entries is not None:
                return entries, False
            torn = True
        if not bak.exists():
            if torn:
                _log.warning(
                    "manifest.corrupt", path=str(path), backup=False
                )
                if stream is not None:
                    print(
                        f"warning: checkpoint manifest {path} is corrupt "
                        "and no backup exists; starting fresh",
                        file=stream,
                    )
            return {}, False
        entries = cls._parse_manifest(bak)
        if not entries:
            if torn:
                _log.warning(
                    "manifest.corrupt", path=str(path), backup=True
                )
                if stream is not None:
                    print(
                        f"warning: checkpoint manifest {path} is corrupt "
                        f"and its backup is unusable; starting fresh",
                        file=stream,
                    )
            return {}, False
        _log.warning(
            "manifest.salvaged",
            path=str(path),
            torn=torn,
            entries=len(entries),
            backup=bak.name,
        )
        if stream is not None:
            cause = "is corrupt (torn write?)" if torn else "is missing"
            print(
                f"warning: checkpoint manifest {path} {cause}; salvaged "
                f"{len(entries)} checkpoint(s) from {bak.name}",
                file=stream,
            )
        return entries, True

    @staticmethod
    def _save_manifest(
        path: pathlib.Path | None,
        entries: dict,
        metrics: MetricsRegistry | None = None,
        trace: pathlib.Path | None = None,
    ) -> bool:
        """Write the manifest atomically; False when the write degraded.

        Write-then-rename means a crash never tears ``path`` itself; the
        previous manifest additionally survives as ``.bak`` so external
        corruption of ``path`` (or a crash between the two renames) is
        recoverable by ``_load_manifest``.  An I/O failure (full disk,
        injected fault) loses checkpoint durability, never the sweep —
        the caller records ``runner.manifest_degraded`` and carries on.
        """
        if path is None:
            return True
        with tracing.span("checkpoint", "checkpoint", entries=len(entries)):
            try:
                _chaos_check("manifest.save")
                path.parent.mkdir(parents=True, exist_ok=True)
                document: dict = {
                    "version": MANIFEST_VERSION,
                    "entries": entries,
                }
                if metrics is not None:
                    # Extra top-level key: old readers only read "entries".
                    document["metrics"] = metrics.as_dict()
                if trace is not None:
                    # Where this sweep's Chrome span trace will land.
                    document["trace"] = str(trace)
                payload = json.dumps(document, indent=2)
                tmp = path.with_suffix(path.suffix + ".tmp")
                tmp.write_text(payload)
                if path.exists():
                    os.replace(path, path.with_suffix(path.suffix + ".bak"))
                tmp.replace(path)
            except OSError as error:
                _log.warning(
                    "manifest.degraded", path=str(path), why=str(error)
                )
                return False
        return True

    @staticmethod
    def _emit(stream, exp_id: str, status: str, text: str | None) -> None:
        if stream is None:
            return
        print(f"==== {exp_id} ({status}) ====", file=stream)
        if text:
            print(text, file=stream)
        print(file=stream)
