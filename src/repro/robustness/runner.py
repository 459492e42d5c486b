"""Fault-tolerant experiment execution with checkpoint/resume.

``run_all`` used to be a bare loop: the first crash threw away every
finished experiment and a hung one blocked the sweep forever.
:class:`ResilientRunner` replaces that with:

* **Isolation** — every attempt runs on an executor and comes back as an
  envelope; any exception (including in ``render()``) is contained and
  recorded, and a per-experiment wall-clock timeout stops hung runs
  instead of blocking the sweep.
* **One scheduling loop, two executors** — ``jobs`` only picks the
  executor the loop submits to.  ``jobs=1`` (the default) runs attempts
  in the sweep's own process: in the calling thread, or on a daemon
  thread when a timeout is set, which an expired timeout can only
  *abandon* (threads cannot be killed).  Results are the drivers' live
  objects, so closures work and nothing is pickled.  ``jobs > 1`` runs
  them in worker *processes* (a ``ProcessPoolExecutor``): multi-core
  execution outside the GIL, hard timeouts (the worker is killed), and
  containment of segfault-class worker deaths.  At most ``jobs``
  experiments hold the main executor at once, so every submitted
  attempt is running and its timeout clock starts at submission; at
  ``jobs=1`` each experiment is checkpointed before the next starts.
* **Retry** — failures classified as transient
  (:class:`~repro.robustness.faults.TransientFault` and
  :class:`OSError`) are retried with bounded exponential backoff
  (:data:`RETRY_BACKOFF_S` doubling up to :data:`RETRY_BACKOFF_MAX_S`);
  permanent failures are not retried, they are reported.
* **Checkpointing** — every completed experiment's rendered report is
  written to a JSON manifest keyed by ``(experiment id, factor, code
  hash)``.  A re-run with the same key skips finished work and re-runs
  only what failed; a code change or different factor invalidates the
  key, so stale results are never reused.
* **Partial-results report** — the runner always finishes and emits a
  :class:`RunReport` listing succeeded / failed / checkpoint-skipped
  experiments with their causes, per-experiment wall time, the worker
  that ran each one, and persistent trace-cache hit/miss counts (see
  :mod:`repro.workloads.trace_cache`), summed over the experiment's
  attempts.

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

Deterministic fault injection (the pool faults of a
:class:`~repro.robustness.chaos.ChaosPlan`) wraps each attempt in a
picklable :class:`~repro.robustness.faults.InjectedFault` carrying the
loop's attempt and execution numbers, which is how the tests exercise
every path above without flaky sleeps.

Worker-death attribution.  When a worker process dies (segfault, OOM
kill, ``SIGKILL``), ``ProcessPoolExecutor`` breaks the *whole* pool and
fails every in-flight future, so the culprit cannot be identified
directly.  Every experiment in flight is a suspect: the runner rebuilds
the pool and re-runs the suspects through a single-worker quarantine
pool, one at a time.  If the quarantine pool breaks too, the experiment
running in it is the culprit and is marked failed; innocent bystanders
complete normally.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
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
from typing import Callable, Mapping, NamedTuple

from repro.core.kernel import reuse_snapshot
from repro.func.prepared import prepare_snapshot
from repro.robustness.faults import InjectedFault, TransientFault
from repro.robustness.signals import GRACEFUL_SIGNALS, GracefulSignals
from repro.telemetry import tracing
from repro.telemetry import logging as structlog
from repro.telemetry.logging import get_logger
from repro.telemetry.metrics import MetricsRegistry, publish_stats
from repro.telemetry.tracing import Span, SpanTracer
from repro.workloads import trace_cache

_log = get_logger("runner")

MANIFEST_VERSION = 1
#: Default manifest location (relative to ``out_dir`` when one is given).
MANIFEST_NAME = "manifest.json"
#: Retry ``n`` of a transient failure waits
#: ``min(RETRY_BACKOFF_S * 2**(n-1), RETRY_BACKOFF_MAX_S)`` seconds.
RETRY_BACKOFF_S = 0.25
RETRY_BACKOFF_MAX_S = 2.0


def _chaos_check(site: str) -> None:
    """Chaos fault-site hook (lazy import: chaos pulls in this module's
    package, so a top-level import would be order-sensitive)."""
    from repro.robustness import chaos

    chaos.fs_check(site)


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
    #: Who executed the final attempt: "main" (the sweep's own process,
    #: ``jobs=1``) or "pid-<n>" (a pool worker).
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


#: The work counters an attempt's envelope carries; an outcome holds
#: their sum over every attempt the experiment made.
_TALLY = {
    "cache_hits": 0,
    "cache_misses": 0,
    "cache_degraded": 0,
    "cache_checksum_failures": 0,
    "prepares": 0,
    "prepare_seconds": 0.0,
    "sim_reused": 0,
}


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


def _retryable(error: BaseException) -> bool:
    """True for a failure worth retrying (a transient one)."""
    return isinstance(error, (TransientFault, OSError))


# --------------------------------------------------------------- executors


def _run_attempt(fn, factor: float, tracer=None, anchor=None) -> dict:
    """Run one attempt; return its envelope instead of raising.

    The envelope carries the result (or the exception, for the loop to
    classify) and the work counters the attempt moved.  ``anchor`` — an
    in-process attempt's span — parents the spans the attempt opens on
    whichever thread runs it.
    """
    base_hits, base_misses = trace_cache.snapshot()
    base_degraded, base_checksum = trace_cache.health_snapshot()
    base_prepares, base_prepare_seconds = prepare_snapshot()
    base_reused = reuse_snapshot()
    started = time.monotonic()
    lineage = (
        tracer.adopt(anchor) if anchor is not None else contextlib.nullcontext()
    )
    with lineage:
        try:
            result = fn(factor)
            envelope = {"ok": True, "text": result.render(), "result": result}
        except KeyboardInterrupt:
            raise  # a second SIGINT/SIGTERM: the sweep aborts hard
        except BaseException as error:  # noqa: BLE001 - classified by the loop
            envelope = {"ok": False, "error": error}
    hits, misses = trace_cache.snapshot()
    degraded, checksum = trace_cache.health_snapshot()
    prepares, prepare_seconds = prepare_snapshot()
    envelope.update(
        wall=time.monotonic() - started,
        worker="main",
        spans=[],
        cache_hits=hits - base_hits,
        cache_misses=misses - base_misses,
        cache_degraded=degraded - base_degraded,
        cache_checksum_failures=checksum - base_checksum,
        prepares=prepares - base_prepares,
        prepare_seconds=prepare_seconds - base_prepare_seconds,
        sim_reused=reuse_snapshot() - base_reused,
    )
    return envelope


class _InProcessExecutor(concurrent.futures.Executor):
    """The ``jobs=1`` executor: attempts run in the sweep's own process.

    Without a timeout ``submit`` runs the call in the calling thread and
    returns a finished future.  With one, the call runs on a daemon
    thread, which the loop abandons when the timeout expires.
    """

    def __init__(self, threaded: bool) -> None:
        self.threaded = threaded

    def submit(self, fn, /, *args):
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_running_or_notify_cancel()

        def call() -> None:
            try:
                future.set_result(fn(*args))
            except KeyboardInterrupt:
                raise  # the hard abort leaves the loop, not the future
            except BaseException as error:  # noqa: BLE001 - to the loop
                future.set_exception(error)

        if self.threaded:
            threading.Thread(target=call, name="attempt", daemon=True).start()
        else:
            call()
        return future


# Everything a ProcessPoolExecutor ships to a worker must pickle, so the
# worker entry points live at module level.


#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL_S = 0.5


def _exit_with_parent(parent_pid: int) -> None:
    """Exit this worker once ``parent_pid`` is no longer its parent.

    A parent killed with SIGKILL runs no cleanup, and a worker blocked
    reading the call queue (whose write end it inherited) never sees
    EOF; the kernel re-parents the orphan, which this notices.
    """
    while os.getppid() == parent_pid:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _pool_initializer(
    parent_pid: int,
    cache_root: str,
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

    Workers ignore SIGINT and SIGTERM, including a
    :class:`GracefulSignals` handler inherited through fork: the parent
    alone drains or aborts, and stops its workers with SIGKILL.  A
    daemon thread exits the worker when ``parent_pid`` dies, so a
    parent killed outright leaves no workers behind.
    """
    for signum in GRACEFUL_SIGNALS:
        signal.signal(signum, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent,
        args=(parent_pid,),
        name="parent-watch",
        daemon=True,
    ).start()
    trace_cache.configure(cache_root)
    if chaos_plan is not None:
        from repro.robustness import chaos

        chaos.activate(chaos_plan)
    if log_destination is not None:
        structlog.configure(log_destination, log_level)


def process_pool(
    jobs: int, chaos_plan=None
) -> concurrent.futures.ProcessPoolExecutor:
    """A pool of ``jobs`` workers sharing this process's trace cache.

    Workers also inherit the installed structured-log sink and, when
    given, activate ``chaos_plan``.  Fork is preferred where available:
    it inherits the imported simulator modules instead of re-importing
    them per worker.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    log_destination, log_level = structlog.current_config() or (None, "INFO")
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_pool_initializer,
        initargs=(
            os.getpid(),
            str(trace_cache.default_cache().root),
            chaos_plan,
            log_destination,
            log_level,
        ),
    )


def _pool_worker(fn, factor: float, trace_id: str | None = None) -> dict:
    """Run one attempt in a worker process; return a picklable envelope.

    Exceptions that do not pickle degrade to a :class:`RuntimeError`
    naming them, results that do not pickle to their rendered text.

    ``trace_id`` (the sweep's span-correlation id) switches on span
    tracing inside the worker: a worker-local tracer records the
    attempt's trace_build / cache_lookup / simulate spans, and the
    envelope ships them back (relative to the attempt start) for the
    parent to graft under the attempt span.
    """
    found = tracing.current_tracer()
    worker_tracer = SpanTracer(trace_id) if trace_id is not None else None
    if worker_tracer is not None:
        tracing.set_tracer(worker_tracer)
    try:
        envelope = _run_attempt(fn, factor)
    finally:
        tracing.set_tracer(found)
    envelope["worker"] = f"pid-{os.getpid()}"
    if worker_tracer is not None:
        envelope["spans"] = worker_tracer.finished_records()
    if envelope["ok"]:
        try:
            pickle.dumps(envelope["result"])
        except Exception:  # noqa: BLE001 - unpicklable result
            envelope["result"] = None  # the parent substitutes its text
    else:
        error = envelope["error"]
        try:
            pickle.dumps(error)
        except Exception:  # noqa: BLE001 - unpicklable exception
            envelope["error"] = RuntimeError(f"{type(error).__name__}: {error}")
    return envelope


class _Flight(NamedTuple):
    """One submitted attempt, as the loop tracks it."""

    exp_id: str
    pool: str  # "main" or "solo" (the quarantine pool)
    submitted: float  # the timeout basis
    span: Span | None  # the attempt span, when tracing


class ResilientRunner:
    """Run a mapping of experiments fault-tolerantly (see module docs)."""

    def __init__(
        self,
        manifest_path: str | pathlib.Path | None = None,
        *,
        timeout: float | None = None,
        retries: int = 2,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        jobs: int = 1,
        tracer: SpanTracer | None = None,
        chaos_plan=None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be > 0 (or None)")
        if not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
        self.manifest_path = (
            pathlib.Path(manifest_path) if manifest_path else None
        )
        self.timeout = timeout
        self.retries = retries
        self.jobs = jobs
        #: Optional host-side span tracer (see repro.telemetry.tracing);
        #: ``None`` keeps every span site a single falsy check.
        self.tracer = tracer
        #: Optional chaos plan (see repro.robustness.chaos).  Its pool
        #: faults are injected into the attempts of their experiments;
        #: the whole plan ships to pool workers through the initializer
        #: so filesystem-fault budgets replay per process.  The caller
        #: activates it in the parent.
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
        spans, including worker-side spans at ``jobs > 1``);
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
            """Record one finished experiment."""
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
                    # A worker's result that did not survive pickling.
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
        interrupt.install()
        try:
            if todo:
                self._schedule(
                    todo,
                    factor,
                    finish,
                    sweep_span=sweep_span,
                    tracks=tracks,
                    should_stop=interrupt.should_stop,
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
        # the simulated work.
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

    # ------------------------------------------------------------ the loop

    def _executor(self, workers: int) -> concurrent.futures.Executor:
        """The main executor: in-process at ``jobs=1``, else a pool."""
        if self.jobs == 1:
            return _InProcessExecutor(threaded=self.timeout is not None)
        return process_pool(workers, self.chaos_plan)

    def _schedule(
        self, todo, factor, finish, *, sweep_span, tracks, should_stop
    ) -> None:
        """Run ``todo`` to an outcome each (see module docs for semantics).

        The single-threaded event loop below owns all bookkeeping;
        attempts only ever return envelopes, so there is no shared
        mutable state to lock.  An experiment holds one of the main
        executor's ``workers`` slots from admission until it finishes,
        including while it waits out a retry backoff; a quarantined
        experiment holds the quarantine pool instead.

        Span bookkeeping is manual (``begin``/``finish``) because
        experiment lifetimes interleave in this loop: an experiment span
        opens at first submission and closes when ``finish`` runs, and an
        attempt span opens at submission and closes with its outcome.
        In-process attempts record their spans straight under it; a
        worker's spans come back in its envelope and are grafted there.
        Attempts lost to a pool break or a co-tenant's timeout record no
        span: they are re-run.
        """
        fns = dict(todo)
        workers = min(self.jobs, len(fns))
        tracer = self.tracer
        trace_id = tracer.trace_id if tracer is not None else None
        exp_spans: dict[str, Span] = {}
        pending = deque(fns)
        #: Which executor each started, unfinished experiment holds.
        lane: dict[str, str] = {}
        attempts = dict.fromkeys(fns, 0)
        #: Every submission, including re-runs the retry ledger does not
        #: bill (quarantine, resubmits) — the schedule basis for
        #: kill/straggler faults (see InjectedFault).
        executions = dict.fromkeys(fns, 0)
        started_at: dict[str, float] = {}
        tallies: dict[str, dict] = {}
        waiting: list[tuple[float, str]] = []  # backoff retries (resume_at)
        quarantine: deque[tuple[str, bool]] = deque()  # (exp_id, billed)
        pools = {"main": self._executor(workers)}
        flights: dict[concurrent.futures.Future, _Flight] = {}

        def submit(exp_id: str, pool_name: str, billed: bool = True) -> None:
            if billed:
                attempts[exp_id] += 1
            executions[exp_id] += 1
            lane[exp_id] = pool_name
            started_at.setdefault(exp_id, self._clock())
            tallies.setdefault(exp_id, dict(_TALLY))
            fn = fns[exp_id]
            plan = self.chaos_plan
            fault = plan.pool_fault(exp_id) if plan is not None else None
            if fault is not None:
                fn = InjectedFault(
                    fn, exp_id, fault, attempts[exp_id], executions[exp_id]
                )
            span = None
            if tracer is not None:
                if exp_id not in exp_spans:
                    exp_spans[exp_id] = tracer.begin(
                        f"experiment:{exp_id}",
                        "experiment",
                        parent=sweep_span,
                        track=tracks[exp_id],
                    )
                span = tracer.begin(
                    f"attempt#{attempts[exp_id]}",
                    "attempt",
                    parent=exp_spans[exp_id],
                )
                if pool_name == "solo":
                    span.annotate(quarantine=True)
            submitted = self._clock()
            pool = pools[pool_name]
            if isinstance(pool, _InProcessExecutor):
                future = pool.submit(_run_attempt, fn, factor, tracer, span)
            else:
                future = pool.submit(_pool_worker, fn, factor, trace_id)
            flights[future] = _Flight(exp_id, pool_name, submitted, span)

        def close_attempt(flight, status, envelope=None, error=None) -> None:
            """Record one attempt span (a no-op when not tracing)."""
            span = flight.span
            if span is None:
                return
            span.annotate(status=status)
            if error is not None:
                span.annotate(error=error)
            if envelope is not None:
                span.annotate(worker=envelope["worker"])
                tracer.graft(
                    envelope["spans"],
                    parent=span,
                    offset=tracer.now() - envelope["wall"],
                    prefix=span.span_id,
                )
            tracer.finish(span)

        def conclude(exp_id, status, error=None, *, worker="main",
                     text=None, result=None) -> None:
            del lane[exp_id]
            outcome = ExperimentOutcome(
                exp_id,
                status,
                attempts[exp_id],
                self._clock() - started_at.pop(exp_id),
                error,
                worker=worker,
                **tallies.pop(exp_id),
            )
            span = exp_spans.pop(exp_id, None)
            if span is not None:
                span.annotate(
                    status=status, attempts=outcome.attempts, worker=worker
                )
                if error:
                    span.annotate(error=error)
                tracer.finish(span)
            finish(exp_id, outcome, text, result)

        def drop_pool(pool_name: str) -> list[_Flight]:
            """Tear a pool down; return the attempts it was running."""
            lost = [f for f, flight in flights.items() if flight.pool == pool_name]
            self._teardown(pools.pop(pool_name))
            if pool_name == "main":
                pools["main"] = self._executor(workers)
            return [flights.pop(future) for future in lost]

        try:
            while pending or flights or waiting or quarantine:
                if should_stop():
                    # Graceful shutdown: launch nothing more, let the
                    # attempts in flight finish; the rest is reported
                    # as interrupted.
                    pending.clear()
                    waiting.clear()
                    quarantine.clear()
                    if not flights:
                        break
                now = self._clock()
                for entry in [w for w in waiting if w[0] <= now]:
                    waiting.remove(entry)
                    exp_id = entry[1]
                    if lane[exp_id] == "solo":
                        quarantine.appendleft((exp_id, True))
                    else:
                        submit(exp_id, "main")
                while pending and (
                    sum(held == "main" for held in lane.values()) < workers
                ):
                    submit(pending.popleft(), "main")
                if quarantine and not any(
                    flight.pool == "solo" for flight in flights.values()
                ):
                    if "solo" not in pools:
                        pools["solo"] = process_pool(1, self.chaos_plan)
                    exp_id, billed = quarantine.popleft()
                    submit(exp_id, "solo", billed)
                if not flights:
                    # Only a pending backoff retry remains; sleep it out.
                    self._sleep(max(0.0, min(at for at, _e in waiting) - now))
                    continue
                # Poll (rather than block) whenever a deadline could pass.
                poll = 0.05 if (self.timeout is not None or waiting) else None
                done, _pending = concurrent.futures.wait(
                    set(flights),
                    timeout=poll,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                broken: set[str] = set()
                for future in done:
                    flight = flights[future]
                    exp_id = flight.exp_id
                    try:
                        envelope = future.result()
                    except BrokenProcessPool:
                        # Swept below with the rest of the broken pool.
                        broken.add(flight.pool)
                        continue
                    except BaseException as error:  # noqa: BLE001
                        # e.g. the callable failed to pickle at submit time
                        del flights[future]
                        cause = f"{type(error).__name__}: {error}"
                        close_attempt(flight, "failed", error=cause)
                        conclude(exp_id, "failed", cause)
                        continue
                    del flights[future]
                    tally = tallies[exp_id]
                    for key in tally:
                        tally[key] += envelope[key]
                    if envelope["ok"]:
                        close_attempt(flight, "ok", envelope)
                        conclude(
                            exp_id,
                            "ok",
                            worker=envelope["worker"],
                            text=envelope["text"],
                            result=envelope["result"],
                        )
                        continue
                    error = envelope["error"]
                    cause = f"{type(error).__name__}: {error}"
                    close_attempt(flight, "failed", envelope, cause)
                    if _retryable(error) and attempts[exp_id] <= self.retries:
                        delay = min(
                            RETRY_BACKOFF_S * (2 ** (attempts[exp_id] - 1)),
                            RETRY_BACKOFF_MAX_S,
                        )
                        waiting.append((self._clock() + delay, exp_id))
                        continue
                    conclude(
                        exp_id, "failed", cause, worker=envelope["worker"]
                    )
                for pool_name in broken:
                    lost = drop_pool(pool_name)
                    if pool_name == "solo":
                        # One worker, one experiment: the culprit is known.
                        for flight in lost:
                            cause = (
                                "worker process died (crash or kill) "
                                "while running this experiment"
                            )
                            close_attempt(flight, "failed", error=cause)
                            conclude(flight.exp_id, "failed", cause)
                        continue
                    # Every experiment in flight is a suspect: re-run
                    # them one at a time in the quarantine pool, so a
                    # repeat death convicts exactly one.
                    for flight in lost:
                        lane[flight.exp_id] = "solo"
                        quarantine.append((flight.exp_id, False))
                if self.timeout is None:
                    continue
                now = self._clock()
                expired = {
                    flight.pool
                    for flight in flights.values()
                    if now - flight.submitted >= self.timeout
                }
                for pool_name in expired:
                    # Hard enforcement: tear the whole pool down (worker
                    # identity is opaque), fail the victims, resubmit
                    # their co-tenants unbilled.
                    abandoned = isinstance(
                        pools[pool_name], _InProcessExecutor
                    )
                    for flight in drop_pool(pool_name):
                        if now - flight.submitted < self.timeout:
                            submit(flight.exp_id, pool_name, billed=False)
                            continue
                        cause = (
                            f"experiment {flight.exp_id!r} exceeded "
                            f"{self.timeout:g}s wall-clock budget"
                            + (
                                " and was abandoned"
                                if abandoned
                                else "; worker process killed"
                            )
                        )
                        close_attempt(flight, "timeout", error=cause)
                        conclude(flight.exp_id, "timeout", cause)
        finally:
            for executor in pools.values():
                self._teardown(executor)

    # ------------------------------------------------------------ internals

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
