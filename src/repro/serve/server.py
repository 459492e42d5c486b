"""The asyncio HTTP front end: ``aurora-sim serve``.

A deliberately small HTTP/1.1 server on stdlib asyncio streams (no new
dependencies): request line + headers + Content-Length body, keep-alive
connections, JSON in and out.  Three routes:

* ``POST /query`` — one design-space query (see
  :mod:`repro.serve.protocol`); answers from the memo store or through
  the :class:`~repro.serve.batcher.QueryBatcher`.
* ``GET /metrics`` — the full ``serve.*`` MetricsRegistry snapshot as
  JSON, with p50/p99 latency gauges derived at scrape time from the
  ``serve.latency_seconds`` le-bucket histogram
  (:meth:`~repro.telemetry.metrics.Histogram.quantile` — the same
  derivation loadgen reports, so the two agree by construction);
  ``GET /metrics?format=prom`` renders the registry in Prometheus text
  exposition format instead (:mod:`repro.telemetry.prom`).
* ``GET /healthz`` — liveness plus the in-flight gauge.
* ``GET /readyz`` — readiness: 503 until the listener is up and the
  batch dispatcher can accept work, 200 after.
* ``GET /timeseries`` — the in-process sampling ring's recent samples
  (present when ``--sample-interval`` is positive).

Every request runs under a ``request`` span with nested ``validate``,
``batch_wait``, ``simulate_batch`` (recorded inside ``simulate_many``)
and ``store`` children, grafted into the same
:class:`~repro.telemetry.tracing.SpanTracer` the sweep runner uses;
``--trace`` exports the Chrome trace on shutdown.

Shutdown is the PR 6 contract via the shared
:class:`~repro.robustness.signals.GracefulSignals`: the first
SIGINT/SIGTERM stops accepting connections, drains in-flight batches,
flushes the memo store and exits 5 (``EXIT_INTERRUPTED``); a second
signal aborts hard.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import threading
from dataclasses import dataclass, field

from repro.experiments.exit_codes import EXIT_INTERRUPTED, EXIT_OK
from repro.robustness.signals import GracefulSignals
from repro.serve.batcher import QueryBatcher
from repro.serve.protocol import (
    QueryError,
    parse_query,
    workload_error_text,
)
from repro.serve.store import MemoStore
from repro.telemetry import tracing
from repro.telemetry.logging import get_logger
from repro.telemetry.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.telemetry.prom import render_prom
from repro.telemetry.timeseries import TimeSeriesRing, sample_registry

from repro.workloads.registry import WorkloadError

_log = get_logger("serve")

#: ``/timeseries`` returns at most this many trailing ring samples.
TIMESERIES_SCRAPE_LIMIT = 256
#: Request bodies past this are rejected up front with a 413 (a MiB of
#: JSON is an attack or a bug, not a machine configuration).
MAX_BODY_BYTES = 1 << 20

_JSON_HEADERS = "Content-Type: application/json\r\n"


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample set)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class ServeConfig:
    """Everything ``aurora-sim serve`` needs to run."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is announced on stdout
    jobs: int = 1
    store_root: str = "results/.sim_memo"
    trace_out: str | None = None
    quiet: bool = False
    extra_metrics: dict = field(default_factory=dict)
    #: Registry-sampling interval (seconds) for the time-series ring;
    #: 0 disables sampling entirely (no ring, no task — zero overhead).
    sample_interval: float = 1.0
    #: Ring capacity (samples kept in memory).
    ring_capacity: int = 2048
    #: Optional JSONL persistence path for the ring (crash-tolerant;
    #: reloaded on restart so history survives).
    ring_out: str | None = None


class ServeApp:
    """Route table + per-request accounting over one shared batcher."""

    def __init__(
        self,
        store: MemoStore,
        batcher: QueryBatcher,
        metrics: MetricsRegistry,
        *,
        ring: TimeSeriesRing | None = None,
    ) -> None:
        self.store = store
        self.batcher = batcher
        self.metrics = metrics
        self.ring = ring
        #: Readiness: False until the listener is up and the batch
        #: dispatcher can accept work; ``/readyz`` answers 503 before.
        self.ready = False
        metrics.counter("serve.requests")
        metrics.counter("serve.errors")
        metrics.gauge("serve.in_flight").set(0)
        metrics.histogram("serve.latency_seconds", LATENCY_BUCKETS)

    def mark_ready(self) -> None:
        self.ready = True

    # ------------------------------------------------------------- routes

    async def handle_query(self, body: bytes) -> tuple[int, dict]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": f"body is not valid JSON: {error}"}
        try:
            with tracing.span("validate", "serve"):
                query = parse_query(payload)
        except QueryError as error:
            return 400, {"error": str(error)}
        except WorkloadError as error:
            return 400, {"error": workload_error_text(error)}
        stats, meta = await self.batcher.submit(query)
        return 200, {
            "workload": query.workload,
            "factor": query.factor,
            "fingerprint": query.fingerprint,
            "stats": stats.to_dict(),
            **meta,
        }

    def refresh_gauges(self) -> None:
        """Scrape-time derived gauges (hit rate, latency quantiles)."""
        queries = self.metrics.counter("serve.queries").value
        hits = self.metrics.counter("serve.memo.hits").value
        self.metrics.gauge("serve.memo.hit_rate").set(
            hits / queries if queries else 0.0
        )
        latency = self.metrics.histogram("serve.latency_seconds")
        self.metrics.gauge("serve.latency_p50_seconds").set(
            latency.quantile(0.50)
        )
        self.metrics.gauge("serve.latency_p99_seconds").set(
            latency.quantile(0.99)
        )
        for name, value in self.store.snapshot().items():
            self.metrics.gauge(f"serve.store.{name}").set(value)

    def metrics_payload(self) -> dict:
        self.refresh_gauges()
        return self.metrics.as_dict()

    def metrics_prom(self) -> str:
        self.refresh_gauges()
        return render_prom(self.metrics)

    def healthz_payload(self) -> dict:
        return {
            "status": "ok",
            "in_flight": self.metrics.gauge("serve.in_flight").value or 0,
        }

    def readyz_payload(self) -> tuple[int, dict]:
        if self.ready:
            return 200, {"status": "ready"}
        return 503, {"status": "starting"}

    def timeseries_payload(self) -> dict:
        if self.ring is None:
            return {"sampling": False, "samples": []}
        samples = self.ring.samples()[-TIMESERIES_SCRAPE_LIMIT:]
        return {"sampling": True, "samples": samples}

    # --------------------------------------------------------- connection

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _FramingError as error:
                    # The stream position is unknown past a bad frame:
                    # answer once and drop the connection.
                    self.metrics.counter("serve.requests").inc()
                    self.metrics.counter("serve.errors").inc()
                    await _write_response(
                        writer, error.status, {"error": str(error)}, False
                    )
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload = await self._route(method, path, query, body)
                await _write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels idle keep-alive readers; ending the
            # task cleanly here keeps shutdown quiet (re-raising would
            # make the streams connection callback log every one).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                pass

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> tuple[int, dict | str]:
        in_flight = self.metrics.gauge("serve.in_flight")
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.metrics.counter("serve.requests").inc()
        in_flight.set((in_flight.value or 0) + 1)
        try:
            with tracing.span("request", "serve", method=method, path=path):
                if path == "/query" and method == "POST":
                    status, payload = await self.handle_query(body)
                elif path == "/metrics" and method == "GET":
                    if "format=prom" in query.split("&"):
                        status, payload = 200, self.metrics_prom()
                    else:
                        status, payload = 200, self.metrics_payload()
                elif path == "/healthz" and method == "GET":
                    status, payload = 200, self.healthz_payload()
                elif path == "/readyz" and method == "GET":
                    status, payload = self.readyz_payload()
                elif path == "/timeseries" and method == "GET":
                    status, payload = 200, self.timeseries_payload()
                else:
                    status, payload = 404, {
                        "error": f"no route for {method} {path}"
                    }
        except Exception as error:  # noqa: BLE001 - a 500, not a crash
            status, payload = 500, {
                "error": f"{type(error).__name__}: {error}"
            }
            _log.error(
                "serve.request_failed", method=method, path=path,
                exception=type(error).__name__, detail=str(error),
            )
        finally:
            in_flight.set((in_flight.value or 1) - 1)
        elapsed = loop.time() - started
        self.metrics.histogram("serve.latency_seconds").observe(elapsed)
        if status >= 400:
            self.metrics.counter("serve.errors").inc()
        return status, payload


# ------------------------------------------------------------- HTTP wire


class _FramingError(Exception):
    """A request whose length or request line cannot be trusted."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as error:  # past the stream's line-length limit
        raise _FramingError(400, "request or header line too long") from error


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, str, dict, bytes] | None:
    """One HTTP/1.1 request, or None at a clean connection close.

    Raises :class:`_FramingError` (400 or 413) when the request line, a
    header line or ``Content-Length`` leaves the next request's start
    unknown.
    """
    try:
        request_line = await _readline(reader)
    except (ConnectionResetError, OSError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) not in (2, 3):
        raise _FramingError(400, "malformed request line")
    method, raw_path = parts[0].upper(), parts[1]
    path, _, query = raw_path.partition("?")
    headers: dict[str, str] = {}
    while True:
        line = await _readline(reader)
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    if not re.fullmatch(r"[0-9]+", raw_length):
        raise _FramingError(400, f"invalid Content-Length: {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise _FramingError(
            413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, query, headers, body


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    413: "Content Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | str,
    keep_alive: bool,
) -> None:
    if isinstance(payload, str):  # pre-rendered text (Prometheus scrape)
        body = payload.encode("utf-8")
        content_type = "Content-Type: text/plain; version=0.0.4\r\n"
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        content_type = _JSON_HEADERS
    reason = _STATUS_TEXT.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"{content_type}"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


# --------------------------------------------------------------- runners


async def run_server(
    config: ServeConfig,
    *,
    stream=None,
    ready: "threading.Event | None" = None,
    stop_event: asyncio.Event | None = None,
    port_holder: dict | None = None,
) -> int:
    """Serve until the first SIGINT/SIGTERM (or ``stop_event``); drain,
    flush, and return the exit code (5 when signalled, 0 otherwise)."""
    out = stream if stream is not None else sys.stdout
    loop = asyncio.get_running_loop()
    stop = stop_event if stop_event is not None else asyncio.Event()

    tracer = None
    if config.trace_out:
        tracer = tracing.SpanTracer()
        tracing.set_tracer(tracer)

    metrics = MetricsRegistry()
    store = MemoStore(config.store_root, stream=out if not config.quiet else None)
    batcher = QueryBatcher(store, metrics, jobs=config.jobs)
    ring: TimeSeriesRing | None = None
    if config.sample_interval > 0:
        if config.ring_out:
            # Crash-tolerant: reload whatever history survived, keep
            # appending to the same JSONL file.
            ring = TimeSeriesRing.load(
                config.ring_out,
                capacity=config.ring_capacity,
                persist=True,
            )
        else:
            ring = TimeSeriesRing(config.ring_capacity)
    app = ServeApp(store, batcher, metrics, ring=ring)

    def _notify(name: str) -> None:
        loop.call_soon_threadsafe(stop.set)
        _log.warning("serve.signal", signal=name)
        if not config.quiet:
            print(
                f"warning: received {name}; draining in-flight batches "
                "and flushing the memo store (repeat to abort hard)",
                file=out,
            )

    async def _sample_loop() -> None:
        while True:
            await asyncio.sleep(config.sample_interval)
            app.refresh_gauges()
            ring.append(sample_registry(metrics))

    signals = GracefulSignals(notify=_notify)
    signals.install()
    server = await asyncio.start_server(
        app.handle_connection, config.host, config.port
    )
    port = server.sockets[0].getsockname()[1]
    if port_holder is not None:
        port_holder["port"] = port
        port_holder["app"] = app
    if not config.quiet:
        print(f"serving on http://{config.host}:{port}", file=out, flush=True)
    _log.info(
        "serve.start", host=config.host, port=port, jobs=config.jobs,
        sample_interval=config.sample_interval,
    )
    sampler = (
        loop.create_task(_sample_loop()) if ring is not None else None
    )
    # The listener is up and the batcher can dispatch: ready for traffic.
    app.mark_ready()
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        app.ready = False
        server.close()
        await server.wait_closed()
        if sampler is not None:
            sampler.cancel()
            try:
                await sampler
            except asyncio.CancelledError:
                pass
        await batcher.drain()
        batcher.shutdown()
        persisted = store.flush()
        if ring is not None:
            ring.close()
        signals.restore()
        if tracer is not None:
            tracing.set_tracer(None)
            tracer.write_chrome(config.trace_out)
        _log.info(
            "serve.drained", persisted=persisted, store=str(store.root),
            signalled=signals.signal is not None,
        )
        if not config.quiet:
            print(
                f"drained: {persisted} memoized results persisted to "
                f"{store.root}",
                file=out,
                flush=True,
            )
    return EXIT_INTERRUPTED if signals.signal is not None else EXIT_OK


def serve_forever(config: ServeConfig, *, stream=None) -> int:
    """Blocking entry point for the CLI verb."""
    return asyncio.run(run_server(config, stream=stream))


class BackgroundServer:
    """A server on a daemon thread — tests and the loadgen self-drive.

    Starts on an ephemeral port, exposes ``url``, and stops cleanly via
    :meth:`stop` (the same drain path as the signal handler, minus the
    signal).
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.config.quiet = True
        self._ready = threading.Event()
        self._holder: dict = {}
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._exit_code: int | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> int:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            return await run_server(
                self.config,
                ready=self._ready,
                stop_event=self._stop_event,
                port_holder=self._holder,
            )

        self._exit_code = asyncio.run(main())

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("server failed to start within 60s")
        return self

    @property
    def port(self) -> int:
        return self._holder["port"]

    @property
    def app(self) -> ServeApp:
        return self._holder["app"]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def stop(self, timeout: float = 60) -> int:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("server failed to stop within the timeout")
        code = self._exit_code
        return code if code is not None else EXIT_OK

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
