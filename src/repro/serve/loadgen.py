"""Workload-replay load driver: ``aurora-sim loadgen``.

Closed-loop clients against a live ``aurora-sim serve`` endpoint: each
of ``concurrency`` worker threads owns one keep-alive HTTP connection
and fires its next query the moment the previous response lands, until
the request budget (or duration) is spent.  Two query sources:

* **Recorded** — a JSON-lines file of query payloads (one per line,
  the exact ``POST /query`` body), replayed round-robin.  ``aurora-sim
  loadgen --record`` writes one from the synthetic generator so CI can
  replay a fixed workload byte-for-byte.
* **Synthetic** — a seeded generator over the Figure 8 design-space
  grid (the paper's ~58 configurations) crossed with a workload list,
  mirroring the recorded-vs-generated split of production load drivers.

The report carries p50/p99 latency, throughput, error and memo-hit
counts.

Latency percentiles are derived through
:meth:`repro.telemetry.metrics.Histogram.quantile` over the same
``LATENCY_BUCKETS`` the server's ``serve.latency_seconds`` histogram
uses, so the client-side and server-side numbers agree by construction
(bucket resolution included).
"""

from __future__ import annotations

import http.client
import itertools
import json
import pathlib
import random
import threading
import time
import urllib.parse
from dataclasses import dataclass, field

from repro.serve.protocol import parse_query
from repro.telemetry.metrics import LATENCY_BUCKETS, Histogram

#: Default synthetic workloads: small integer kernels so a smoke run
#: simulates in seconds, not minutes.
DEFAULT_WORKLOADS = ("espresso", "sc")


class LoadError(RuntimeError):
    """The load run could not execute (bad URL, unreadable query file)."""


# ------------------------------------------------------------ query sources


def synthetic_queries(
    seed: int = 0,
    *,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    factor: float = 0.05,
    count: int = 64,
) -> list[dict]:
    """``count`` seeded queries over the Figure 8 design-space grid."""
    from repro.experiments.fig8_design_space import design_points
    from repro.serve.protocol import config_to_spec

    rng = random.Random(seed)
    points = design_points()
    queries = []
    for _ in range(count):
        _label, config, _marker = rng.choice(points)
        queries.append(
            {
                "workload": rng.choice(list(workloads)),
                "factor": factor,
                "config": config_to_spec(config),
            }
        )
    return queries


def write_queries(path: str | pathlib.Path, queries: list[dict]) -> pathlib.Path:
    """Record queries as JSON lines (the replay file format)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for query in queries:
            handle.write(json.dumps(query) + "\n")
    return path


def load_queries(path: str | pathlib.Path) -> list[dict]:
    """Parse a recorded query file; every line must be a valid query."""
    path = pathlib.Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        raise LoadError(f"cannot read query file {path}: {error}") from None
    queries = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise LoadError(f"{path}:{number}: not valid JSON: {error}") from None
        parse_query(payload)  # field-named errors before any traffic
        queries.append(payload)
    if not queries:
        raise LoadError(f"{path}: no queries to replay")
    return queries


# --------------------------------------------------------------- the driver


@dataclass
class LoadReport:
    """One load run's outcome."""

    requests: int = 0
    errors: int = 0
    memo_hits: int = 0
    coalesced: int = 0
    wall_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    error_samples: list[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Completed requests per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    def latency_histogram(self) -> Histogram:
        """The run's latencies as an le-bucket histogram — the *same*
        buckets and quantile derivation as the server's
        ``serve.latency_seconds``, so both ends agree by construction."""
        hist = Histogram("loadgen.latency_seconds", LATENCY_BUCKETS)
        for value in self.latencies:
            hist.observe(value)
        return hist

    @property
    def p50_ms(self) -> float:
        return self.latency_histogram().quantile(0.50) * 1000.0

    @property
    def p99_ms(self) -> float:
        return self.latency_histogram().quantile(0.99) * 1000.0

    def render(self) -> str:
        lines = [
            f"requests      {self.requests:>10,}",
            f"errors        {self.errors:>10,}",
            f"memo hits     {self.memo_hits:>10,}",
            f"coalesced     {self.coalesced:>10,}",
            f"wall seconds  {self.wall_seconds:>10.2f}",
            f"throughput    {self.throughput:>10.1f} req/s",
            f"latency p50   {self.p50_ms:>10.2f} ms",
            f"latency p99   {self.p99_ms:>10.2f} ms",
        ]
        for sample in self.error_samples[:3]:
            lines.append(f"error sample: {sample}")
        return "\n".join(lines)


def _parse_url(url: str) -> tuple[str, int]:
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme not in ("http", "") or not parsed.hostname:
        raise LoadError(
            f"url must be http://host:port, got {url!r}"
        )
    try:
        port = parsed.port
    except ValueError as error:
        raise LoadError(f"bad port in url {url!r}: {error}") from None
    return parsed.hostname, port or 80


def run_load(
    url: str,
    queries: list[dict],
    *,
    concurrency: int = 4,
    requests: int | None = None,
    duration: float | None = None,
    timeout: float = 300.0,
) -> LoadReport:
    """Drive ``queries`` at the server; closed loop per worker thread.

    Stops after ``requests`` total completions (default: one pass over
    the query list) or ``duration`` seconds, whichever is given.
    """
    if concurrency < 1:
        raise LoadError(f"concurrency must be >= 1, got {concurrency}")
    host, port = _parse_url(url)
    total_budget = requests if requests is not None else len(queries)
    report = LoadReport()
    lock = threading.Lock()
    source = itertools.cycle(queries)
    deadline = time.monotonic() + duration if duration else None
    started = time.monotonic()

    def take() -> dict | None:
        with lock:
            if deadline is None and report.requests + in_flight[0] >= total_budget:
                return None
            if deadline is not None and time.monotonic() >= deadline:
                return None
            in_flight[0] += 1
            return next(source)

    in_flight = [0]

    def settle(latency: float, response: dict | None, problem: str | None) -> None:
        with lock:
            in_flight[0] -= 1
            report.requests += 1
            report.latencies.append(latency)
            if problem is not None:
                report.errors += 1
                if len(report.error_samples) < 8:
                    report.error_samples.append(problem)
                return
            if response.get("memo"):
                report.memo_hits += 1
            if response.get("coalesced"):
                report.coalesced += 1

    def worker() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                query = take()
                if query is None:
                    return
                body = json.dumps(query)
                begin = time.monotonic()
                problem = None
                response: dict | None = None
                try:
                    connection.request(
                        "POST", "/query", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    raw = connection.getresponse()
                    payload = raw.read()
                    if raw.status != 200:
                        problem = f"HTTP {raw.status}: {payload[:200]!r}"
                    else:
                        response = json.loads(payload)
                except (OSError, http.client.HTTPException,
                        json.JSONDecodeError) as error:
                    problem = f"{type(error).__name__}: {error}"
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                settle(time.monotonic() - begin, response, problem)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=worker, daemon=True, name=f"loadgen-{i}")
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.monotonic() - started
    return report
