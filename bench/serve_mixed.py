"""serve-mixed: closed-loop mixed traffic against ``aurora-sim serve``.

The benchmark process is the load generator: two threads, each owning
one keep-alive connection, send the next query as soon as the previous
answer lands (callers of the service -- scripts, explorers -- wait for
each reply).  One query in four is a never-seen (workload, config) pair
drawn without replacement from the 13 workloads outside the hot set x
the 58 Figure 8 configs; the others are uniform over the hot set
(espresso and sc x the 58 configs), which set-up warms.  A round is 100
completed requests.

Set-up, timed as ``setup_s``: build every serve trace into a fresh
trace cache (``workloads.py fill``), start the server on an ephemeral
port with a fresh memo store, wait for ``/readyz`` 200, and warm the hot
set.  After the timed requests the server gets SIGTERM, and a seeded
sample of 32 answers is re-simulated directly (``workloads.py check``)
and compared exactly.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import random
import re
import signal
import threading
import time

from procs import PYTHON, WORKER, BenchError, Child, bench_env
from workloads import FACTOR

HOT_WORKLOADS = ("espresso", "sc")
#: One never-seen query per block of this many requests (a 25% miss mix).
BLOCK = 4
#: Step through the 58 grid configs (coprime, so every config comes up).
CONFIG_STRIDE = 17
CONNECTIONS = 2
REQUESTS_PER_ROUND = 100
SAMPLE = 32
#: Longest a child of this workload may take to start, warm or stop.
CHILD_TIMEOUT = 120.0
_SERVING = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")


class Server:
    """One started ``aurora-sim serve`` process and its set-up time."""

    def __init__(self, child: Child, port: int, cache: pathlib.Path) -> None:
        self.child = child
        self.port = port
        self.cache = cache
        self.setup_s = 0.0

    def get(self, path: str) -> int:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            return response.status
        finally:
            connection.close()

    def stop(self) -> float:
        """SIGTERM, drain, reap; returns the server's peak RSS in MB."""
        self.child.proc.send_signal(signal.SIGTERM)
        code = self.child.wait(CHILD_TIMEOUT)
        if code not in (0, 5):  # 5: drained after a signal
            raise BenchError(f"serve exited {code} on SIGTERM")
        return self.child.peak_rss_mb


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, tmp: pathlib.Path, max_requests=None) -> None:
        from repro.explore import get_space
        from repro.serve.protocol import config_to_spec
        from repro.workloads.registry import FP_SUITE, INTEGER_SUITE

        self.seed = seed
        self.tmp = tmp
        self.space = get_space("fig8")
        self._specs = [config_to_spec(c.config) for c in self.space]
        rng = random.Random(seed)
        points = range(len(self.space))
        self.hot = [(w, i) for w in HOT_WORKLOADS for i in points]
        # Stratified so that every seed offers the same load.  Misses
        # run one at a time on the single simulation thread, so a miss
        # waits for the one before it: the cycle order of the cold
        # workloads (their traces differ 7x in cost) sets the latency
        # tail, and the seed only rotates it.  Each workload walks the
        # grid from a seeded start with a stride coprime to 58, and each
        # block of 4 requests holds exactly one miss, at a seeded
        # position.
        cold = [w for w in INTEGER_SUITE + FP_SUITE if w not in HOT_WORKLOADS]
        shift = rng.randrange(len(cold))
        cold = cold[shift:] + cold[:shift]
        starts = {w: rng.randrange(len(points)) for w in cold}
        self.stream = []
        for rank in points:
            for workload in cold:
                config = (starts[workload] + rank * CONFIG_STRIDE) % len(points)
                block = [rng.choice(self.hot) for _ in range(BLOCK - 1)]
                block.insert(rng.randrange(BLOCK), (workload, config))
                self.stream.extend(block)
        if max_requests is not None:
            del self.stream[max_requests:]

    def _body(self, item: tuple[str, int]) -> bytes:
        workload, index = item
        return json.dumps(
            {"workload": workload, "factor": FACTOR, "config": self._specs[index]}
        ).encode()

    # ------------------------------------------------------------ server

    def start(self, label: str, trace_path: pathlib.Path | None = None) -> Server:
        """Set up one server from scratch; ``Server.setup_s`` times it."""
        cache = self.tmp / f"cache-{label}"
        env = bench_env(cache)
        started = time.perf_counter()
        with Child([PYTHON, str(WORKER), "fill"], env=env, cwd=self.tmp) as fill:
            if fill.wait(CHILD_TIMEOUT) != 0:
                raise BenchError("serve-mixed: trace fill failed")
        args = [
            PYTHON, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--jobs", "1", "--sample-interval", "0",
            "--store", str(self.tmp / f"memo-{label}"),
        ]
        if trace_path is not None:
            args += ["--trace", str(trace_path)]
        log = self.tmp / f"serve-{label}.log"
        with log.open("w") as handle:
            child = Child(args, env=env, cwd=self.tmp, stdout=handle)
        try:
            server = self._wait_ready(child, log, cache)
            warm = self.drive(server, self.hot, seconds=None)
            if not all(record["ok"] for record in warm):
                raise BenchError("serve-mixed: warming the hot set failed")
        except BaseException:
            child.close()
            raise
        server.setup_s = time.perf_counter() - started
        return server

    @staticmethod
    def _wait_ready(child: Child, log: pathlib.Path, cache: pathlib.Path) -> Server:
        """The server once it announced its port and ``/readyz`` is 200."""
        deadline = time.monotonic() + CHILD_TIMEOUT
        server = None
        while time.monotonic() < deadline and child.proc.poll() is None:
            if server is None:
                match = _SERVING.search(log.read_text())
                if match:
                    server = Server(child, int(match.group(1)), cache)
            elif server.get("/readyz") == 200:
                return server
            time.sleep(0.01)
        raise BenchError("serve-mixed: server did not become ready")

    # -------------------------------------------------------------- load

    def drive(self, server: Server, items, seconds: float | None) -> list[dict]:
        """Closed loop over ``items`` on two connections.

        Stops issuing when the items run out or ``seconds`` have passed;
        returns one record per request, in completion order.
        """
        lock = threading.Lock()
        position = iter(range(len(items)))
        records: list[dict] = []
        started = time.perf_counter()

        def client() -> None:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=CHILD_TIMEOUT
            )
            try:
                while True:
                    with lock:
                        index = next(position, None)
                    if index is None or (
                        seconds is not None
                        and time.perf_counter() - started >= seconds
                    ):
                        return
                    record = {"index": index, "ok": False}
                    body = self._body(items[index])
                    sent = time.perf_counter()
                    try:
                        connection.request(
                            "POST", "/query", body=body,
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        payload = json.loads(response.read())
                        record["ok"] = response.status == 200
                        if record["ok"]:
                            record["memo"] = payload["memo"]
                            record["coalesced"] = payload["coalesced"]
                            record["stats"] = payload["stats"]
                    except (OSError, http.client.HTTPException, ValueError, KeyError):
                        connection.close()  # reconnects on the next request
                    done = time.perf_counter()
                    record["latency_ms"] = (done - sent) * 1e3
                    record["done"] = done - started
                    with lock:
                        records.append(record)
            finally:
                connection.close()

        threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records.sort(key=lambda record: record["done"])
        return records

    @staticmethod
    def round_walls(records: list[dict]) -> list[float]:
        """Seconds per 100 completed requests (a partial round if fewer)."""
        done = [record["done"] for record in records]
        walls = []
        previous = 0.0
        for end in range(REQUESTS_PER_ROUND - 1, len(done), REQUESTS_PER_ROUND):
            walls.append(done[end] - previous)
            previous = done[end]
        if not walls and done:
            walls.append(done[-1] * REQUESTS_PER_ROUND / len(done))
        return walls

    def check(self, records: list[dict], cache: pathlib.Path) -> int:
        """Mismatches among a seeded sample of answers, re-simulated."""
        answers = {}
        for record in records:
            if record["ok"]:
                answers[self.stream[record["index"]]] = record["stats"]
        keys = sorted(answers)
        sample = random.Random(self.seed).sample(keys, min(SAMPLE, len(keys)))
        samples = [
            {"workload": w, "index": i, "stats": answers[(w, i)]}
            for w, i in sample
        ]
        samples_path = self.tmp / "serve-samples.json"
        result_path = self.tmp / "serve-check.json"
        samples_path.write_text(json.dumps(samples))
        with Child(
            [PYTHON, str(WORKER), "check", "--samples", str(samples_path),
             "--result", str(result_path)],
            env=bench_env(cache), cwd=self.tmp,
        ) as child:
            if child.wait(CHILD_TIMEOUT) != 0:
                raise BenchError("serve-mixed: answer check failed to run")
        return json.loads(result_path.read_text())["mismatches"]

    def timed(self, server: Server, seconds: float) -> list[dict]:
        """The timed requests, after a ``/healthz`` marker for the trace."""
        if server.get("/healthz") != 200:
            raise BenchError("serve-mixed: /healthz failed before the load")
        return self.drive(server, self.stream, seconds)
