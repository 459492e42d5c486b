"""The serve subsystem: protocol, memo store, batching, HTTP end to end."""

from __future__ import annotations

import asyncio
import concurrent.futures
import io
import json
import socket
import threading
import http.client

import pytest

from repro.core.config import BASELINE, FPIssuePolicy, FPUConfig, LARGE
from repro.core.stats import SimStats, StallKind
from repro.serve.protocol import (
    Query,
    QueryError,
    config_from_spec,
    config_to_spec,
    parse_query,
    query_to_payload,
    workload_error_text,
)
from repro.serve.server import BackgroundServer, ServeConfig
from repro.serve.store import MemoStore
from repro.workloads.registry import WorkloadError

FACTOR = 0.05  # espresso scale 12 (its floor): seconds, not minutes


# ----------------------------------------------------------------- protocol


class TestProtocol:
    def test_config_spec_roundtrip_exact(self):
        config = LARGE.with_(
            issue_width=1,
            mem_latency=35,
            fpu=FPUConfig(
                issue_policy=FPIssuePolicy.SINGLE_ISSUE, mul_latency=7
            ),
        )
        spec = config_to_spec(config)
        json.dumps(spec)  # must be JSON-serializable as-is
        assert config_from_spec(spec) == config

    def test_model_shorthand_with_overrides(self):
        query = parse_query(
            {
                "workload": "espresso",
                "factor": FACTOR,
                "config": {"model": "baseline", "issue_width": 1},
            }
        )
        assert query.config == BASELINE.with_(issue_width=1)
        assert len(query.fingerprint) == 16

    def test_query_payload_roundtrip(self):
        query = parse_query(
            {"workload": "sc", "factor": 0.1, "config": {"model": "large"}}
        )
        again = parse_query(query_to_payload(query))
        assert again == query

    @pytest.mark.parametrize(
        ("payload", "needle"),
        [
            ({"workload": "espresso", "factor": -1}, "factor"),
            ({"workload": "espresso", "factor": "x"}, "factor"),
            ({"workload": ""}, "workload"),
            ({"factor": 1.0}, "workload"),
            ({"workload": "espresso", "bogus": 1}, "bogus"),
            (
                {"workload": "espresso", "config": {"issue_width": 3}},
                "issue_width",
            ),
            (
                {"workload": "espresso", "config": {"nonfield": 1}},
                "nonfield",
            ),
            (
                {"workload": "espresso", "config": {"model": "huge"}},
                "model",
            ),
            (
                {
                    "workload": "espresso",
                    "config": {"fpu": {"mul_latency": 0}},
                },
                "mul_latency",
            ),
            (
                {
                    "workload": "espresso",
                    "config": {"fpu": {"issue_policy": "warp"}},
                },
                "issue_policy",
            ),
        ],
    )
    def test_field_named_errors(self, payload, needle):
        with pytest.raises(QueryError, match=needle):
            parse_query(payload)

    def test_unknown_workload_matches_cli_message(self, capsys):
        """The 400 body is the CLI's error text, kernel list included."""
        from repro.experiments.cli import main

        with pytest.raises(WorkloadError) as excinfo:
            parse_query({"workload": "nosuchkernel"})
        served = workload_error_text(excinfo.value)

        assert main(["run", "nosuchkernel"]) == 2
        cli_text = capsys.readouterr().err
        assert served.strip() == cli_text.strip()
        assert "valid kernels:" in served
        assert "espresso" in served


# ----------------------------------------------------- stats serialization


class TestSimStatsDict:
    def test_roundtrip_equal_and_byte_stable(self):
        stats = SimStats(
            instructions=40, cycles=90, icache_accesses=5, icache_hits=2
        )
        stats.stall_cycles[StallKind.LOAD] = 7
        again = SimStats.from_dict(stats.to_dict())
        assert again == stats
        assert json.dumps(again.to_dict()) == json.dumps(stats.to_dict())

    def test_field_order_is_definition_order(self):
        payload = SimStats().to_dict()
        names = list(payload)
        assert names[0] == "instructions"
        assert list(payload["stall_cycles"]) == [
            kind.value for kind in StallKind
        ]

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("cycles"),
            lambda d: d.update(cycles="ninety"),
            lambda d: d.update(surprise=1),
            lambda d: d["stall_cycles"].update(warp=1),
            lambda d: d.update(stall_cycles=[]),
        ],
    )
    def test_corrupt_payloads_raise_value_error(self, mangle):
        payload = SimStats(instructions=40, cycles=90).to_dict()
        mangle(payload)
        with pytest.raises(ValueError):
            SimStats.from_dict(payload)


# --------------------------------------------------------------- memo store


def _stats(cycles: int = 90) -> SimStats:
    stats = SimStats(instructions=40, cycles=cycles)
    stats.stall_cycles[StallKind.LOAD] = 7
    return stats


class TestMemoStore:
    def test_roundtrip_identical(self, tmp_path):
        store = MemoStore(tmp_path, code_hash="c0de")
        stats = _stats()
        store.put("espresso", FACTOR, "f" * 16, stats)
        again = MemoStore(tmp_path, code_hash="c0de").get(
            "espresso", FACTOR, "f" * 16
        )
        assert again == stats
        assert json.dumps(again.to_dict()) == json.dumps(stats.to_dict())

    def test_code_hash_change_invalidates_with_warning(self, tmp_path):
        stream = io.StringIO()
        MemoStore(tmp_path, code_hash="old1").put(
            "espresso", FACTOR, "f" * 16, _stats()
        )
        store = MemoStore(tmp_path, code_hash="new2", stream=stream)
        assert store.get("espresso", FACTOR, "f" * 16) is None
        assert store.invalidated == 1
        assert (
            "memo invalidated (code changed): old=old1 new=new2"
            in stream.getvalue()
        )
        # the stale entry is gone; a recompute re-populates in place
        store.put("espresso", FACTOR, "f" * 16, _stats(99))
        assert store.get("espresso", FACTOR, "f" * 16) == _stats(99)

    def test_corrupt_entry_self_heals(self, tmp_path):
        store = MemoStore(tmp_path, code_hash="c0de")
        store.put("espresso", FACTOR, "f" * 16, _stats())
        path = store.path_for("espresso", FACTOR, "f" * 16)
        path.write_text('{"torn": ')
        fresh = MemoStore(tmp_path, code_hash="c0de", stream=io.StringIO())
        assert fresh.get("espresso", FACTOR, "f" * 16) is None
        assert fresh.corrupt == 1
        assert not path.exists()

    def test_torn_stats_payload_self_heals(self, tmp_path):
        store = MemoStore(tmp_path, code_hash="c0de")
        store.put("espresso", FACTOR, "f" * 16, _stats())
        path = store.path_for("espresso", FACTOR, "f" * 16)
        payload = json.loads(path.read_text())
        del payload["stats"]["cycles"]
        path.write_text(json.dumps(payload))
        fresh = MemoStore(tmp_path, code_hash="c0de")
        assert fresh.get("espresso", FACTOR, "f" * 16) is None
        assert fresh.corrupt == 1

    def test_default_code_hash_is_code_fingerprint(self, tmp_path):
        from repro.robustness.runner import code_fingerprint

        assert MemoStore(tmp_path).code_hash == code_fingerprint()

    def test_memory_tier_evicts_to_disk(self, tmp_path, monkeypatch):
        from repro.serve import store as store_module

        monkeypatch.setattr(store_module, "MEMORY_ENTRIES", 3)
        store = MemoStore(tmp_path, code_hash="c0de")
        prints = [f"{i:016x}" for i in range(4)]  # cap + 1 keys
        for cycles, fingerprint in enumerate(prints, start=90):
            store.put("espresso", FACTOR, fingerprint, _stats(cycles))
        assert len(store._memory) == 3
        # The oldest key left the memory tier: a disk hit, not a miss.
        assert store.get("espresso", FACTOR, prints[0]) == _stats(90)
        assert (store.hits_disk, store.hits_memory, store.misses) == (1, 0, 0)
        # Reading it back made it the newest; the next oldest went.
        assert len(store._memory) == 3
        assert store.get("espresso", FACTOR, prints[2]) == _stats(92)
        assert store.get("espresso", FACTOR, prints[1]) == _stats(91)
        assert (store.hits_disk, store.hits_memory) == (2, 1)

    def test_key_shape_matches_manifest_discipline(self):
        key = MemoStore.key("espresso", 0.05, "abcd", "c0de")
        assert key == "espresso|factor=0.05|config=abcd|code=c0de"


# ----------------------------------------------------------- dispatch policy


class _Call:
    """One executor call of the gated fake: blocks until released."""

    def __init__(self, workload: str, factor: float, configs: list) -> None:
        self.workload = workload
        self.factor = factor
        self.configs = configs
        self.error: BaseException | None = None
        self.gate = threading.Event()

    def release(self, error: BaseException | None = None) -> None:
        self.error = error
        self.gate.set()


class _GatedExecutor(concurrent.futures.Executor):
    """Records every ``_simulate_group`` call; each answers (stats with
    ``cycles = mem_latency``) only once the test releases it."""

    def __init__(self) -> None:
        self.calls: list[_Call] = []
        self.open = False  # when set, new calls answer at once
        self._threads: list[threading.Thread] = []

    def submit(self, fn, /, *args, **kwargs):
        call = _Call(*args)
        self.calls.append(call)
        if self.open:
            call.gate.set()
        future: concurrent.futures.Future = concurrent.futures.Future()

        def run() -> None:
            call.gate.wait()
            if call.error is not None:
                future.set_exception(call.error)
            else:
                future.set_result(
                    [_stats(config.mem_latency) for config in call.configs]
                )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        self._threads.append(thread)
        return future

    def release_all(self) -> None:
        self.open = True
        for call in self.calls:
            call.gate.set()

    def shutdown(self, wait: bool = True, **_kwargs) -> None:
        self.release_all()
        for thread in self._threads:
            thread.join()


def _miss(mem_latency: int, workload: str = "espresso") -> Query:
    return parse_query(
        {
            "workload": workload,
            "factor": FACTOR,
            "config": {"model": "baseline", "mem_latency": mem_latency},
        }
    )


async def _turns(count: int = 5) -> None:
    """Let the event loop run ``count`` turns (no wall-clock wait)."""
    for _ in range(count):
        await asyncio.sleep(0)


async def _answer(task: asyncio.Task):
    """The task's result; the timeout only guards against a hang."""
    return await asyncio.wait_for(task, timeout=60)


class TestDispatchPolicy:
    """Slot-gated dispatch, driven turn by turn through a gated fake
    executor so no assertion depends on timing."""

    def _run(self, tmp_path, scenario, jobs: int = 1) -> None:
        from repro.serve.batcher import QueryBatcher
        from repro.telemetry.metrics import MetricsRegistry

        executor = _GatedExecutor()
        store = MemoStore(tmp_path / "memo", code_hash="c0de")
        batcher = QueryBatcher(
            store, MetricsRegistry(), executor=executor, jobs=jobs
        )
        try:
            asyncio.run(scenario(batcher, executor, store))
        finally:
            executor.shutdown()

    def test_idle_batcher_dispatches_lone_miss_at_once(self, tmp_path):
        async def scenario(batcher, executor, store):
            query = _miss(20)
            task = asyncio.create_task(batcher.submit(query))
            await _turns()
            assert [len(call.configs) for call in executor.calls] == [1]
            executor.calls[0].release()
            stats, meta = await _answer(task)
            assert stats == _stats(20)
            assert meta == {"memo": False, "coalesced": False, "batch_width": 1}
            assert store.get("espresso", FACTOR, query.fingerprint) == stats

        self._run(tmp_path, scenario)

    def test_queries_arriving_while_busy_go_out_as_one_dispatch(
        self, tmp_path
    ):
        async def scenario(batcher, executor, store):
            first = asyncio.create_task(batcher.submit(_miss(20)))
            await _turns()
            waiting = [
                asyncio.create_task(batcher.submit(_miss(latency)))
                for latency in (21, 22, 23, 22)
            ]
            await _turns()
            assert len(executor.calls) == 1  # the slot is busy
            executor.calls[0].release()
            await _answer(first)
            await _turns()
            assert len(executor.calls) == 2
            second = executor.calls[1]
            assert [c.mem_latency for c in second.configs] == [21, 22, 23]
            second.release()
            answers = [await _answer(task) for task in waiting]
            assert [stats.cycles for stats, _ in answers] == [21, 22, 23, 22]
            assert [meta["batch_width"] for _, meta in answers] == [3] * 4
            assert [meta["coalesced"] for _, meta in answers] == [
                False, False, False, True,
            ]
            assert len(executor.calls) == 2

        self._run(tmp_path, scenario)

    def test_in_flight_fingerprint_attaches_to_its_dispatch(self, tmp_path):
        async def scenario(batcher, executor, store):
            first = asyncio.create_task(batcher.submit(_miss(30)))
            await _turns()
            assert len(executor.calls) == 1
            again = asyncio.create_task(batcher.submit(_miss(30)))
            await _turns()
            assert len(executor.calls) == 1  # no second simulation
            executor.calls[0].release()
            stats, meta = await _answer(first)
            shared, shared_meta = await _answer(again)
            assert shared is stats
            assert meta["coalesced"] is False
            assert shared_meta == {
                "memo": False, "coalesced": True, "batch_width": 1,
            }
            assert batcher.metrics.counter("serve.coalesced").value == 1
            assert len(executor.calls) == 1

        self._run(tmp_path, scenario)

    def test_two_slots_run_two_dispatches_and_a_third_waits(self, tmp_path):
        async def scenario(batcher, executor, store):
            tasks = [
                asyncio.create_task(batcher.submit(_miss(40, workload)))
                for workload in ("espresso", "sc")
            ]
            await _turns()
            assert len(executor.calls) == 2
            assert all(not call.gate.is_set() for call in executor.calls)
            tasks.append(asyncio.create_task(batcher.submit(_miss(41))))
            await _turns()
            assert len(executor.calls) == 2
            executor.calls[1].release()
            await _answer(tasks[1])
            await _turns()
            assert len(executor.calls) == 3
            assert [c.mem_latency for c in executor.calls[2].configs] == [41]
            executor.release_all()
            for task in tasks:
                await _answer(task)

        self._run(tmp_path, scenario, jobs=2)

    def test_drain_dispatches_and_answers_waiting_groups(self, tmp_path):
        async def scenario(batcher, executor, store):
            running = asyncio.create_task(batcher.submit(_miss(50)))
            await _turns()
            waiting = asyncio.create_task(batcher.submit(_miss(51, "sc")))
            await _turns()
            assert len(executor.calls) == 1
            drain = asyncio.create_task(batcher.drain())
            await _turns()
            assert not drain.done()
            executor.release_all()
            await _answer(drain)
            assert len(executor.calls) == 2
            assert running.done() and waiting.done()
            assert waiting.result()[0] == _stats(51)

        self._run(tmp_path, scenario)

    def test_failed_dispatch_reaches_every_waiter_and_retries(self, tmp_path):
        async def scenario(batcher, executor, store):
            tasks = [
                asyncio.create_task(batcher.submit(_miss(60)))
                for _ in range(2)
            ]
            await _turns()
            assert len(executor.calls) == 1
            executor.calls[0].release(RuntimeError("worker died"))
            for task in tasks:
                with pytest.raises(RuntimeError, match="worker died"):
                    await _answer(task)
            retry = asyncio.create_task(batcher.submit(_miss(60)))
            await _turns()
            assert len(executor.calls) == 2  # simulated again, not stuck
            executor.calls[1].release()
            stats, meta = await _answer(retry)
            assert stats == _stats(60)
            assert meta["coalesced"] is False

        self._run(tmp_path, scenario)


# ------------------------------------------------------------------- server


def _post(port: int, payload: dict, timeout: float = 300.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(
            "POST",
            "/query",
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _get(port: int, path: str, timeout: float = 60.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServeConfig(
        store_root=str(tmp_path_factory.mktemp("sim-memo")),
        jobs=1,
    )
    with BackgroundServer(config) as handle:
        yield handle


def _grid_queries(count: int) -> list[dict]:
    """Distinct-config espresso queries off the Figure 8 grid."""
    from repro.experiments.fig8_design_space import design_points

    queries = []
    seen = set()
    for _label, config, _marker in design_points():
        spec = config_to_spec(config)
        key = json.dumps(spec, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        queries.append(
            {"workload": "espresso", "factor": FACTOR, "config": spec}
        )
        if len(queries) == count:
            break
    assert len(queries) == count
    return queries


class TestServerEndToEnd:
    def test_concurrent_distinct_queries_coalesce(self, server):
        """N distinct-config queries -> fewer than N kernel dispatches,
        and every response is byte-identical to a direct sweep."""
        queries = _grid_queries(6)
        before = _get(server.port, "/metrics")[1]["counters"][
            "serve.dispatches"
        ]

        results: dict[int, tuple[int, dict]] = {}

        def fire(index: int, payload: dict) -> None:
            results[index] = _post(server.port, payload)

        threads = [
            threading.Thread(target=fire, args=(index, payload))
            for index, payload in enumerate(queries)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sorted(results) == list(range(len(queries)))
        for status, payload in results.values():
            assert status == 200, payload
            assert payload["stats"]["instructions"] > 0

        after = _get(server.port, "/metrics")[1]
        dispatches = after["counters"]["serve.dispatches"] - before
        assert 0 < dispatches < len(queries)
        assert after["histograms"]["serve.batch_width"]["max"] > 1

        # Byte-identity against the direct API (one grouped trace pass,
        # the same path api.sweep_results takes per workload).
        from repro import api
        from repro.workloads.registry import get_trace

        configs = [config_from_spec(query["config"]) for query in queries]
        trace = get_trace("espresso", _espresso_scale(FACTOR))
        direct = api.simulate_many(trace, configs)
        for index in range(len(queries)):
            served = json.dumps(results[index][1]["stats"])
            fresh = json.dumps(direct[index].stats.to_dict())
            assert served == fresh, index

    def test_repeat_query_is_memoized_and_identical(self, server):
        query = _grid_queries(1)[0]
        first_status, first = _post(server.port, query)
        assert first_status == 200
        second_status, second = _post(server.port, query)
        assert second_status == 200
        assert second["memo"] is True
        assert json.dumps(second["stats"]) == json.dumps(first["stats"])
        metrics = _get(server.port, "/metrics")[1]
        assert metrics["counters"]["serve.memo.hits"] >= 1

    def test_identical_concurrent_queries_share_one_slot(self, server):
        payload = {
            "workload": "sc",
            "factor": FACTOR,
            "config": {"model": "small", "mshr_entries": 3},
        }
        results: list[dict] = []

        def fire() -> None:
            status, body = _post(server.port, payload)
            assert status == 200
            results.append(body)

        threads = [threading.Thread(target=fire) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats_texts = {json.dumps(body["stats"]) for body in results}
        assert len(stats_texts) == 1
        assert any(body["coalesced"] or body["memo"] for body in results)

    def test_validation_400s(self, server):
        status, body = _post(
            server.port, {"workload": "espresso", "factor": -2}
        )
        assert status == 400
        assert "factor" in body["error"]

        status, body = _post(
            server.port,
            {"workload": "espresso", "config": {"issue_width": 5}},
        )
        assert status == 400
        assert "issue_width" in body["error"]

    def test_json_true_in_integer_field_400s(self, server):
        # JSON true is a Python bool, which would otherwise pass as 1.
        for config, field in (
            ({"model": "baseline", "mem_latency": True}, "mem_latency"),
            ({"fpu": {"add_latency": True}}, "add_latency"),
        ):
            status, body = _post(
                server.port, {"workload": "espresso", "config": config}
            )
            assert status == 400
            assert field in body["error"]

    def test_unknown_workload_400_gives_kernel_list(self, server):
        status, body = _post(server.port, {"workload": "nosuchkernel"})
        assert status == 400
        assert body["error"].startswith("error: unknown workload")
        assert "valid kernels:" in body["error"]
        assert "espresso" in body["error"]

    def test_bad_json_400(self, server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            connection.request(
                "POST",
                "/query",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_healthz(self, server):
        status, body = _get(server.port, "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_unknown_route_404(self, server):
        for path in ("/nope", "/timeseries"):
            status, body = _get(server.port, path)
            assert status == 404, path
            assert "no route" in body["error"]

    def test_metrics_expose_serve_instruments(self, server):
        _post(server.port, _grid_queries(1)[0])
        status, metrics = _get(server.port, "/metrics")
        assert status == 200
        for name in (
            "serve.requests",
            "serve.queries",
            "serve.errors",
            "serve.memo.hits",
            "serve.memo.misses",
            "serve.dispatches",
        ):
            assert name in metrics["counters"], name
        assert "serve.batch_width" in metrics["histograms"]
        assert "serve.latency_seconds" in metrics["histograms"]
        for name in (
            "serve.in_flight",
            "serve.memo.hit_rate",
            "serve.latency_p50_seconds",
            "serve.latency_p99_seconds",
            "serve.store.stores",
        ):
            assert name in metrics["gauges"], name
        assert metrics["gauges"]["serve.latency_p50_seconds"] > 0


def _raw_exchange(port: int, data: bytes) -> bytes:
    """Send raw bytes on one connection; everything read until close."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with our unread body still queued
    return b"".join(chunks)


class TestHTTPFraming:
    """A frame the server cannot trust gets one error and a close; the
    rest of the stream is never parsed as a request."""

    FOLLOW_UP = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"

    def _assert_one_error(self, reply: bytes, status: str) -> dict:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status}".encode()), reply
        assert b"Connection: close" in head
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        return json.loads(body)

    @pytest.mark.parametrize("length", ["abc", "-5", "1_0", "+4"])
    def test_bad_content_length_400_then_close(self, server, length):
        body = b'{"workload": "espresso"}'
        request = (
            f"POST /query HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode() + body + self.FOLLOW_UP
        payload = self._assert_one_error(
            _raw_exchange(server.port, request), "400"
        )
        assert "Content-Length" in payload["error"]

    def test_oversized_content_length_413_then_close(self, server):
        from repro.serve.server import MAX_BODY_BYTES

        request = (
            f"POST /query HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode()
        self._assert_one_error(_raw_exchange(server.port, request), "413")

    def test_malformed_request_line_400_then_close(self, server):
        request = b"NONSENSE\r\n\r\n" + self.FOLLOW_UP
        payload = self._assert_one_error(
            _raw_exchange(server.port, request), "400"
        )
        assert "request line" in payload["error"]

    def test_overlong_header_line_400_then_close(self, server):
        request = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 17)
        payload = self._assert_one_error(
            _raw_exchange(server.port, request + b"\r\n\r\n"), "400"
        )
        assert "too long" in payload["error"]

    def test_server_keeps_serving_after_bad_frames(self, server):
        _raw_exchange(server.port, b"NONSENSE\r\n\r\n")
        status, body = _get(server.port, "/healthz")
        assert status == 200
        assert body["status"] == "ok"


class TestObservabilityRoutes:
    def _get_raw(self, port: int, path: str) -> tuple[int, str, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60.0
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return (
                response.status,
                response.getheader("Content-Type", ""),
                response.read(),
            )
        finally:
            connection.close()

    def test_prom_exposition_parses(self, server):
        from repro.telemetry.prom import parse_prom

        _post(server.port, _grid_queries(1)[0])
        status, content_type, body = self._get_raw(
            server.port, "/metrics?format=prom"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        doc = parse_prom(body.decode())
        assert doc["types"]["serve_requests_total"] == "counter"
        assert doc["samples"]["serve_queries_total"] >= 1
        assert doc["types"]["serve_latency_seconds"] == "histogram"
        assert doc["samples"]['serve_latency_seconds_bucket{le="+Inf"}'] == (
            doc["samples"]["serve_latency_seconds_count"]
        )

    def test_readyz_ready(self, server):
        status, body = _get(server.port, "/readyz")
        assert status == 200
        assert body["status"] == "ready"

    def test_readyz_not_ready_before_start(self, tmp_path):
        from repro.serve.batcher import QueryBatcher
        from repro.serve.server import ServeApp
        from repro.telemetry.metrics import MetricsRegistry

        store = MemoStore(tmp_path / "memo")
        metrics = MetricsRegistry()
        batcher = QueryBatcher(store, metrics)
        try:
            app = ServeApp(store, batcher, metrics)
            status, payload = app.readyz_payload()
            assert status == 503
            assert payload["status"] == "starting"
            app.mark_ready()
            assert app.readyz_payload()[0] == 200
        finally:
            batcher.executor.shutdown(wait=False)


def _espresso_scale(factor: float) -> int:
    from repro.experiments.common import _MIN_SCALES
    from repro.workloads.registry import get_spec

    spec = get_spec("espresso")
    return max(_MIN_SCALES["espresso"], int(spec.default_scale * factor))


class TestSampleIntervalShim:
    """``serve --sample-interval`` survives only as ``0``, the value
    bench/serve_mixed.py passes."""

    def test_zero_parses(self, tmp_path, monkeypatch):
        from repro.experiments.cli import main
        from repro.serve import server as server_module

        configs = []
        monkeypatch.setattr(
            server_module, "serve_forever",
            lambda config: configs.append(config) or 0,
        )
        assert main(
            ["serve", "--port", "0", "--jobs", "1", "--sample-interval",
             "0", "--store", str(tmp_path)]
        ) == 0
        assert [c.store_root for c in configs] == [str(tmp_path)]

    def test_nonzero_exits_usage(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as info:
            main(["serve", "--sample-interval", "1"])
        assert info.value.code == 2
        assert "--sample-interval" in capsys.readouterr().err


class TestBindFailure:
    def test_port_in_use_is_one_line_usage_error(self, tmp_path, capsys):
        import socket

        from repro.experiments.cli import main

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            code = main(
                ["serve", "--port", str(port), "--jobs", "1",
                 "--store", str(tmp_path)]
            )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestShutdown:
    def test_background_stop_drains_and_returns_ok(self, tmp_path):
        config = ServeConfig(
            store_root=str(tmp_path / "memo"), jobs=1
        )
        handle = BackgroundServer(config).start()
        status, _ = _post(
            handle.port,
            {"workload": "sc", "factor": FACTOR, "config": {"model": "small"}},
        )
        assert status == 200
        assert handle.stop() == 0  # programmatic stop, not a signal

    def test_sigterm_exits_5(self, tmp_path):
        """The CLI verb honours the exit-code table's EXIT_INTERRUPTED."""
        import os
        import signal as signal_module
        import subprocess
        import sys

        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.cli",
                "serve",
                "--port",
                "0",
                "--store",
                str(tmp_path / "memo"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on http://"), line
            process.send_signal(signal_module.SIGTERM)
            output, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 5, output
        assert "draining in-flight batches" in output
        assert "drained:" in output


# ---------------------------------------------------------------- utilities


class TestQueryGroupKey:
    def test_query_group_key(self):
        query = Query(
            workload="espresso", factor=0.5, config=BASELINE, fingerprint="x"
        )
        assert query.group == ("espresso", 0.5)
