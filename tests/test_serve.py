"""The serve subsystem: protocol, memo store, batching, HTTP end to end."""

from __future__ import annotations

import io
import json
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
from repro.serve.server import BackgroundServer, ServeConfig, percentile
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

    def test_key_shape_matches_manifest_discipline(self):
        key = MemoStore.key("espresso", 0.05, "abcd", "c0de")
        assert key == "espresso|factor=0.05|config=abcd|code=c0de"


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
        window=0.05,
        jobs=1,
    )
    with BackgroundServer(config) as handle:
        yield handle


def _grid_queries(count: int) -> list[dict]:
    """Distinct-config espresso queries off the Figure 8 grid."""
    from repro.experiments.fig8_design_space import _design_points

    queries = []
    seen = set()
    for _label, config, _marker in _design_points():
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
        status, body = _get(server.port, "/nope")
        assert status == 404
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
        batcher = QueryBatcher(store, metrics, window=0.01)
        try:
            app = ServeApp(store, batcher, metrics)
            status, payload = app.readyz_payload()
            assert status == 503
            assert payload["status"] == "starting"
            app.mark_ready()
            assert app.readyz_payload()[0] == 200
        finally:
            batcher.executor.shutdown(wait=False)

    def test_timeseries_route(self, server):
        import time

        _post(server.port, _grid_queries(1)[0])
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, body = _get(server.port, "/timeseries")
            assert status == 200
            assert body["sampling"] is True
            if body["samples"]:
                break
            time.sleep(0.2)
        sample = body["samples"][-1]
        assert "serve.requests" in sample["values"]
        assert "serve.latency_seconds.count" in sample["values"]

    def test_top_renders_against_live_server(self, server):
        import io

        from repro.serve.top import run_top

        _post(server.port, _grid_queries(1)[0])
        out = io.StringIO()
        rc = run_top(
            server.url, interval=0.05, iterations=2, stream=out, clear=False
        )
        assert rc == 0
        text = out.getvalue()
        assert "aurora-sim top" in text
        for label in ("req/s", "p99 ms", "memo hit %", "batch width"):
            assert label in text
        assert text.count("aurora-sim top") == 2  # two frames, no clear

    def test_top_unreachable_raises(self):
        from repro.serve.top import TopError, run_top

        with pytest.raises(TopError, match="cannot scrape"):
            run_top("http://127.0.0.1:1", iterations=1, clear=False)


class TestLoadgenSLOExitCodes:
    def _drive(self, server, *slo_flags) -> int:
        from repro.experiments.cli import main

        return main(
            [
                "loadgen",
                "--url",
                server.url,
                "--count",
                "4",
                "--factor",
                str(FACTOR),
                "--concurrency",
                "2",
                *slo_flags,
            ]
        )

    def test_generous_slos_exit_ok(self, server, capsys):
        rc = self._drive(
            server, "--slo", "p99:300", "--slo", "error-rate:0.99"
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "slo p99:300" in out and "ok" in out

    def test_impossible_slo_exits_6(self, server, capsys):
        from repro.experiments.exit_codes import EXIT_SLO_VIOLATION

        rc = self._drive(server, "--slo", "p99:0.000001")
        out = capsys.readouterr().out
        assert rc == EXIT_SLO_VIOLATION == 6, out
        assert "VIOLATED" in out


def _espresso_scale(factor: float) -> int:
    from repro.experiments.common import _MIN_SCALES
    from repro.workloads.registry import get_spec

    spec = get_spec("espresso")
    return max(_MIN_SCALES["espresso"], int(spec.default_scale * factor))


class TestShutdown:
    def test_background_stop_drains_and_returns_ok(self, tmp_path):
        config = ServeConfig(
            store_root=str(tmp_path / "memo"), window=0.02, jobs=1
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


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.99) == 0.0

    def test_orders_input(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 1.0) == 5.0

    def test_query_group_key(self):
        query = Query(
            workload="espresso", factor=0.5, config=BASELINE, fingerprint="x"
        )
        assert query.group == ("espresso", 0.5)
