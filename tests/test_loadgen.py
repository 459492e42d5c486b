"""The loadgen driver: query sources, the closed loop, the CLI."""

from __future__ import annotations

import pytest

from repro.serve.loadgen import (
    LoadError,
    LoadReport,
    load_queries,
    run_load,
    synthetic_queries,
    write_queries,
)
from repro.serve.protocol import parse_query
from repro.serve.server import BackgroundServer, ServeConfig


class TestQuerySources:
    def test_synthetic_is_seed_deterministic(self):
        assert synthetic_queries(seed=7, count=16) == synthetic_queries(
            seed=7, count=16
        )
        assert synthetic_queries(seed=7, count=16) != synthetic_queries(
            seed=8, count=16
        )

    def test_synthetic_queries_all_parse(self):
        queries = synthetic_queries(seed=0, count=32)
        assert len(queries) == 32
        for payload in queries:
            query = parse_query(payload)
            assert query.workload in ("espresso", "sc")
            assert query.factor == 0.05

    def test_record_replay_roundtrip(self, tmp_path):
        queries = synthetic_queries(seed=3, count=8)
        path = write_queries(tmp_path / "queries.jsonl", queries)
        assert load_queries(path) == queries

    def test_load_queries_rejects_bad_line(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"workload": "espresso"}\n{broken\n')
        with pytest.raises(LoadError, match=r"queries\.jsonl:2"):
            load_queries(path)

    def test_load_queries_rejects_empty(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text("\n\n")
        with pytest.raises(LoadError, match="no queries"):
            load_queries(path)

    def test_load_queries_rejects_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="cannot read"):
            load_queries(tmp_path / "absent.jsonl")


class TestLoadReport:
    def test_render_and_percentiles(self):
        report = LoadReport(
            requests=5,
            errors=1,
            memo_hits=2,
            wall_seconds=2.5,
            latencies=[0.010, 0.020, 0.030, 0.040, 0.050],
            error_samples=["HTTP 400: b'...'"],
        )
        assert report.throughput == 2.0
        # Bucket-resolution quantile over LATENCY_BUCKETS: the rank-3
        # sample (0.030) lands in the 0.050 le-bucket, clamped to the
        # observed max — identical derivation to the server's histogram.
        assert report.p50_ms == 50.0
        text = report.render()
        assert "requests" in text and "latency p99" in text
        assert "error sample: HTTP 400" in text


class TestRunLoad:
    def test_bad_url(self):
        with pytest.raises(LoadError, match="url must be"):
            run_load("ftp://nope", [{}])

    def test_bad_concurrency(self):
        with pytest.raises(LoadError, match="concurrency"):
            run_load("http://127.0.0.1:1", [{}], concurrency=0)

    def test_closed_loop_against_live_server(self, tmp_path):
        """One warm pass then a concurrent replay: zero errors, all
        memo hits, sane percentiles — the CI smoke in miniature."""
        queries = synthetic_queries(seed=1, count=6, workloads=("sc",))
        config = ServeConfig(
            store_root=str(tmp_path / "memo"), jobs=1
        )
        with BackgroundServer(config) as server:
            warm = run_load(server.url, queries, concurrency=2)
            assert warm.errors == 0, warm.error_samples
            assert warm.requests == len(queries)

            replay = run_load(server.url, queries, concurrency=4)
            assert replay.errors == 0, replay.error_samples
            assert replay.requests == len(queries)
            assert replay.memo_hits == len(queries)
            assert 0 < replay.p50_ms <= replay.p99_ms
            assert replay.throughput > 0

    def test_request_budget_overrides_query_count(self, tmp_path):
        queries = synthetic_queries(seed=2, count=4, workloads=("sc",))
        config = ServeConfig(
            store_root=str(tmp_path / "memo"), jobs=1
        )
        with BackgroundServer(config) as server:
            report = run_load(
                server.url, queries, concurrency=2, requests=9
            )
            assert report.requests == 9
            assert report.errors == 0, report.error_samples

    def test_errors_are_counted_not_raised(self, tmp_path):
        config = ServeConfig(
            store_root=str(tmp_path / "memo"), jobs=1
        )
        bad = [{"workload": "espresso", "factor": -1}]
        with BackgroundServer(config) as server:
            report = run_load(server.url, bad, concurrency=1)
        assert report.requests == 1
        assert report.errors == 1
        assert "HTTP 400" in report.error_samples[0]


class TestCLI:
    def test_record_then_replay_via_cli(self, tmp_path, capsys):
        from repro.experiments.cli import main

        recorded = tmp_path / "queries.jsonl"
        assert (
            main(
                [
                    "loadgen",
                    "--record",
                    str(recorded),
                    "--seed",
                    "5",
                    "--count",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "recorded 4 queries" in out
        assert len(load_queries(recorded)) == 4

        config = ServeConfig(
            store_root=str(tmp_path / "memo"), jobs=1
        )
        with BackgroundServer(config) as server:
            code = main(
                [
                    "loadgen",
                    "--url",
                    server.url,
                    "--queries",
                    str(recorded),
                    "--concurrency",
                    "2",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "errors" in out and "latency p99" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "70000"],
            ["serve", "--port", "-5"],
            ["loadgen", "--url", "http://127.0.0.1:99999", "--requests", "1"],
            ["loadgen", "--url", "http://127.0.0.1:abc", "--requests", "1"],
        ],
    )
    def test_bad_port_is_usage_error(self, argv, capsys):
        from repro.experiments.cli import main

        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse rejects the flag itself
            code = exit_.code
        assert code == 2
        assert "port" in capsys.readouterr().err

    def test_missing_query_file_is_usage_error(self, capsys):
        from repro.experiments.cli import main

        code = main(
            ["loadgen", "--url", "http://127.0.0.1:1", "--queries", "/nope"]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err
