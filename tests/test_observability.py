"""The production observability plane: structured JSON-lines logging,
Prometheus exposition, histogram quantiles and the metrics registry
(docs/OBSERVABILITY.md)."""

from __future__ import annotations

import threading

import pytest

from repro.telemetry import logging as structlog
from repro.telemetry.logging import (
    LogConfigError,
    get_logger,
    read_log,
)
from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.prom import (
    PromFormatError,
    parse_prom,
    prom_name,
    render_prom,
)


@pytest.fixture(autouse=True)
def _logging_off():
    """Every test starts and ends in the zero-overhead-off state."""
    structlog.shutdown()
    yield
    structlog.shutdown()


# ------------------------------------------------------ structured logging


class TestStructuredLogging:
    def test_disabled_is_silent(self, tmp_path, capsys):
        log = get_logger("test")
        log.warning("some.event", detail=1)
        assert capsys.readouterr().err == ""

    def test_configured_file_gets_json_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        structlog.configure(str(path))
        get_logger("cache").warning("cache.checksum_failure", path="x.npy")
        get_logger("serve").info("serve.start", port=8311)
        structlog.shutdown()
        records = read_log(path)
        assert [r["event"] for r in records] == [
            "cache.checksum_failure",
            "serve.start",
        ]
        first = records[0]
        assert first["component"] == "cache"
        assert first["level"] == "WARNING"
        assert first["path"] == "x.npy"
        assert isinstance(first["ts"], float)

    def test_level_filtering(self, tmp_path):
        path = tmp_path / "log.jsonl"
        structlog.configure(str(path), level="WARNING")
        log = get_logger("test")
        log.info("quiet.event")
        log.warning("loud.event")
        structlog.shutdown()
        assert [r["event"] for r in read_log(path)] == ["loud.event"]

    def test_append_mode_across_reconfigure(self, tmp_path):
        """Reconfiguring (as a pool worker does) appends, not clobbers."""
        path = tmp_path / "log.jsonl"
        structlog.configure(str(path))
        get_logger("parent").info("first.event")
        structlog.configure(str(path))  # simulate a worker re-opening
        get_logger("worker").info("second.event")
        structlog.shutdown()
        assert [r["event"] for r in read_log(path)] == [
            "first.event",
            "second.event",
        ]

    def test_span_correlation(self, tmp_path):
        from repro.telemetry import tracing
        from repro.telemetry.tracing import SpanTracer

        path = tmp_path / "log.jsonl"
        structlog.configure(str(path))
        tracer = SpanTracer("feedbeef1234")
        tracing.set_tracer(tracer)
        try:
            with tracer.span("experiment", "fig4"):
                get_logger("runner").warning("runner.interrupted")
        finally:
            tracing.set_tracer(None)
        structlog.shutdown()
        (record,) = read_log(path)
        assert record["trace_id"] == "feedbeef1234"
        assert record["span_id"]

    def test_bad_level_raises(self, tmp_path):
        with pytest.raises(LogConfigError, match="LOUD"):
            structlog.configure(str(tmp_path / "l.jsonl"), level="LOUD")

    def test_unopenable_path_raises(self, tmp_path):
        with pytest.raises(LogConfigError, match="cannot open"):
            structlog.configure(str(tmp_path / "absent" / "l.jsonl"))

    def test_configure_from_env(self, tmp_path):
        path = tmp_path / "env.jsonl"
        structlog.configure_from_env(
            {structlog.ENV_LOG: str(path), structlog.ENV_LOG_LEVEL: "ERROR"}
        )
        log = get_logger("test")
        log.warning("dropped.event")
        log.error("kept.event")
        structlog.shutdown()
        assert [r["event"] for r in read_log(path)] == ["kept.event"]

    def test_current_config_for_pool_propagation(self, tmp_path):
        assert structlog.current_config() is None
        path = tmp_path / "log.jsonl"
        structlog.configure(str(path), level="DEBUG")
        assert structlog.current_config() == (str(path), "DEBUG")

    def test_read_log_rejects_junk(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="log.jsonl:2"):
            read_log(path)

    def test_validate_environment_rejects_bad_level_and_dir(self, tmp_path):
        from repro.robustness.validation import (
            EnvValidationError,
            validate_environment,
        )

        with pytest.raises(EnvValidationError, match="REPRO_LOG_LEVEL"):
            validate_environment({"REPRO_LOG_LEVEL": "LOUD"})
        with pytest.raises(EnvValidationError, match="names a directory"):
            validate_environment({"REPRO_LOG": str(tmp_path)})
        with pytest.raises(EnvValidationError, match="set but empty"):
            validate_environment({"REPRO_LOG": "  "})
        validate_environment(
            {"REPRO_LOG": "stderr", "REPRO_LOG_LEVEL": "debug"}
        )  # aliases and lowercase levels are fine


# --------------------------------------------------- prometheus exposition


def _loaded_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(17)
    registry.gauge("serve.in_flight").set(3)
    registry.gauge("serve.unset_gauge")  # no value: skipped in prom
    hist = registry.histogram("serve.latency_seconds", (0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        hist.observe(value)
    return registry


class TestPromExposition:
    def test_name_mapping(self):
        assert prom_name("serve.memo.hit_rate") == "serve_memo_hit_rate"

    def test_render_parse_roundtrip(self):
        text = render_prom(_loaded_registry())
        doc = parse_prom(text)
        assert doc["types"]["serve_requests_total"] == "counter"
        assert doc["types"]["serve_latency_seconds"] == "histogram"
        assert doc["samples"]["serve_requests_total"] == 17.0
        assert doc["samples"]["serve_in_flight"] == 3.0
        assert doc["samples"]['serve_latency_seconds_bucket{le="0.01"}'] == 1.0
        assert (
            doc["samples"]['serve_latency_seconds_bucket{le="+Inf"}'] == 4.0
        )
        assert doc["samples"]["serve_latency_seconds_count"] == 4.0
        assert doc["samples"]["serve_latency_seconds_sum"] == pytest.approx(
            5.555
        )
        assert "serve_unset_gauge" not in doc["samples"]

    def test_counters_render_as_integers(self):
        text = render_prom(_loaded_registry())
        line = [l for l in text.splitlines()
                if l.startswith("serve_requests_total ")][0]
        assert line == "serve_requests_total 17"

    def test_parse_rejects_sample_before_type(self):
        with pytest.raises(PromFormatError, match="TYPE"):
            parse_prom("loose_metric 1\n")

    def test_parse_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        with pytest.raises(PromFormatError, match="cumulative"):
            parse_prom(text)

    def test_parse_rejects_inf_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        with pytest.raises(PromFormatError, match="count"):
            parse_prom(text)

    def test_parse_rejects_duplicates(self):
        text = "# TYPE c_total counter\nc_total 1\nc_total 2\n"
        with pytest.raises(PromFormatError, match="duplicate"):
            parse_prom(text)


# ------------------------------------------------------- histogram quantile


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        assert Histogram("h", (1.0, 2.0)).quantile(0.99) == 0.0

    def test_fraction_bounds(self):
        hist = Histogram("h", (1.0,))
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_clamps_to_observed_max(self):
        """The p99 of all-tiny samples must not report the bucket bound."""
        hist = Histogram("h", LATENCY_BUCKETS)
        for _ in range(100):
            hist.observe(0.0003)
        assert hist.quantile(0.99) == 0.0003

    def test_overflow_returns_observed_max(self):
        hist = Histogram("h", (0.01,))
        hist.observe(5.0)
        assert hist.quantile(0.99) == 5.0

    def test_bucket_resolution(self):
        hist = Histogram("h", (0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5):
            hist.observe(value)
        assert hist.quantile(0.25) == 0.01
        assert hist.quantile(0.75) == 0.1
        assert hist.quantile(1.0) == 0.5  # clamped to observed max


# -------------------------------------------------------- metrics registry


class TestRegistryEdgeCases:
    def test_cross_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x.thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x.thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x.thing", (1.0,))

    @pytest.mark.parametrize(
        "bad", ["", "9starts.with.digit", "has space", "has-dash", "unié"]
    )
    def test_invalid_names_rejected(self, bad):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="metric name"):
            registry.counter(bad)

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("c.hits")
        hist = registry.histogram("c.lat", (0.5,))

        def hammer():
            for _ in range(1000):
                counter.inc()
                hist.observe(0.1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000
        assert hist.count == 8000
        assert hist.bucket_counts[0] == 8000

    def test_as_dict_exposition_roundtrip(self):
        """as_dict and the prom text agree on every sample."""
        registry = _loaded_registry()
        doc = parse_prom(render_prom(registry))
        snapshot = registry.as_dict()
        assert doc["samples"]["serve_requests_total"] == snapshot[
            "counters"
        ]["serve.requests"]
        hist = snapshot["histograms"]["serve.latency_seconds"]
        assert doc["samples"]["serve_latency_seconds_count"] == hist["count"]
