"""Telemetry subsystem: event bus, analysis, metrics, CLI and runner export.

The load-bearing tests here are the cross-checks: the stall breakdown
reconstructed from STALL events must agree *exactly* with the SimStats
counters for every workload in both suites (the two accountings are
maintained by independent code paths), and running with telemetry off
must leave the simulation results byte-identical.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.config import BASELINE
from repro.core.processor import simulate_trace
from repro.core.stats import StallKind
from repro.experiments import cli
from repro.experiments.common import scaled_trace
from repro.telemetry import (
    Event,
    EventBus,
    EventKind,
    MetricsRegistry,
    NDJSONSink,
    RingBufferSink,
    StallMismatchError,
    TelemetryError,
    assert_stalls_match,
    cross_check_stalls,
    fpu_queue_occupancy,
    interval_cpi,
    load_ndjson,
    mshr_occupancy,
    occupancy_export,
    occupancy_histogram,
    occupancy_summaries,
    publish_stats,
    stall_breakdown,
    stall_timeline,
    writecache_occupancy,
)
from repro.telemetry.events import event_from_dict, iter_ndjson
from repro.telemetry.validate import validate_file
from repro.workloads.registry import FP_SUITE, INTEGER_SUITE

FACTOR = 0.05


def run_with_telemetry(name, factor=FACTOR, config=BASELINE):
    """Simulate one workload capturing the full event stream."""
    trace = scaled_trace(name, factor)
    bus = EventBus()
    ring = RingBufferSink()
    bus.attach(ring)
    result = simulate_trace(trace, config, telemetry=bus)
    return ring.events, result


# ---------------------------------------------------------------- event bus


class TestEventBus:
    def test_bus_without_sinks_is_falsy(self):
        bus = EventBus()
        assert not bus
        bus.emit(0, "test", EventKind.STALL, stall="lsu", cycles=1)  # no-op

    def test_bus_with_sink_is_truthy_and_records(self):
        bus = EventBus()
        ring = RingBufferSink()
        bus.attach(ring)
        assert bus
        bus.emit(7, "test", EventKind.RETIRE, index=0, issue=5)
        assert len(ring) == 1
        (event,) = list(ring)
        assert event.cycle == 7
        assert event.kind is EventKind.RETIRE
        assert event.fields == {"index": 0, "issue": 5}

    def test_detach_returns_bus_to_zero_cost(self):
        bus = EventBus()
        ring = RingBufferSink()
        bus.attach(ring)
        bus.detach(ring)
        assert not bus
        bus.emit(0, "test", EventKind.RETIRE, index=0)
        assert len(ring) == 0

    def test_bounded_ring_drops_oldest_and_counts(self):
        ring = RingBufferSink(capacity=2)
        bus = EventBus(ring)
        for cycle in range(5):
            bus.emit(cycle, "test", EventKind.RETIRE, index=cycle)
        assert ring.recorded == 5
        assert ring.dropped == 3
        assert [e.cycle for e in ring] == [3, 4]

    def test_ring_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_ndjson_round_trip(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        bus = EventBus(NDJSONSink(path))
        bus.emit(3, "mshr", EventKind.MSHR_ALLOC, slot=1, requested=3, wait=0)
        bus.emit(9, "mshr", EventKind.MSHR_RELEASE, slot=1)
        bus.close()
        events = load_ndjson(path)
        assert events == [
            Event(3, "mshr", EventKind.MSHR_ALLOC, slot=1, requested=3, wait=0),
            Event(9, "mshr", EventKind.MSHR_RELEASE, slot=1),
        ]

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '["a", "list"]',
            '{"source": "x", "kind": "retire"}',  # missing cycle
            '{"cycle": -1, "source": "x", "kind": "retire"}',
            '{"cycle": 0, "source": "x", "kind": "no_such_kind"}',
            '{"cycle": 0, "kind": "retire"}',  # missing source
        ],
    )
    def test_iter_ndjson_rejects_malformed_lines(self, line):
        with pytest.raises(TelemetryError):
            list(iter_ndjson([line]))

    def test_event_from_dict_round_trips_to_dict(self):
        event = Event(5, "biu", EventKind.BIU_TXN, txn="write", requested=4)
        assert event_from_dict(event.to_dict()) == event

    def test_validate_file_accepts_real_trace(self, tmp_path, capsys):
        path = tmp_path / "ok.ndjson"
        bus = EventBus(NDJSONSink(path))
        bus.emit(0, "rob", EventKind.RETIRE, index=0, issue=0)
        bus.close()
        assert validate_file(path) == 1
        with pytest.raises(TelemetryError):
            bad = tmp_path / "bad.ndjson"
            bad.write_text('{"cycle": "zero"}\n')
            validate_file(bad)


# ------------------------------------------------- event/counter cross-check


class TestStallCrossCheck:
    """Figure 6 reconstructed from events must equal the counters exactly."""

    @pytest.mark.parametrize("name", INTEGER_SUITE + FP_SUITE)
    def test_events_match_counters_exactly(self, name):
        events, result = run_with_telemetry(name)
        assert events, f"{name}: telemetry produced no events"
        assert cross_check_stalls(events, result.stats) == []
        assert_stalls_match(events, result.stats)  # must not raise

    def test_mismatch_is_reported(self):
        events, result = run_with_telemetry("compress")
        result.stats.stall_cycles[StallKind.LSU] += 1
        mismatches = cross_check_stalls(events, result.stats)
        assert len(mismatches) == 1
        assert "lsu" in mismatches[0]
        with pytest.raises(StallMismatchError):
            assert_stalls_match(events, result.stats)

    def test_timeline_buckets_sum_to_breakdown(self):
        events, _result = run_with_telemetry("compress")
        breakdown = stall_breakdown(events)
        timeline = stall_timeline(events, window=500)
        summed = {kind: 0 for kind in StallKind}
        for _start, bucket in timeline:
            for kind, cycles in bucket.items():
                summed[kind] += cycles
        assert summed == breakdown


# ------------------------------------------------------ zero overhead when off


class TestTelemetryOff:
    def test_disabled_run_is_byte_identical(self):
        trace = scaled_trace("compress", FACTOR)
        plain = simulate_trace(trace, BASELINE)
        events, instrumented = run_with_telemetry("compress")
        assert events
        assert plain.stats == instrumented.stats
        assert plain.stats.summary() == instrumented.stats.summary()
        assert plain.cpi == instrumented.cpi

    def test_sinkless_bus_records_nothing(self):
        class CountingBus(EventBus):
            emitted = 0

            def emit(self, *args, **fields):
                self.emitted += 1
                super().emit(*args, **fields)

        trace = scaled_trace("compress", FACTOR)
        bus = CountingBus()  # falsy: no probe site or structure emits
        result = simulate_trace(trace, BASELINE, telemetry=bus)
        assert bus.emitted == 0
        ring = RingBufferSink()
        bus.attach(ring)
        assert len(ring) == 0
        assert result.stats == simulate_trace(trace, BASELINE).stats

    def test_structures_default_to_no_telemetry(self):
        from repro.core.biu import BusInterfaceUnit
        from repro.core.fpu import DecoupledFPU
        from repro.core.mshr import MSHRFile
        from repro.core.prefetch import StreamBufferPool
        from repro.core.processor import AuroraProcessor
        from repro.core.writecache import WriteCache

        biu = BusInterfaceUnit(latency=17)
        assert biu.telemetry is None
        assert DecoupledFPU(BASELINE.fpu).telemetry is None
        assert WriteCache(4, 32, biu).telemetry is None
        assert StreamBufferPool(4, 2, biu).telemetry is None
        assert AuroraProcessor(BASELINE).telemetry is None
        # The timing loop emits the MSHR events itself.
        assert not hasattr(MSHRFile(2), "telemetry")


# --------------------------------------------------------------- NaN CPI


class TestEmptyTraceCpi:
    def test_empty_trace_cpi_is_nan(self):
        result = simulate_trace([], BASELINE)
        assert result.stats.instructions == 0
        assert math.isnan(result.cpi)


# -------------------------------------------------------------- occupancy


def _occ_events(pairs, enter=EventKind.MSHR_ALLOC, exit=EventKind.MSHR_RELEASE):
    events = []
    for start, end in pairs:
        events.append(Event(start, "t", enter, slot=0))
        events.append(Event(end, "t", exit, slot=0))
    return events


class TestOccupancy:
    def test_single_interval(self):
        histogram = mshr_occupancy(_occ_events([(0, 10)]))
        assert histogram.cycles_at == {1: 10}
        assert histogram.max_occupancy == 1
        assert histogram.time_weighted_mean == 1.0

    def test_overlapping_intervals_weight_by_time(self):
        # [0,10) and [5,15): occupancy 1 for 10 cycles, 2 for 5 cycles.
        histogram = mshr_occupancy(_occ_events([(0, 10), (5, 15)]))
        assert histogram.cycles_at == {1: 10, 2: 5}
        assert histogram.total_cycles == 15
        assert histogram.time_weighted_mean == pytest.approx(20 / 15)
        assert histogram.percentile(50) == 1
        assert histogram.percentile(99) == 2

    def test_exit_sorts_before_enter_at_same_cycle(self):
        # Back-to-back slot reuse must not count occupancy 2.
        histogram = mshr_occupancy(_occ_events([(0, 5), (5, 10)]))
        assert histogram.cycles_at == {1: 10}

    def test_queue_filter_separates_streams(self):
        events = [
            Event(0, "fpu", EventKind.FPQ_ENQUEUE, queue="iq"),
            Event(4, "fpu", EventKind.FPQ_DEQUEUE, queue="iq"),
            Event(0, "fpu", EventKind.FPQ_ENQUEUE, queue="lq"),
            Event(2, "fpu", EventKind.FPQ_DEQUEUE, queue="lq"),
        ]
        assert fpu_queue_occupancy(events, "iq").total_cycles == 4
        assert fpu_queue_occupancy(events, "lq").total_cycles == 2
        with pytest.raises(ValueError):
            fpu_queue_occupancy(events, "rq")

    def test_writecache_counts_allocations_only(self):
        events = [
            Event(0, "writecache", EventKind.WC_STORE, line=1, hit=False,
                  allocated=True),
            Event(3, "writecache", EventKind.WC_STORE, line=1, hit=True,
                  allocated=False),  # coalesced hit: not an enter
            Event(8, "writecache", EventKind.WC_EVICT, line=1, done=10),
        ]
        histogram = writecache_occupancy(events)
        assert histogram.cycles_at == {1: 8}

    def test_empty_histogram(self):
        histogram = occupancy_histogram(
            [], EventKind.MSHR_ALLOC, EventKind.MSHR_RELEASE
        )
        assert histogram.total_cycles == 0
        assert histogram.max_occupancy == 0
        assert histogram.time_weighted_mean == 0.0
        assert histogram.percentile(90) == 0

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mshr_occupancy(_occ_events([(0, 1)])).percentile(101)

    def test_real_run_occupancy_bounded_by_capacity(self):
        events, _result = run_with_telemetry("compress")
        histogram = mshr_occupancy(events)
        assert histogram.total_cycles > 0
        assert 0 < histogram.max_occupancy <= BASELINE.mshr_entries


class TestOccupancyExport:
    STRUCTURES = ("mshr", "fpq_iq", "fpq_lq", "fpq_sq", "writecache")

    def test_summaries_cover_every_structure_even_when_idle(self):
        summaries = occupancy_summaries([])
        assert set(summaries) == set(self.STRUCTURES)
        assert all(h.total_cycles == 0 for h in summaries.values())

    def test_to_dict_summary_fields(self):
        histogram = mshr_occupancy(_occ_events([(0, 10), (5, 15)]))
        payload = histogram.to_dict()
        assert payload["mean"] == pytest.approx(20 / 15)
        assert payload["p50"] == 1
        assert payload["p99"] == 2
        assert payload["max"] == 2
        assert payload["total_cycles"] == 15
        assert payload["cycles_at"] == {"1": 10, "2": 5}

    def test_export_is_versioned_stable_json(self):
        from repro.telemetry.analysis import OCCUPANCY_EXPORT_VERSION

        events, _result = run_with_telemetry("compress")
        document = occupancy_export(events)
        assert document["version"] == OCCUPANCY_EXPORT_VERSION
        assert set(document["structures"]) == set(self.STRUCTURES)
        mshr = document["structures"]["mshr"]
        assert mshr["total_cycles"] > 0
        assert 0 < mshr["max"] <= BASELINE.mshr_entries
        # round-trips through JSON unchanged (string keys throughout)
        assert json.loads(json.dumps(document)) == document


# ------------------------------------------------------------ interval CPI


class TestIntervalCpi:
    def test_windows_cover_run_and_report_inf_when_empty(self):
        events = [
            Event(10, "rob", EventKind.RETIRE, index=0, issue=9),
            Event(20, "rob", EventKind.RETIRE, index=1, issue=19),
            Event(250, "rob", EventKind.RETIRE, index=2, issue=249),
        ]
        stats = interval_cpi(events, window=100)
        assert [s.instructions for s in stats] == [2, 0, 1]
        assert stats[0].cpi == 50.0
        assert stats[1].cpi == math.inf
        assert stats[2].cpi == 100.0

    def test_no_retires_yields_no_windows(self):
        assert interval_cpi([], window=100) == []

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            interval_cpi([], window=0)

    def test_real_run_instruction_total_matches(self):
        events, result = run_with_telemetry("compress")
        stats = interval_cpi(events, window=1000)
        assert sum(s.instructions for s in stats) == result.stats.instructions


# ----------------------------------------------------------------- metrics


class TestMetrics:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc(3)
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert registry.counter("x") is counter
        assert counter.value == 3

    def test_cross_type_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_buckets_and_moments(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 20.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.bucket_counts == [1, 2]
        assert histogram.min == 0.5 and histogram.max == 20.0
        assert histogram.mean == pytest.approx(22.5 / 3)
        with pytest.raises(ValueError):
            histogram.observe(math.inf)

    def test_publish_stats_flattens_counters_and_stalls(self):
        _events, result = run_with_telemetry("compress")
        registry = publish_stats(result.stats, MetricsRegistry())
        snapshot = registry.as_dict()
        assert (
            snapshot["counters"]["sim.instructions"]
            == result.stats.instructions
        )
        for kind in StallKind:
            assert (
                snapshot["counters"][f"sim.stall.{kind.value}"]
                == result.stats.stall_cycles[kind]
            )
        assert snapshot["gauges"]["sim.cpi"] == pytest.approx(result.cpi)

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        path = registry.write_json(tmp_path / "m" / "out.json")
        assert json.loads(path.read_text())["counters"] == {"a": 2}


# --------------------------------------------------------------------- CLI


class TestCli:
    def test_trace_and_report_verbs(self, tmp_path, capsys):
        out = tmp_path / "compress.ndjson"
        metrics = tmp_path / "compress.json"
        assert cli.main([
            "trace", "compress", "--factor", str(FACTOR),
            "--out", str(out), "--metrics-out", str(metrics),
        ]) == 0
        trace_output = capsys.readouterr().out
        assert "stall cross-check: OK" in trace_output
        assert out.exists() and metrics.exists()
        assert json.loads(metrics.read_text())["counters"]["sim.instructions"]

        assert cli.main(["report", str(out)]) == 0
        report_output = capsys.readouterr().out
        assert "stall cycles from events" in report_output

    def test_report_occupancy_out(self, tmp_path, capsys):
        out = tmp_path / "compress.ndjson"
        occupancy = tmp_path / "occupancy.json"
        assert cli.main([
            "trace", "compress", "--factor", str(FACTOR), "--out", str(out),
            "--metrics-out", str(tmp_path / "metrics.json"),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "report", str(out), "--occupancy-out", str(occupancy),
        ]) == 0
        assert "occupancy:" in capsys.readouterr().out
        document = json.loads(occupancy.read_text())
        assert document["version"] == 1
        assert document["structures"]["mshr"]["total_cycles"] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "nosuchkernel"],
            ["trace", "nosuchkernel"],
        ],
    )
    def test_unknown_workload_exits_2_with_kernel_list(self, argv, capsys):
        assert cli.main(argv) == 2
        stderr = capsys.readouterr().err
        assert "unknown workload 'nosuchkernel'" in stderr
        assert "valid kernels:" in stderr
        assert "compress" in stderr


# ----------------------------------------------------------- runner metrics


class TestRunnerMetrics:
    def test_sweep_exports_metrics_tree_and_manifest(self, tmp_path):
        from repro.experiments.run_all import run_resilient

        out = tmp_path / "results"
        _results, report = run_resilient(
            factor=FACTOR, out_dir=str(out), only=["table2"], stream=None
        )
        assert report.ok
        snapshot = report.metrics.as_dict()
        assert snapshot["counters"]["runner.experiments_ok"] == 1
        assert snapshot["gauges"]["runner.factor"] == FACTOR
        assert snapshot["histograms"]["runner.elapsed_seconds"]["count"] == 1

        runner_json = json.loads((out / "metrics" / "runner.json").read_text())
        assert runner_json["counters"]["runner.experiments_ok"] == 1
        per_exp = json.loads((out / "metrics" / "table2.json").read_text())
        assert per_exp["counters"]["runner.attempts"] == 1
        assert per_exp["gauges"]["runner.ok"] == 1.0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["counters"]["runner.experiments_ok"] == 1

    def test_checkpointed_rerun_counts_in_metrics(self, tmp_path):
        from repro.experiments.run_all import run_resilient

        out = tmp_path / "results"
        run_resilient(
            factor=FACTOR, out_dir=str(out), only=["table2"], stream=None
        )
        _results, report = run_resilient(
            factor=FACTOR, out_dir=str(out), only=["table2"], stream=None
        )
        snapshot = report.metrics.as_dict()
        assert snapshot["counters"]["runner.experiments_checkpointed"] == 1
        assert "runner.experiments_ok" not in snapshot["counters"]


# ------------------------------------------------- gzip / sink lifecycle


class TestNDJSONSinkLifecycle:
    def _events(self, n=3):
        return [
            Event(cycle, "test", EventKind.RETIRE, index=cycle)
            for cycle in range(n)
        ]

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "trace.ndjson.gz"
        with NDJSONSink(path) as sink:
            for event in self._events():
                sink.record(event)
        # The file really is gzip, and loads back transparently.
        import gzip

        assert path.read_bytes()[:2] == b"\x1f\x8b"
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 3
        assert load_ndjson(path) == self._events()

    def test_gzip_file_passes_validate(self, tmp_path, capsys):
        path = tmp_path / "trace.ndjson.gz"
        with NDJSONSink(path) as sink:
            for event in self._events():
                sink.record(event)
        assert validate_file(str(path)) == 3

    def test_context_manager_closes_and_flushes(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        with NDJSONSink(path) as sink:
            sink.record(self._events(1)[0])
            sink.flush()  # legal mid-stream
        assert sink._file.closed
        assert load_ndjson(path) == self._events(1)

    def test_truncated_then_closed_file_still_validates(self, tmp_path):
        """A stream cut short at a line boundary is short, not invalid."""
        path = tmp_path / "trace.ndjson"
        with NDJSONSink(path) as sink:
            for event in self._events(5):
                sink.record(event)
        # Simulate a crash that lost the tail: keep only two full lines.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]))
        assert validate_file(str(path)) == 2
        assert load_ndjson(path) == self._events(2)


# ------------------------------------------------------- validate CLI I/O


class TestValidateCli:
    def _ndjson(self, events):
        return "".join(json.dumps(e.to_dict()) + "\n" for e in events)

    def test_stdin_dash_reads_stream(self, monkeypatch, capsys):
        import io

        from repro.telemetry import validate

        events = [Event(1, "test", EventKind.RETIRE, index=1)]
        monkeypatch.setattr("sys.stdin", io.StringIO(self._ndjson(events)))
        assert validate.main(["-"]) == 0
        assert "<stdin>: 1 events OK" in capsys.readouterr().out

    def test_stdin_dash_rejects_malformed(self, monkeypatch, capsys):
        import io

        from repro.telemetry import validate

        monkeypatch.setattr("sys.stdin", io.StringIO('{"cycle": -1}\n'))
        assert validate.main(["-"]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err and "line 1" in err

    def test_gz_path_through_main(self, tmp_path, capsys):
        from repro.telemetry import validate

        path = tmp_path / "t.ndjson.gz"
        with NDJSONSink(path) as sink:
            sink.record(Event(1, "test", EventKind.RETIRE))
        assert validate.main([str(path)]) == 0


# ------------------------------------------------------- dropped contract


class TestPartialTraceRefusal:
    def test_bounded_ring_refuses_cross_check(self):
        from repro.telemetry import PartialTraceError

        ring = RingBufferSink(capacity=1)
        bus = EventBus(ring)
        trace = scaled_trace("compress", FACTOR)
        result = simulate_trace(trace, BASELINE, telemetry=bus)
        assert ring.dropped > 0
        with pytest.raises(PartialTraceError, match="dropped"):
            assert_stalls_match(ring, result.stats)
        with pytest.raises(PartialTraceError, match="dropped"):
            cross_check_stalls(
                ring.events, result.stats, dropped=ring.dropped
            )

    def test_explicit_dropped_overrides_source(self):
        from repro.telemetry import PartialTraceError

        events, result = run_with_telemetry("compress")
        # The same complete stream passes without the override...
        assert_stalls_match(events, result.stats)
        # ...and refuses when the caller says events were lost.
        with pytest.raises(PartialTraceError):
            assert_stalls_match(events, result.stats, dropped=7)

    def test_unbounded_ring_still_passes(self):
        ring = RingBufferSink()
        bus = EventBus(ring)
        trace = scaled_trace("compress", FACTOR)
        result = simulate_trace(trace, BASELINE, telemetry=bus)
        assert ring.dropped == 0
        assert_stalls_match(ring, result.stats)


# ------------------------------------------------------ analysis edges


class TestAnalysisEdgeCases:
    def test_interval_cpi_empty_trace(self):
        assert interval_cpi([]) == []
        assert stall_timeline([]) == []

    def test_interval_cpi_window_larger_than_run(self):
        events = [
            Event(cycle, "test", EventKind.RETIRE, index=cycle, issue=0)
            for cycle in (3, 7, 9)
        ]
        stats = interval_cpi(events, window=10_000)
        assert len(stats) == 1
        assert stats[0].start == 0
        assert stats[0].instructions == 3
        assert stats[0].cpi == pytest.approx(10_000 / 3)

    def test_interval_cpi_boundary_on_final_cycle(self):
        # A retire exactly on a window boundary opens one more window.
        events = [
            Event(cycle, "test", EventKind.RETIRE, index=cycle, issue=0)
            for cycle in (0, 999, 1000)
        ]
        stats = interval_cpi(events, window=1000)
        assert [s.start for s in stats] == [0, 1000]
        assert [s.instructions for s in stats] == [2, 1]

    def test_stall_timeline_window_larger_than_run(self):
        events = [
            Event(5, "test", EventKind.STALL, stall="load", cycles=2, index=0,
                  pc=0),
            Event(90, "test", EventKind.STALL, stall="pairing", cycles=1,
                  index=1, pc=4),
        ]
        timeline = stall_timeline(events, window=1000)
        assert len(timeline) == 1
        start, bucket = timeline[0]
        assert start == 0
        assert bucket[StallKind.LOAD] == 2
        assert bucket[StallKind.PAIRING] == 1

    def test_stall_timeline_boundary_on_final_cycle(self):
        events = [
            Event(999, "test", EventKind.STALL, stall="load", cycles=3,
                  index=0, pc=0),
            Event(1000, "test", EventKind.STALL, stall="load", cycles=4,
                  index=1, pc=4),
        ]
        timeline = stall_timeline(events, window=1000)
        assert [start for start, _bucket in timeline] == [0, 1000]
        assert timeline[0][1][StallKind.LOAD] == 3
        assert timeline[1][1][StallKind.LOAD] == 4
