"""Host-side observability: span tracing and profiling.

The load-bearing tests: a traced sweep (serial or parallel) produces one
merged span tree whose worker-side spans are grafted under the right
attempt, retries appear as sibling attempts, and switching tracing off
leaves the sweep report byte-identical.  ``aurora-sim perf`` is a
one-shot profiler: it prints its report and writes nothing.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.config import BASELINE
from repro.experiments import cli
from repro.robustness.faults import FaultPlan
from repro.robustness.runner import ResilientRunner
from repro.telemetry import tracing
from repro.telemetry.profiling import PerfReport, profile_workload
from repro.telemetry.tracing import (
    SpanError,
    SpanTracer,
    load_chrome_trace,
    render_span_tree,
)


def _span_index(spans):
    return {span.span_id: span for span in spans}


def _by_name(spans, name):
    return [span for span in spans if span.name == name]


# --------------------------------------------------------------- span tracer


class TestSpanTracer:
    def test_with_block_nests_and_records(self):
        tracer = SpanTracer("t1")
        with tracer.span("outer", "test") as outer:
            with tracer.span("inner", "test", detail=7) as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner.parent_id == outer.span_id
        assert inner.args["detail"] == 7
        assert outer.parent_id is None
        assert 0 <= outer.start <= inner.start
        assert inner.end <= outer.end

    def test_begin_finish_manual_mode_inherits_parent_track(self):
        tracer = SpanTracer()
        parent = tracer.begin("exp", "experiment", track=3)
        child = tracer.begin("att", "attempt", parent=parent)
        assert child.parent_id == parent.span_id
        assert child.track == 3
        tracer.finish(child)
        tracer.finish(parent)
        assert len(tracer.spans()) == 2
        # Manual mode never touches the thread stack.
        assert tracer.current() is None

    def test_annotate_merges_args(self):
        tracer = SpanTracer()
        with tracer.span("s", "test", a=1) as span:
            span.annotate(b=2, a=3)
        assert tracer.spans()[0].args == {"a": 3, "b": 2}

    def test_adopt_parents_other_threads_spans(self):
        tracer = SpanTracer()
        anchor = tracer.begin("anchor", "test")
        seen = {}

        def worker():
            with tracer.adopt(anchor):
                with tracer.span("child", "test") as child:
                    seen["parent"] = child.parent_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.finish(anchor)
        assert seen["parent"] == anchor.span_id
        # The adopting thread's stack is clean afterwards.
        assert tracer.current() is None

    def test_graft_rebases_reprefixes_and_reparents(self):
        parent_tracer = SpanTracer("shared")
        worker_tracer = SpanTracer("shared")
        with worker_tracer.span("root", "trace"):
            with worker_tracer.span("leaf", "trace"):
                pass
        records = worker_tracer.finished_records()

        attempt = parent_tracer.begin("attempt#1", "attempt", track=2)
        grafted = parent_tracer.graft(
            records, parent=attempt, offset=10.0, prefix=attempt.span_id
        )
        parent_tracer.finish(attempt)
        assert grafted == 2
        spans = _span_index(parent_tracer.spans())
        root = _by_name(spans.values(), "root")[0]
        leaf = _by_name(spans.values(), "leaf")[0]
        # Orphan root re-parented onto the attempt; child lineage kept.
        assert root.parent_id == attempt.span_id
        assert leaf.parent_id == root.span_id
        assert root.span_id.startswith(f"{attempt.span_id}/")
        # Worker-relative times rebased by the offset, track adopted.
        assert root.start >= 10.0
        assert leaf.start >= root.start
        assert root.track == 2

    def test_module_probe_is_noop_without_tracer(self):
        assert tracing.current_tracer() is None
        with tracing.span("anything", "test") as span:
            assert span is None

    def test_use_tracer_installs_and_restores(self):
        tracer = SpanTracer()
        with tracing.use_tracer(tracer):
            assert tracing.current_tracer() is tracer
            with tracing.span("probed", "test") as span:
                assert span is not None
        assert tracing.current_tracer() is None
        assert [s.name for s in tracer.spans()] == ["probed"]


# ------------------------------------------------------------- chrome export


class TestChromeExport:
    def test_round_trip_preserves_tree_and_args(self, tmp_path):
        tracer = SpanTracer("rt")
        with tracer.span("sweep", "sweep", factor=0.5):
            with tracer.span("experiment:fig4", "experiment", status="ok"):
                pass
        path = tracer.write_chrome(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert document["otherData"]["trace_id"] == "rt"

        restored = _span_index(load_chrome_trace(path))
        assert len(restored) == 2
        original = _span_index(tracer.spans())
        for span_id, span in original.items():
            twin = restored[span_id]
            assert twin.name == span.name
            assert twin.parent_id == span.parent_id
            assert twin.args == span.args
            assert twin.duration == pytest.approx(span.duration, abs=1e-5)

    def test_load_rejects_non_span_documents(self, tmp_path):
        not_chrome = tmp_path / "nope.json"
        not_chrome.write_text(json.dumps({"hello": 1}))
        with pytest.raises(SpanError, match="traceEvents"):
            load_chrome_trace(not_chrome)

        foreign = tmp_path / "foreign.json"
        foreign.write_text(
            json.dumps(
                {"traceEvents": [{"ph": "X", "name": "x", "ts": 0, "dur": 1}]}
            )
        )
        with pytest.raises(SpanError, match="span_id"):
            load_chrome_trace(foreign)

        garbage = tmp_path / "garbage.json"
        garbage.write_text("{nope")
        with pytest.raises(SpanError, match="unreadable"):
            load_chrome_trace(garbage)

    def test_render_span_tree_shows_notes_and_folds(self):
        tracer = SpanTracer()
        with tracer.span("sweep", "sweep"):
            with tracer.span("experiment:a", "experiment") as exp:
                exp.annotate(status="ok", worker="pid-1")
        text = render_span_tree(tracer.spans())
        assert "sweep" in text
        assert "experiment:a" in text
        assert "[status=ok, worker=pid-1]" in text
        assert "total" in text and "self" in text
        # A large min_duration folds everything away.
        assert render_span_tree(tracer.spans(), min_duration=1e6) == "(no spans)"


# ------------------------------------------------------------- runner spans


class _FakeResult:
    def __init__(self, text="fake-report"):
        self.text = text

    def render(self):
        return self.text


def _ok(factor):
    return _FakeResult(f"ok at {factor}")


def _par_trace_user(factor):
    from repro.workloads.registry import get_trace

    return _FakeResult(f"trace of {len(get_trace('sc', 9))} records")


def _par_slow(factor):
    time.sleep(0.3)
    return _FakeResult("slow done")


class TestRunnerSpans:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_records_retry_attempt_siblings(self, tmp_path, jobs):
        tracer = SpanTracer()
        plan = FaultPlan().add("flaky", "transient", count=1)
        runner = ResilientRunner(
            tmp_path / "m.json",
            jobs=jobs,
            fault_plan=plan,
            retries=2,
            backoff=0.0,
            tracer=tracer,
        )
        trace_path = tmp_path / "sweep.json"
        _results, report = runner.run(
            {"flaky": _ok, "solid": _ok}, trace_out=trace_path
        )
        assert report.ok
        spans = tracer.spans()
        index = _span_index(spans)

        (sweep,) = _by_name(spans, "sweep")
        assert sweep.parent_id is None
        experiments = {
            s.name: s for s in spans if s.category == "experiment"
        }
        assert set(experiments) == {"experiment:flaky", "experiment:solid"}
        for exp in experiments.values():
            assert exp.parent_id == sweep.span_id
        # Distinct Perfetto rows per experiment, sweep on row 0.
        assert sweep.track == 0
        assert {e.track for e in experiments.values()} == {1, 2}

        flaky = experiments["experiment:flaky"]
        attempts = sorted(
            (s for s in spans if s.category == "attempt"
             and s.parent_id == flaky.span_id),
            key=lambda s: s.start,
        )
        assert [a.name for a in attempts] == ["attempt#1", "attempt#2"]
        assert attempts[0].args["status"] == "failed"
        assert "TransientFault" in attempts[0].args["error"]
        assert attempts[1].args["status"] == "ok"
        assert flaky.args["status"] == "ok"
        assert flaky.args["attempts"] == 2

        # Checkpoint writes traced under the sweep lineage.
        checkpoints = _by_name(spans, "checkpoint")
        assert checkpoints
        for checkpoint in checkpoints:
            assert checkpoint.parent_id in index

        # The Chrome export landed and the manifest points at it.
        assert trace_path.exists()
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["trace"] == str(trace_path)
        restored = load_chrome_trace(trace_path)
        assert len(restored) == len(spans)

    def test_timeout_attempt_annotated(self, tmp_path):
        tracer = SpanTracer()

        def hang(factor):
            time.sleep(10)

        runner = ResilientRunner(
            tmp_path / "m.json", timeout=0.2, tracer=tracer
        )
        _results, report = runner.run({"hang": hang})
        assert report.outcomes[0].status == "timeout"
        (attempt,) = (s for s in tracer.spans() if s.category == "attempt")
        assert attempt.args["status"] == "timeout"

    def test_tracing_off_report_is_byte_identical(self, tmp_path):
        experiments = {"a": _ok, "b": _ok}
        _r1, plain = ResilientRunner(tmp_path / "p.json").run(experiments)
        _r2, traced = ResilientRunner(
            tmp_path / "t.json", tracer=SpanTracer()
        ).run(experiments)
        assert plain.render() == traced.render()

    def test_parallel_sweep_merges_worker_spans(self, tmp_path):
        tracer = SpanTracer()
        runner = ResilientRunner(
            tmp_path / "m.json", jobs=2, tracer=tracer
        )
        trace_path = tmp_path / "sweep.json"
        _results, report = runner.run(
            {"left": _par_trace_user, "right": _par_trace_user},
            trace_out=trace_path,
        )
        assert report.ok
        spans = tracer.spans()

        experiments = {
            s.name: s for s in spans if s.category == "experiment"
        }
        assert set(experiments) == {"experiment:left", "experiment:right"}
        assert {e.track for e in experiments.values()} == {1, 2}
        (sweep,) = _by_name(spans, "sweep")
        for exp in experiments.values():
            assert exp.parent_id == sweep.span_id
            assert exp.args["status"] == "ok"
            assert exp.args["worker"].startswith("pid-")

        attempts = [s for s in spans if s.category == "attempt"]
        assert len(attempts) == 2
        for attempt in attempts:
            assert attempt.args["worker"].startswith("pid-")
            assert attempt.args["status"] == "ok"
            # Worker-side spans were grafted under this attempt: ids are
            # prefixed with the attempt's id and lineage reaches it.
            grafted = [
                s
                for s in spans
                if s.span_id.startswith(f"{attempt.span_id}/")
            ]
            assert grafted, "no worker spans grafted under the attempt"
            assert any(s.name == "cache_lookup" for s in grafted)
            for span in grafted:
                assert span.start >= attempt.start - 0.25
                assert span.track == attempt.track

        restored = load_chrome_trace(trace_path)
        assert len(restored) == len(spans)

    def test_parallel_retry_attempts_are_siblings(self, tmp_path):
        tracer = SpanTracer()
        plan = FaultPlan().add("flaky", "transient", count=1)
        runner = ResilientRunner(
            tmp_path / "m.json",
            jobs=2,
            fault_plan=plan,
            retries=2,
            backoff=0.0,
            tracer=tracer,
        )
        _results, report = runner.run({"flaky": _ok, "solid": _ok})
        assert report.ok
        spans = tracer.spans()
        flaky = next(
            s for s in spans if s.name == "experiment:flaky"
        )
        attempts = sorted(
            (s for s in spans if s.category == "attempt"
             and s.parent_id == flaky.span_id),
            key=lambda s: s.start,
        )
        assert len(attempts) == 2
        assert attempts[0].args["status"] == "failed"
        assert attempts[1].args["status"] == "ok"

    def test_parallel_tracing_off_report_identical(self, tmp_path):
        import re

        experiments = {"left": _par_trace_user, "right": _par_trace_user}
        _r1, plain = ResilientRunner(tmp_path / "p.json", jobs=2).run(
            experiments
        )
        _r2, traced = ResilientRunner(
            tmp_path / "t.json", jobs=2, tracer=SpanTracer()
        ).run(experiments)

        def normalize(report):
            # Worker pids and wall times vary run to run with or
            # without tracing; everything else must match exactly.
            text = re.sub(r"pid-\d+", "pid-N", report.render())
            return re.sub(r"\d+\.\d+s", "T", text)

        assert normalize(plain) == normalize(traced)


# --------------------------------------------------------------- profiling


class TestProfiling:
    def test_profile_workload_smoke(self):
        report = profile_workload(
            "compress", BASELINE, factor=0.02, sample=False
        )
        assert isinstance(report, PerfReport)
        assert report.instructions > 0
        assert report.sim_cycles > 0
        assert report.wall_seconds > 0
        assert report.cycles_per_second > 0
        text = report.render()
        assert "sim-cycles/s" in text

    def test_cprofile_opt_in(self):
        report = profile_workload(
            "compress",
            BASELINE,
            factor=0.02,
            sample=False,
            use_cprofile=True,
            top=5,
        )
        assert report.cprofile_top
        assert "cumulative" in report.render()


class TestSimulateBatchSpan:
    def test_span_counts_simulated_and_reused_configs(self, models):
        from repro.core.kernel import simulate_many
        from repro.func.prepared import prepare_trace
        from repro.workloads.registry import get_trace

        small, baseline, large = models
        trace = prepare_trace(get_trace("espresso", 12).array)
        tracer = SpanTracer()
        with tracing.use_tracer(tracer):
            simulate_many(trace, [small, baseline, small])
            simulate_many(trace, [small, baseline, large])
            # Everything stored: nothing simulated, so no span.
            simulate_many(trace, [large, small])
        spans = _by_name(tracer.spans(), "simulate_batch")
        assert [
            (span.args["configs"], span.args["reused"]) for span in spans
        ] == [(2, 1), (1, 2)]


# --------------------------------------------------------------- CLI verbs


class TestPerfCli:
    def test_perf_is_one_shot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.main(
            ["perf", "compress", "--factor", "0.02", "--no-sample"]
        )
        assert code == 0
        assert "sim-cycles/s" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_spans_verb_renders_tree(self, tmp_path, capsys):
        tracer = SpanTracer()
        with tracer.span("sweep", "sweep"):
            with tracer.span("experiment:x", "experiment"):
                pass
        path = tracer.write_chrome(tmp_path / "trace.json")
        assert cli.main(["spans", str(path)]) == 0
        out = capsys.readouterr().out
        assert "experiment:x" in out
        assert "total" in out

    def test_spans_verb_rejects_foreign_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cli.main(["spans", str(bad)]) == 1
        assert "traceEvents" in capsys.readouterr().err

    def test_experiments_trace_flag_end_to_end(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        trace_path = tmp_path / "sweep-trace.json"
        code = cli.main(
            [
                "experiments", "--factor", "0.02", "--only", "fig1",
                "--out", str(out_dir), "--trace", str(trace_path),
            ]
        )
        assert code == 0
        spans = load_chrome_trace(trace_path)
        names = {s.name for s in spans}
        assert "sweep" in names
        assert "experiment:fig1" in names
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["trace"] == str(trace_path)
