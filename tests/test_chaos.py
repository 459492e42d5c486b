"""Chaos harness: every injected failure either recovers byte-identically
or degrades to an explicit, documented partial result.

Organised by boundary, mirroring docs/ROBUSTNESS.md's failure-mode
matrix: plan parsing, cache integrity (checksums / quarantine), injected
filesystem faults, pre-run disk corruption, pool faults (kill / hang /
straggler), torn checkpoint manifests, graceful SIGINT/SIGTERM shutdown,
eager environment validation, and concurrent cache eviction.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.experiments.exit_codes import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    sweep_exit_code,
)
from repro.robustness import chaos
from repro.robustness.chaos import ChaosError, ChaosFault, ChaosPlan
from repro.robustness.faults import FaultPlan
from repro.robustness.runner import ExperimentOutcome, ResilientRunner, RunReport
from repro.robustness.validation import (
    EnvValidationError,
    validate_environment,
)
from repro.workloads import trace_cache
from repro.workloads.trace_cache import TraceCache


@pytest.fixture(autouse=True)
def _no_leaked_chaos():
    """No chaos plan ever leaks into another test."""
    yield
    chaos.deactivate()


def _array(seed: int = 0, records: int = 64) -> np.ndarray:
    """A structurally valid (n, 6) trace array with seed-dependent bytes."""
    base = np.zeros((records, 6), dtype=np.int64)
    base[:, 0] = 4096 + 4 * np.arange(records)  # pc
    base[:, 1] = 0  # kind
    base[:, 2] = (seed + np.arange(records)) % 30 + 1  # dst
    base[:, 3:5] = -1
    return base


# --------------------------------------------------------------------------
# Plan parsing and compilation
# --------------------------------------------------------------------------


class TestChaosPlan:
    def test_parse_full_grammar(self):
        plan = ChaosPlan.parse(
            "kill:fig4:2, bitflip:*, enospc:cache.store, hang:h:1:9.5",
            seed=7,
        )
        kinds = [f.kind for f in plan.faults]
        assert kinds == ["kill", "bitflip", "enospc", "hang"]
        assert plan.seed == 7
        assert plan.faults[0].count == 2
        assert plan.faults[3].seconds == 9.5

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("explode", "unknown chaos kind"),
            ("enospc:nowhere", "fault site"),
            ("kill:a:0", "count"),
            ("hang:a:1:-3", "seconds"),
            ("kill:a:x", "kill:a:x"),
            ("kill:a:1:2:3", "expected"),
            ("", "names no faults"),
        ],
    )
    def test_bad_specs_rejected(self, spec, match):
        with pytest.raises(ChaosError, match=match):
            ChaosPlan.parse(spec)

    def test_fs_kind_requires_site_target(self):
        with pytest.raises(ChaosError, match="cache.store"):
            ChaosFault(kind="eio", target="*")

    def test_pool_faults_compile_to_fault_plan(self):
        plan = ChaosPlan.parse("kill:a, straggler:b:1:0.5, hang:c:1:30")
        compiled = plan.fault_plan(["a", "b", "c", "d"])
        assert compiled.faults["a"].kind == "kill"
        assert compiled.faults["b"].kind == "straggler"
        assert compiled.faults["c"].kind == "timeout"  # hang IS a sleep
        assert "d" not in compiled.faults

    def test_star_target_expands_to_all_experiments(self):
        compiled = ChaosPlan.parse("straggler:*:1:0.1").fault_plan(["x", "y"])
        assert set(compiled.faults) == {"x", "y"}

    def test_disk_only_plan_has_no_fault_plan(self):
        assert ChaosPlan.parse("bitflip:*").fault_plan(["a"]) is None

    def test_plan_is_picklable_for_pool_workers(self):
        plan = ChaosPlan.parse("kill:a,enospc:cache.store", seed=3)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_fs_budgets_per_site(self):
        plan = ChaosPlan.parse("enospc:cache.store:3, eio:manifest.save")
        budgets = plan.fs_budgets()
        assert budgets["cache.store"]["remaining"] == 3
        assert budgets["manifest.save"]["kind"] == "eio"


# --------------------------------------------------------------------------
# Cache integrity: checksums, quarantine, self-heal
# --------------------------------------------------------------------------


class TestCacheIntegrity:
    def test_store_writes_checksum_sidecar(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("w", 4, _array())
        path = cache.path_for("w", 4)
        sidecar = cache.sidecar_for(path)
        assert sidecar.exists()
        crc_hex, size = sidecar.read_text().split()
        assert int(size) == path.stat().st_size
        assert len(crc_hex) >= 8

    def test_bitflip_detected_quarantined_and_rebuilt(self, tmp_path):
        writer = TraceCache(tmp_path)
        original = _array(seed=5)
        writer.store("w", 4, original)
        path = writer.path_for("w", 4)
        assert chaos.bitflip_file(path, seed=1)

        reader = TraceCache(tmp_path)  # fresh memo: simulates a new process
        assert reader.load("w", 4) is None
        assert reader.checksum_failures == 1
        assert reader.quarantined == 1
        assert not path.exists()
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert any(entry.name == path.name for entry in quarantined)

        # Rebuild: the next store re-creates the entry, byte-identical.
        reader.store("w", 4, original)
        healed = reader.load("w", 4)
        assert healed is not None
        assert np.array_equal(np.asarray(healed.array), original)

    def test_checksum_failure_emits_correlated_json_log(self, tmp_path):
        """A bitflipped entry produces a parseable structured log line
        carrying the active trace_id (docs/OBSERVABILITY.md)."""
        from repro.telemetry import logging as structlog
        from repro.telemetry import tracing
        from repro.telemetry.logging import read_log
        from repro.telemetry.tracing import SpanTracer

        writer = TraceCache(tmp_path / "cache")
        writer.store("w", 4, _array(seed=5))
        path = writer.path_for("w", 4)
        assert chaos.bitflip_file(path, seed=1)

        log_path = tmp_path / "log.jsonl"
        structlog.configure(str(log_path))
        tracer = SpanTracer("cafecafe0001")
        tracing.set_tracer(tracer)
        try:
            with tracer.span("experiment", "chaos-smoke"):
                reader = TraceCache(tmp_path / "cache")
                assert reader.load("w", 4) is None
        finally:
            tracing.set_tracer(None)
            structlog.shutdown()

        records = read_log(log_path)  # every line must be valid JSON
        events = [r["event"] for r in records]
        assert "cache.checksum_failure" in events
        assert "cache.quarantined" in events
        failure = next(
            r for r in records if r["event"] == "cache.checksum_failure"
        )
        assert failure["component"] == "trace_cache"
        assert failure["level"] == "WARNING"
        assert failure["path"] == path.name
        assert failure["want_crc"] != failure["got_crc"]
        assert failure["trace_id"] == "cafecafe0001"
        assert failure["span_id"]

    def test_truncation_detected_as_corruption(self, tmp_path):
        writer = TraceCache(tmp_path)
        writer.store("w", 4, _array())
        path = writer.path_for("w", 4)
        assert chaos.truncate_file(path, seed=2)
        reader = TraceCache(tmp_path)
        assert reader.load("w", 4) is None
        assert reader.checksum_failures == 1

    @pytest.mark.parametrize(
        "damage", ["intact", "bitflip_file", "truncate_file"]
    )
    def test_stale_v1_never_shadows_v2(self, tmp_path, damage):
        # A legacy archive carrying the current fingerprint must never be
        # served: not beside an intact v2 entry, and not as a fallback
        # when that entry fails its checksum.
        cache = TraceCache(tmp_path)
        original = _array(seed=9, records=5000)
        cache.store("w", 4, original)
        path = cache.path_for("w", 4)
        v1 = chaos.plant_stale_v1(path)
        assert v1 is not None and v1.exists()
        if damage != "intact":
            assert getattr(chaos, damage)(path, seed=3)
        reader = TraceCache(tmp_path)
        loaded = reader.load("w", 4)
        if damage == "intact":
            assert np.array_equal(np.asarray(loaded.array), original)
            assert reader.checksum_failures == 0
        else:
            assert loaded is None
            assert reader.checksum_failures == 1
            assert reader.hits == 0 and reader.misses == 1

    def test_legacy_entry_gets_sidecar_backfilled(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("w", 4, _array())
        sidecar = cache.sidecar_for(cache.path_for("w", 4))
        sidecar.unlink()
        reader = TraceCache(tmp_path)
        assert reader.load("w", 4) is not None
        assert sidecar.exists()
        assert reader.checksum_failures == 0

    def test_malformed_sidecar_is_a_mismatch(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("w", 4, _array())
        cache.sidecar_for(cache.path_for("w", 4)).write_text("not a crc")
        reader = TraceCache(tmp_path)
        assert reader.load("w", 4) is None
        assert reader.checksum_failures == 1

    def test_verify_off_skips_checksums(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("w", 4, _array())
        chaos.bitflip_file(cache.path_for("w", 4), seed=1)
        reader = TraceCache(tmp_path, verify=False)
        assert reader.load("w", 4) is not None  # silently wrong, by request
        assert reader.checksum_failures == 0

    def test_mmap_failure_falls_back_to_eager_load(self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path)
        original = _array()
        cache.store("w", 4, original)
        real = trace_cache.load_trace_array

        def flaky_mmap(path, *, mmap=True):
            if mmap:
                from repro.func.trace import TraceIOError

                raise TraceIOError(f"{path}: mmap unsupported here")
            return real(path, mmap=False)

        monkeypatch.setattr(trace_cache, "load_trace_array", flaky_mmap)
        reader = TraceCache(tmp_path)
        loaded = reader.load("w", 4)
        assert loaded is not None
        assert reader.mmap_fallbacks == 1
        assert np.array_equal(np.asarray(loaded.array), original)


# --------------------------------------------------------------------------
# Injected filesystem faults: degrade, never die
# --------------------------------------------------------------------------


class TestFilesystemFaults:
    def test_enospc_on_store_degrades_to_memory_only(self, tmp_path):
        cache = TraceCache(tmp_path)
        with chaos.active(ChaosPlan.parse("enospc:cache.store")):
            cache.store("w", 4, _array())  # must not raise
            assert cache.degraded == 1
            assert not cache.path_for("w", 4).exists()
            cache.store("w", 4, _array())  # budget spent: this one lands
        assert cache.path_for("w", 4).exists()
        assert cache.degraded == 1

    def test_eacces_on_load_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("w", 4, _array())
        with chaos.active(ChaosPlan.parse("eacces:cache.load")):
            assert cache.load("w", 4) is None
            assert cache.degraded == 1
            assert cache.load("w", 4) is not None  # budget spent

    def test_fault_site_errno_matches_kind(self, tmp_path):
        import errno

        with chaos.active(ChaosPlan.parse("eio:manifest.save")):
            with pytest.raises(OSError) as caught:
                chaos.fs_check("manifest.save")
            assert caught.value.errno == errno.EIO
            chaos.fs_check("cache.store")  # other sites unaffected

    def test_manifest_save_fault_degrades_not_fatal(self, tmp_path):
        calls = []
        with chaos.active(ChaosPlan.parse("eio:manifest.save:99")):
            runner = ResilientRunner(tmp_path / "m.json")
            _results, report = runner.run(_local_experiments(calls))
        assert report.ok  # the sweep finished, only durability was lost
        assert not (tmp_path / "m.json").exists()
        degraded = report.metrics.counter("runner.manifest_degraded").value
        assert degraded >= 1

    def test_cache_degradation_surfaces_in_runner_metrics(self, tmp_path):
        previous = trace_cache._default
        trace_cache._default = TraceCache(tmp_path / "cache")

        def storer(factor):
            trace_cache.default_cache().store("wx", 3, _array())
            return _FakeResult("stored")

        try:
            with chaos.active(ChaosPlan.parse("enospc:cache.store")):
                _r, report = ResilientRunner(tmp_path / "m.json").run(
                    {"s": storer}
                )
        finally:
            trace_cache._default = previous
        assert report.ok
        assert report.outcomes[0].cache_degraded == 1
        assert report.metrics.counter("runner.cache_degraded").value == 1

    def test_checksum_failures_surface_in_runner_metrics(self, tmp_path):
        previous = trace_cache._default
        seeded = TraceCache(tmp_path / "cache")
        seeded.store("wy", 3, _array())
        chaos.bitflip_file(seeded.path_for("wy", 3), seed=4)
        trace_cache._default = TraceCache(tmp_path / "cache")  # fresh memo

        def loader(factor):
            trace_cache.default_cache().load("wy", 3)
            return _FakeResult("loaded")

        try:
            _r, report = ResilientRunner(tmp_path / "m.json").run(
                {"l": loader}
            )
        finally:
            trace_cache._default = previous
        assert report.ok
        assert report.outcomes[0].cache_checksum_failures == 1
        counter = report.metrics.counter("runner.cache_checksum_failures")
        assert counter.value == 1


# --------------------------------------------------------------------------
# Pre-run disk corruption (apply_disk)
# --------------------------------------------------------------------------


class TestDiskChaos:
    def test_apply_disk_is_deterministic(self, tmp_path):
        blobs = []
        for attempt in ("one", "two"):
            root = tmp_path / attempt
            cache = TraceCache(root)
            cache.store("w", 4, _array())
            plan = ChaosPlan.parse("bitflip:w", seed=11)
            applied = plan.apply_disk(root, None)
            assert applied and "bit-flipped" in applied[0]
            blobs.append(cache.path_for("w", 4).read_bytes())
        assert blobs[0] == blobs[1]

    def test_apply_disk_targets_only_named_workload(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("hit", 4, _array(1))
        cache.store("spared", 4, _array(2))
        spared_bytes = cache.path_for("spared", 4).read_bytes()
        ChaosPlan.parse("bitflip:hit").apply_disk(tmp_path, None)
        assert cache.path_for("spared", 4).read_bytes() == spared_bytes

    def test_torn_manifest_fault(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"version": 1, "entries": {}}) * 3)
        plan = ChaosPlan.parse("torn-manifest")
        stream = io.StringIO()
        applied = plan.apply_disk(None, manifest, stream=stream)
        assert applied == [f"tore manifest {manifest}"]
        assert "chaos: tore manifest" in stream.getvalue()
        with pytest.raises(json.JSONDecodeError):
            json.loads(manifest.read_text())

    def test_cold_cache_applies_nothing(self, tmp_path):
        plan = ChaosPlan.parse("bitflip:*,truncate:*,stale-v1:*")
        assert plan.apply_disk(tmp_path / "absent", None) == []


# --------------------------------------------------------------------------
# Pool faults: kill, hang, straggler
# --------------------------------------------------------------------------


class _FakeResult:
    def __init__(self, text):
        self.text = text

    def render(self):
        return self.text


def _local_experiments(calls):
    def make(exp_id):
        def run(factor):
            calls.append(exp_id)
            return _FakeResult(f"{exp_id} at factor {factor}")

        return run

    return {"alpha": make("alpha"), "beta": make("beta")}


def _det_a(factor):
    return _FakeResult(f"det-a at {factor}")


def _det_b(factor):
    return _FakeResult(f"det-b at {factor}")


class TestPoolChaos:
    def test_kill_recovers_byte_identical(self, tmp_path):
        experiments = {"a": _det_a, "b": _det_b}
        ref_out = tmp_path / "ref"
        _r, ref = ResilientRunner(
            tmp_path / "ref.json", jobs=2
        ).run(experiments, out_dir=ref_out)
        assert ref.ok

        plan = ChaosPlan.parse("kill:a")
        chaos_out = tmp_path / "chaos"
        runner = ResilientRunner(
            tmp_path / "chaos.json",
            jobs=2,
            fault_plan=plan.fault_plan(list(experiments)),
            chaos_plan=plan,
        )
        _r, report = runner.run(experiments, out_dir=chaos_out)
        # Killed once, re-run in the quarantine pool, recovered fully.
        assert report.ok
        for exp_id in experiments:
            assert (ref_out / f"{exp_id}.txt").read_text() == (
                chaos_out / f"{exp_id}.txt"
            ).read_text()

    def test_kill_every_execution_convicts_the_victim(self, tmp_path):
        plan = ChaosPlan.parse("kill:a:99")
        runner = ResilientRunner(
            tmp_path / "m.json",
            jobs=2,
            fault_plan=plan.fault_plan(["a", "b"]),
            chaos_plan=plan,
        )
        _r, report = runner.run({"a": _det_a, "b": _det_b})
        outcomes = {o.exp_id: o for o in report.outcomes}
        assert outcomes["a"].status == "failed"
        assert "worker process died" in outcomes["a"].error
        assert outcomes["b"].status == "ok"

    def test_serial_kill_is_contained_as_crash(self, tmp_path):
        plan = ChaosPlan.parse("kill:alpha")
        calls = []
        runner = ResilientRunner(
            tmp_path / "m.json",
            fault_plan=plan.fault_plan(["alpha", "beta"]),
            backoff=0.0,
        )
        _r, report = runner.run(_local_experiments(calls))
        outcomes = {o.exp_id: o for o in report.outcomes}
        assert outcomes["alpha"].status == "failed"
        assert "serial mode: contained as crash" in outcomes["alpha"].error
        assert outcomes["beta"].status == "ok"

    def test_straggler_delays_but_completes(self, tmp_path):
        plan = ChaosPlan.parse("straggler:alpha:1:0.2")
        calls = []
        started = time.monotonic()
        runner = ResilientRunner(
            tmp_path / "m.json", fault_plan=plan.fault_plan(["alpha"])
        )
        _r, report = runner.run(_local_experiments(calls))
        assert report.ok
        assert time.monotonic() - started >= 0.2

    def test_hang_trips_timeout_then_resume_completes(self, tmp_path):
        manifest = tmp_path / "m.json"
        plan = ChaosPlan.parse("hang:a:1:60")
        runner = ResilientRunner(
            manifest,
            jobs=2,
            timeout=0.5,
            fault_plan=plan.fault_plan(["a", "b"]),
            chaos_plan=plan,
        )
        _r, wedged = runner.run({"a": _det_a, "b": _det_b})
        outcomes = {o.exp_id: o for o in wedged.outcomes}
        assert outcomes["a"].status == "timeout"
        assert outcomes["b"].status == "ok"

        # Resume without the chaos plan: only the victim re-runs.
        _r, resumed = ResilientRunner(manifest, jobs=2).run(
            {"a": _det_a, "b": _det_b}
        )
        statuses = {o.exp_id: o.status for o in resumed.outcomes}
        assert statuses == {"a": "ok", "b": "checkpointed"}


# --------------------------------------------------------------------------
# Torn checkpoint manifests
# --------------------------------------------------------------------------


class TestManifestRecovery:
    def test_save_keeps_previous_manifest_as_bak(self, tmp_path):
        manifest = tmp_path / "m.json"
        calls = []
        ResilientRunner(manifest).run(_local_experiments(calls))
        bak = manifest.with_suffix(manifest.suffix + ".bak")
        assert manifest.exists() and bak.exists()
        assert json.loads(bak.read_text())["version"] == 1

    def test_torn_manifest_salvages_from_bak(self, tmp_path):
        manifest = tmp_path / "m.json"
        calls = []
        ResilientRunner(manifest).run(_local_experiments(calls))
        assert chaos.tear_manifest(manifest)

        stream = io.StringIO()
        second = []
        _r, report = ResilientRunner(manifest).run(
            _local_experiments(second), stream=stream
        )
        assert "salvaged" in stream.getvalue()
        assert report.metrics.counter("runner.manifest_salvaged").value == 1
        # Both experiments were in the .bak: nothing re-ran.
        assert [o.status for o in report.outcomes] == [
            "checkpointed",
            "checkpointed",
        ]
        assert second == []

    def test_torn_manifest_without_bak_starts_fresh_with_warning(
        self, tmp_path
    ):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"version": 1, "entr')  # torn, no history
        stream = io.StringIO()
        calls = []
        _r, report = ResilientRunner(manifest).run(
            _local_experiments(calls), stream=stream
        )
        assert report.ok
        assert "no backup exists" in stream.getvalue()
        assert sorted(calls) == ["alpha", "beta"]

    def test_code_change_invalidation_is_announced(self, tmp_path):
        manifest = tmp_path / "m.json"
        calls = []
        ResilientRunner(manifest).run(
            _local_experiments(calls), code_hash="a" * 16
        )
        stream = io.StringIO()
        second = []
        _r, report = ResilientRunner(manifest).run(
            _local_experiments(second), code_hash="b" * 16, stream=stream
        )
        text = stream.getvalue()
        assert "checkpoint invalidated (code changed)" in text
        assert f"old={'a' * 16}" in text and f"new={'b' * 16}" in text
        invalidated = report.metrics.counter(
            "runner.checkpoints_invalidated"
        ).value
        assert invalidated == 2
        assert sorted(second) == ["alpha", "beta"]  # recomputed, loudly


# --------------------------------------------------------------------------
# Graceful shutdown (SIGINT / SIGTERM)
# --------------------------------------------------------------------------


class TestGracefulShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_flushes_checkpoint_and_reports_partial(
        self, tmp_path, signum
    ):
        manifest = tmp_path / "m.json"

        def first(factor):
            os.kill(os.getpid(), signum)
            return _FakeResult("finished despite signal")

        def second(factor):  # pragma: no cover - must never run
            raise AssertionError("ran past a graceful shutdown")

        stream = io.StringIO()
        _r, report = ResilientRunner(manifest).run(
            {"a": first, "b": second}, stream=stream
        )
        assert report.interrupted == signal.Signals(signum).name
        statuses = {o.exp_id: o.status for o in report.outcomes}
        assert statuses == {"a": "ok", "b": "interrupted"}
        assert "interrupted by" in report.render()
        assert sweep_exit_code(report) == EXIT_INTERRUPTED
        # The finished experiment was checkpointed before shutdown.
        assert "a" in json.loads(manifest.read_text())["entries"]

    def test_resume_after_interruption_completes_the_rest(self, tmp_path):
        manifest = tmp_path / "m.json"

        def first(factor):
            os.kill(os.getpid(), signal.SIGINT)
            return _FakeResult("first done")

        ResilientRunner(manifest).run(
            {"a": first, "b": lambda factor: _FakeResult("second done")}
        )
        _r, resumed = ResilientRunner(manifest).run(
            {
                "a": lambda factor: _FakeResult("first done"),
                "b": lambda factor: _FakeResult("second done"),
            }
        )
        assert resumed.interrupted is None
        statuses = {o.exp_id: o.status for o in resumed.outcomes}
        assert statuses == {"a": "checkpointed", "b": "ok"}
        assert sweep_exit_code(resumed) == EXIT_OK

    def test_handlers_are_restored(self, tmp_path):
        before = signal.getsignal(signal.SIGINT)
        ResilientRunner(tmp_path / "m.json").run(
            {"a": lambda factor: _FakeResult("ok")}
        )
        assert signal.getsignal(signal.SIGINT) is before

    def test_pool_workers_ignore_graceful_signals(self):
        # Forked workers must not run the parent's inherited handler: the
        # parent alone drains, and it stops its workers with SIGKILL.
        from repro.robustness.runner import process_pool
        from repro.robustness.signals import GracefulSignals

        with GracefulSignals():
            pool = process_pool(1)
            try:
                handlers = [
                    pool.submit(signal.getsignal, signum).result(timeout=60)
                    for signum in (signal.SIGINT, signal.SIGTERM)
                ]
            finally:
                pool.shutdown()
        assert handlers == [signal.SIG_IGN, signal.SIG_IGN]

    def test_pool_workers_die_with_a_killed_parent(self):
        # A parent killed outright runs no cleanup: each worker must
        # notice it was orphaned and exit on its own.
        script = (
            "import os, sys, time\n"
            "from repro.robustness.runner import process_pool\n"
            "def pid():\n"
            "    time.sleep(0.5)\n"
            "    return os.getpid()\n"
            "pool = process_pool(2)\n"
            "futures = [pool.submit(pid) for _ in range(2)]\n"
            "print(*sorted({f.result(timeout=60) for f in futures}),"
            " flush=True)\n"
            "time.sleep(600)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env
        )
        workers: list[int] = []
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie no longer runs)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: signal 0 only tests existence
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestExitCodes:
    def test_table(self):
        ok = RunReport(outcomes=[ExperimentOutcome("a", "ok")])
        assert sweep_exit_code(ok) == EXIT_OK
        partial = RunReport(outcomes=[ExperimentOutcome("a", "failed")])
        assert sweep_exit_code(partial) == EXIT_PARTIAL
        stopped = RunReport(
            outcomes=[ExperimentOutcome("a", "interrupted")],
            interrupted="SIGINT",
        )
        assert sweep_exit_code(stopped) == EXIT_INTERRUPTED

    def test_cli_rejects_bad_chaos_spec(self, capsys):
        from repro.experiments.cli import main as cli_main

        code = cli_main(
            ["experiments", "--only", "fig1", "--chaos", "explode"]
        )
        assert code == EXIT_USAGE
        assert "unknown chaos kind" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Eager environment validation
# --------------------------------------------------------------------------


class TestEnvValidation:
    def test_clean_environment_passes(self):
        validate_environment({})

    def test_defaults_and_valid_values_pass(self):
        validate_environment(
            {
                "REPRO_TRACE_CACHE": "off",
                "REPRO_TRACE_CACHE_VERIFY": "1",
                "REPRO_TRACE_CACHE_DIR": "/tmp/somewhere-new",
            }
        )

    def test_all_problems_collected(self):
        with pytest.raises(EnvValidationError) as caught:
            validate_environment(
                {
                    "REPRO_TRACE_CACHE_VERIFY": "bogus",
                    "REPRO_TRACE_CACHE": "maybe",
                    "REPRO_TRACE_CACHE_DIR": "  ",
                }
            )
        message = str(caught.value)
        for name in (
            "REPRO_TRACE_CACHE_VERIFY",
            "REPRO_TRACE_CACHE",
            "REPRO_TRACE_CACHE_DIR",
        ):
            assert name in message

    def test_cache_dir_must_not_be_a_file(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        with pytest.raises(EnvValidationError, match="not a directory"):
            validate_environment({"REPRO_TRACE_CACHE_DIR": str(blocker)})

    def test_run_all_cli_exits_usage_on_bad_env(self, monkeypatch, capsys):
        from repro.experiments.run_all import main as run_all_main

        monkeypatch.setenv("REPRO_TRACE_CACHE_VERIFY", "bogus")
        assert run_all_main(["--only", "fig1"]) == EXIT_USAGE
        assert "REPRO_TRACE_CACHE_VERIFY" in capsys.readouterr().err

    def test_aurora_cli_exits_usage_on_bad_env(self, monkeypatch, capsys):
        from repro.experiments.cli import main as cli_main

        monkeypatch.setenv("REPRO_TRACE_CACHE", "sometimes")
        assert cli_main(["list"]) == EXIT_USAGE
        assert "REPRO_TRACE_CACHE" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Concurrent eviction (two real processes, one cache directory)
# --------------------------------------------------------------------------

_EVICTOR = """
import sys
import numpy as np
from repro.workloads.trace_cache import TraceCache
root, which = sys.argv[1], int(sys.argv[2])
cache = TraceCache(root, max_entries=4)
for i in range(25):
    arr = np.full((8, 6), which * 100 + i, dtype=np.int64)
    arr[:, 3:5] = -1
    cache.store(f"w{which}x{i}", 1, arr)
    cache.load(f"w{which}x{i}", 1)
print("done", which)
"""


class TestConcurrentEviction:
    def test_two_processes_never_crash_or_orphan_tmp(self, tmp_path):
        src = os.path.dirname(
            os.path.dirname(os.path.dirname(trace_cache.__file__))
        )
        env = {**os.environ, "PYTHONPATH": src}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _EVICTOR, str(tmp_path), str(which)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for which in (0, 1)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out
        leftovers = [
            entry.name
            for entry in tmp_path.iterdir()
            if ".tmp" in entry.name
        ]
        assert leftovers == []
        # A final sweep restores the bound no matter how the races fell.
        cache = TraceCache(tmp_path, max_entries=4)
        cache._evict()
        entries = [
            entry
            for entry in tmp_path.glob("*.npy")
            if ".tmp" not in entry.name
        ]
        assert len(entries) <= 4
        # Sidecars always travel with their entries.
        for sidecar in tmp_path.glob("*.crc"):
            assert sidecar.with_name(sidecar.name[: -len(".crc")]).exists()

    def test_stale_tmp_debris_is_reaped(self, tmp_path):
        cache = TraceCache(tmp_path, max_entries=2)
        debris = tmp_path / "w-s1-deadbeefdeadbeefXXXX.tmp"
        debris_npy = tmp_path / "w-s1-deadbeefdeadbeefXXXX.tmp.npy"
        debris.write_bytes(b"")
        debris_npy.write_bytes(b"garbage")
        old = time.time() - 2 * trace_cache.TMP_REAP_SECONDS
        os.utime(debris, (old, old))
        os.utime(debris_npy, (old, old))
        cache.store("w", 1, _array())  # store triggers the eviction sweep
        assert not debris.exists()
        assert not debris_npy.exists()

    def test_fresh_tmp_files_are_left_alone(self, tmp_path):
        cache = TraceCache(tmp_path, max_entries=2)
        live = tmp_path / "w-s1-deadbeefdeadbeefYYYY.tmp.npy"
        live.write_bytes(b"in-flight write")
        cache.store("w", 1, _array())
        assert live.exists()  # a concurrent writer's file is not debris
