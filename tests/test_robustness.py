"""Tests for the robustness subsystem: config validation, runtime
invariant guards, and the fault-tolerant checkpointing experiment runner.

See docs/ROBUSTNESS.md for the contract under test.
"""

import json
import time

import pytest

from repro.core.caches import PipelinedCachePort
from repro.core.config import BASELINE, ConfigError, FPUConfig, MachineConfig
from repro.core.fpu import DecoupledFPU
from repro.core.mshr import MSHRFile
from repro.core.processor import AuroraProcessor, simulate_trace
from repro.experiments.common import CpiSummary, scaled_trace
from repro.robustness.chaos import ChaosError, ChaosFault, ChaosPlan
from repro.robustness.faults import TransientFault, corrupt_trace
from repro.robustness.guards import (
    GuardViolation,
    RobustnessPolicy,
    SimulationError,
    Watchdog,
    config_fingerprint,
)
from repro.robustness.runner import (
    CheckpointedResult,
    ResilientRunner,
    code_fingerprint,
)
from repro.robustness.validation import (
    TraceValidationError,
    validate_factor,
    validate_scale,
    validate_trace,
)
from repro.telemetry.events import EventBus, EventKind, RingBufferSink
from repro.workloads.registry import get_trace

#: Guards are always on; with these bounds no run trips one, so a run
#: under this policy is the reference for where a guard fires.
UNREACHED_BOUNDS = RobustnessPolicy(max_stall_cycles=1 << 62, cycle_limit=1 << 62)


@pytest.fixture(scope="module")
def small_trace():
    return get_trace("espresso", 12)


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry transient failures at once (the real delays are constants)."""
    monkeypatch.setattr("repro.robustness.runner.RETRY_BACKOFF_S", 0.0)


# --------------------------------------------------------------------------
# Layer 1: configuration and input validation
# --------------------------------------------------------------------------


class TestConfigValidationMatrix:
    """Each invalid shape is rejected with a message naming the field."""

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"issue_width": 3}, "issue_width"),
            ({"line_bytes": 24}, "line_bytes"),
            ({"icache_bytes": 3000}, "icache_bytes"),  # not a power of two
            ({"dcache_bytes": 48 * 1024}, "dcache_bytes"),
            ({"writecache_lines": 0}, "writecache_lines"),
            ({"rob_entries": -1}, "rob_entries"),
            ({"mshr_entries": 0}, "mshr_entries"),
            ({"prefetch_buffers": 0}, "prefetch_buffers"),
            ({"prefetch_line_depth": 0}, "prefetch_line_depth"),
            ({"mem_latency": -5}, "mem_latency"),
            ({"dcache_latency": 0}, "dcache_latency"),
            ({"bus_occupancy": 0}, "bus_occupancy"),
            ({"retire_width": 0}, "retire_width"),
            ({"page_bytes": 100}, "page_bytes"),
            # Write cache the BIU cannot drain: 1024 lines x 1000-cycle
            # bus occupancy >> 16 memory round trips.
            ({"writecache_lines": 1024, "bus_occupancy": 1000},
             "writecache_lines"),
            ({"mem_latency": 10_000_000}, "mem_latency"),  # sanity ceiling
        ],
    )
    def test_rejected_naming_field(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            MachineConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"instruction_queue": 0}, "instruction_queue"),
            ({"load_queue": -2}, "load_queue"),
            ({"store_queue": 0}, "store_queue"),
            ({"rob_entries": 0}, "rob_entries"),
            ({"add_latency": 0}, "add_latency"),
            ({"div_latency": -1}, "div_latency"),
            ({"result_buses": 0}, "result_buses"),
            ({"instruction_queue": 10**6}, "instruction_queue"),  # ceiling
        ],
    )
    def test_fpu_rejected_naming_field(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            FPUConfig(**overrides)

    def test_all_violations_collected(self):
        """One error message lists every bad field, not just the first."""
        with pytest.raises(ConfigError) as excinfo:
            MachineConfig(mshr_entries=0, mem_latency=0, rob_entries=0)
        message = str(excinfo.value)
        assert "mshr_entries" in message
        assert "mem_latency" in message
        assert "rob_entries" in message

    def test_nested_fpu_violations_prefixed(self):
        fpu = object.__new__(FPUConfig)  # bypass __init__ validation
        object.__setattr__(fpu, "__dict__", FPUConfig().__dict__.copy())
        object.__setattr__(fpu, "load_queue", 0)
        with pytest.raises(ConfigError, match=r"fpu\.load_queue"):
            MachineConfig(fpu=fpu)

    def test_validate_returns_self(self):
        assert BASELINE.validate() is BASELINE

    def test_valid_configs_pass(self):
        for config in (BASELINE, MachineConfig(name="big", icache_bytes=1 << 20)):
            config.validate()


class TestTraceValidation:
    def test_valid_trace_passes(self, small_trace):
        validate_trace(small_trace)

    def test_empty_trace_allowed_by_default(self):
        validate_trace([])
        stats = simulate_trace([], BASELINE).stats
        assert stats.instructions == 0

    def test_empty_trace_rejected_when_asked(self):
        with pytest.raises(TraceValidationError, match="empty"):
            validate_trace([], allow_empty=False)

    def test_not_a_sequence(self):
        with pytest.raises(TraceValidationError, match="sequence"):
            validate_trace(42)

    @pytest.mark.parametrize(
        "record, field",
        [
            ((4, 0, 18), "6-tuple"),
            ((4, 0, 18, -1, -1, 0.5), "addr"),
            ((-4, 0, 18, -1, -1, 0), "pc"),
            ((6, 0, 18, -1, -1, 0), "aligned"),
            ((4, 127, 18, -1, -1, 0), "kind"),
            ((4, 0, 999, -1, -1, 0), "dst"),
            ((4, 0, 18, -2, -1, 0), "src1"),
            ((4, 0, 18, -1, 66, 0), "src2"),
            ((4, 1, 18, -1, -1, -8), "addr"),
        ],
    )
    def test_bad_record_named(self, record, field):
        with pytest.raises(TraceValidationError, match=field):
            validate_trace([record])

    def test_error_names_record_index(self, small_trace):
        bad = list(small_trace)
        bad[3] = (bad[3][0], 127, *bad[3][2:])
        with pytest.raises(TraceValidationError, match="record 3"):
            validate_trace(bad)

    def test_corrupt_trace_caught_by_simulate(self, small_trace):
        with pytest.raises(TraceValidationError):
            simulate_trace(corrupt_trace(small_trace, seed=7), BASELINE)

    def test_corrupt_trace_is_deterministic(self, small_trace):
        assert corrupt_trace(small_trace, seed=3) == corrupt_trace(
            small_trace, seed=3
        )
        assert corrupt_trace(small_trace, seed=3) != list(small_trace)


class TestPreparedValidationMemo:
    """The vectorized prepared-trace pass runs once per trace object."""

    @staticmethod
    def _fresh_prepared(small_trace):
        from repro.func.prepared import prepare_trace

        records = (
            small_trace.to_records()
            if hasattr(small_trace, "to_records")
            else list(small_trace)
        )
        return prepare_trace(records, workload="espresso")

    def test_revalidation_hits_the_memo(self, small_trace):
        from repro.robustness.validation import validation_snapshot

        prepared = self._fresh_prepared(small_trace)
        assert not prepared.validated
        passes, hits = validation_snapshot()
        validate_trace(prepared)
        assert prepared.validated
        assert validation_snapshot() == (passes + 1, hits)
        # A sweep re-validating the shared trace per config pays nothing:
        # no second vectorized pass, only memo hits.
        validate_trace(prepared)
        validate_trace(prepared)
        assert validation_snapshot() == (passes + 1, hits + 2)

    def test_memo_keyed_per_instance(self, small_trace):
        from repro.robustness.validation import validation_snapshot

        first = self._fresh_prepared(small_trace)
        second = self._fresh_prepared(small_trace)
        validate_trace(first)
        passes, hits = validation_snapshot()
        # A different PreparedTrace over the same records is a different
        # memo entry: it gets its own (single) vectorized pass.
        validate_trace(second)
        assert validation_snapshot() == (passes + 1, hits)

    def test_memo_does_not_pin_the_trace(self, small_trace):
        import gc
        import weakref

        prepared = self._fresh_prepared(small_trace)
        validate_trace(prepared)
        ref = weakref.ref(prepared)
        del prepared
        gc.collect()
        assert ref() is None, (
            "validation memo kept a shared PreparedTrace alive"
        )


class TestFactorAndScaleValidation:
    @pytest.mark.parametrize("factor", [0, -1, -0.5, float("nan"), float("inf")])
    def test_bad_factors(self, factor):
        with pytest.raises(ValueError, match="factor"):
            validate_factor(factor)

    def test_good_factor_passes_through(self):
        assert validate_factor(0.5) == 0.5

    @pytest.mark.parametrize("factor", [0, -2])
    def test_scaled_trace_rejects(self, factor):
        with pytest.raises(ValueError, match="factor"):
            scaled_trace("espresso", factor)

    @pytest.mark.parametrize("scale", [0, -3, 1.5])
    def test_bad_scales(self, scale):
        with pytest.raises(ValueError, match="scale"):
            validate_scale(scale)

    def test_simulate_workload_rejects_bad_scale(self):
        from repro.api import simulate_workload

        with pytest.raises(ValueError, match="scale"):
            simulate_workload("espresso", BASELINE, scale=0)

    def test_cpi_summary_empty_stats(self):
        with pytest.raises(ValueError, match="empty suite stats"):
            CpiSummary.from_stats("baseline/dual", 100.0, {})

    def test_run_all_cli_rejects_zero_factor(self, capsys):
        from repro.experiments.run_all import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--factor", "0"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "--factor" in capsys.readouterr().err

    def test_aurora_cli_rejects_negative_factor(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "--factor", "-1"])
        assert excinfo.value.code == 2
        assert "--factor" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Layer 2: runtime invariant guards
# --------------------------------------------------------------------------


class TestWatchdog:
    def test_normal_run_never_trips(self, small_trace):
        result = simulate_trace(
            small_trace, BASELINE, policy=RobustnessPolicy(check_period=64)
        )
        assert result.stats.instructions == len(small_trace)

    def test_guards_match_unguarded_numbers(self, small_trace):
        guarded = simulate_trace(small_trace, BASELINE)
        unguarded = simulate_trace(
            small_trace, BASELINE, policy=UNREACHED_BOUNDS
        )
        assert guarded.stats.cycles == unguarded.stats.cycles

    def test_wedged_pipeline_trips_forward_progress(
        self, small_trace, monkeypatch
    ):
        """A D-cache port that starts accesses aeons in the future wedges
        the pipeline; the watchdog must trip within the configured bound."""
        original = PipelinedCachePort.start_access

        def wedged(self, when):
            return original(self, when) + 10_000_000_000

        monkeypatch.setattr(PipelinedCachePort, "start_access", wedged)
        policy = RobustnessPolicy(max_stall_cycles=50_000)
        with pytest.raises(SimulationError) as excinfo:
            AuroraProcessor(BASELINE, policy).run(small_trace)
        error = excinfo.value
        assert error.reason == "forward-progress"
        assert error.cycle > 10_000_000_000
        assert error.fingerprint == config_fingerprint(BASELINE)
        assert error.config_label == BASELINE.label
        assert isinstance(error.stall_snapshot, dict)

    def test_stall_snapshot_is_exact(self, small_trace, monkeypatch):
        # The snapshot holds the stall counters through the failing
        # instruction: those of an unguarded run of the records up to it.
        original = PipelinedCachePort.start_access

        def wedged(self, when):
            return original(self, when) + 10_000_000_000

        monkeypatch.setattr(PipelinedCachePort, "start_access", wedged)
        policy = RobustnessPolicy(max_stall_cycles=50_000)
        with pytest.raises(SimulationError) as excinfo:
            AuroraProcessor(BASELINE, policy).run(small_trace)
        index = excinfo.value.instruction_index
        prefix = small_trace[: index + 1]
        unguarded = AuroraProcessor(
            BASELINE, UNREACHED_BOUNDS
        ).run(prefix)
        assert excinfo.value.stall_snapshot == unguarded.stats.stall_cycles
        assert any(excinfo.value.stall_snapshot.values())

    def test_cycle_overflow_trips(self, small_trace, monkeypatch):
        original = PipelinedCachePort.start_access

        def wedged(self, when):
            return original(self, when) + (1 << 40)

        monkeypatch.setattr(PipelinedCachePort, "start_access", wedged)
        policy = RobustnessPolicy(
            max_stall_cycles=1 << 50, cycle_limit=1 << 41
        )
        with pytest.raises(SimulationError) as excinfo:
            AuroraProcessor(BASELINE, policy).run(small_trace)
        assert excinfo.value.reason == "cycle-overflow"

    def test_occupancy_violation_becomes_simulation_error(self):
        watchdog = Watchdog(BASELINE, RobustnessPolicy(check_period=1))
        mshr = MSHRFile(2)
        mshr._free_at.append(0)  # corrupt: 3 entries in a 2-entry file
        watchdog.watch(mshr)
        with pytest.raises(SimulationError) as excinfo:
            watchdog.check_structures(0, 10)
        assert excinfo.value.reason == "occupancy"
        assert "MSHR" in str(excinfo.value)

    def test_policy_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RobustnessPolicy(max_stall_cycles=0)
        with pytest.raises(ValueError):
            RobustnessPolicy(check_period=0)

    def test_error_message_carries_context(self, small_trace, monkeypatch):
        original = PipelinedCachePort.start_access
        monkeypatch.setattr(
            PipelinedCachePort,
            "start_access",
            lambda self, when: original(self, when) + 10**12,
        )
        with pytest.raises(SimulationError) as excinfo:
            AuroraProcessor(
                BASELINE, RobustnessPolicy(max_stall_cycles=1000)
            ).run(small_trace)
        message = str(excinfo.value)
        assert "forward-progress" in message
        assert "baseline/dual/L17" in message
        assert "fingerprint" in message


class TestWatchdogSemantics:
    """Where each guard fires, against the retire times of an unguarded
    run (its RETIRE events, one per record in order)."""

    @pytest.fixture(scope="class")
    def retires(self, small_trace):
        sink = RingBufferSink()
        simulate_trace(
            small_trace,
            BASELINE,
            policy=UNREACHED_BOUNDS,
            telemetry=EventBus(sink),
        )
        events = [e for e in sink if e.kind is EventKind.RETIRE]
        assert [e.fields["index"] for e in events] == list(
            range(len(small_trace))
        )
        return [e.cycle for e in events]

    def _run(self, trace, **policy):
        return AuroraProcessor(BASELINE, RobustnessPolicy(**policy)).run(
            trace
        )

    def test_structures_polled_every_check_period(
        self, small_trace, retires, monkeypatch
    ):
        polls = []
        monkeypatch.setattr(
            Watchdog,
            "check_structures",
            lambda self, index, cycle: polls.append((index, cycle)),
        )
        self._run(small_trace, check_period=3)
        indices = range(2, len(small_trace), 3)
        assert polls == [(i, retires[i]) for i in indices]

    def test_stall_bound_trips_at_the_first_gap_past_it(
        self, small_trace, retires
    ):
        gaps = [b - a for a, b in zip([0] + retires, retires)]
        widest = max(gaps)
        assert widest >= 2
        # Total progress passes the bound many times; no single gap does.
        assert retires[-1] > 20 * widest
        self._run(small_trace, max_stall_cycles=widest)
        with pytest.raises(SimulationError) as excinfo:
            self._run(small_trace, max_stall_cycles=widest - 1)
        first = gaps.index(widest)
        assert excinfo.value.reason == "forward-progress"
        assert excinfo.value.instruction_index == first
        assert excinfo.value.cycle == retires[first]

    def test_cycle_limit_trips_at_the_first_retire_past_it(
        self, small_trace, retires
    ):
        limit = retires[len(retires) // 2]
        first = next(i for i, cycle in enumerate(retires) if cycle > limit)
        with pytest.raises(SimulationError) as excinfo:
            self._run(small_trace, cycle_limit=limit)
        assert excinfo.value.reason == "cycle-overflow"
        assert excinfo.value.instruction_index == first
        assert excinfo.value.cycle == retires[first]


class TestStructureGuards:
    def test_mshr_healthy(self):
        mshr = MSHRFile(4)
        mshr._free_at[0] = 5  # busy until cycle 5, as the loop writes it
        mshr.assert_capacity()

    def test_mshr_corrupt_timestamp(self):
        mshr = MSHRFile(2)
        mshr._free_at[1] = -7
        with pytest.raises(GuardViolation, match="busy-until"):
            mshr.assert_capacity()

    def test_writecache_healthy_and_duplicate_line(self):
        from repro.core.biu import BusInterfaceUnit
        from repro.core.writecache import WriteCache

        wc = WriteCache(4, 32, BusInterfaceUnit(latency=17, occupancy=4))
        wc.store(0x1000, 1)
        wc.store(0x2000, 2)
        wc.assert_capacity()
        wc._lines[1].line = wc._lines[0].line  # corrupt: duplicate resident
        with pytest.raises(GuardViolation, match="twice"):
            wc.assert_capacity()

    def test_fpu_overfull_queue(self):
        fpu = DecoupledFPU(FPUConfig())
        fpu.assert_capacity()
        fpu._iq_releases.extend([0] * (FPUConfig().instruction_queue + 1))
        with pytest.raises(GuardViolation, match="instruction queue"):
            fpu.assert_capacity()

    def test_config_fingerprint_distinguishes_configs(self):
        assert config_fingerprint(BASELINE) == config_fingerprint(BASELINE)
        assert config_fingerprint(BASELINE) != config_fingerprint(
            BASELINE.with_mshrs(4)
        )


# --------------------------------------------------------------------------
# Layer 3: fault-tolerant checkpointing runner
# --------------------------------------------------------------------------


class _FakeResult:
    def __init__(self, text="fake-report"):
        self.text = text

    def render(self):
        return self.text


def _experiments(calls):
    """Two fake experiments that record their invocations."""

    def make(exp_id):
        def run(factor):
            calls.append(exp_id)
            return _FakeResult(f"{exp_id} at factor {factor}")

        return run

    return {"alpha": make("alpha"), "beta": make("beta")}


class TestResilientRunner:
    def test_crash_is_contained_and_reported(self, tmp_path):
        calls = []
        plan = ChaosPlan.parse("crash:alpha")
        runner = ResilientRunner(tmp_path / "m.json", chaos_plan=plan)
        results, report = runner.run(_experiments(calls), factor=0.5)
        assert not report.ok
        assert [o.status for o in report.outcomes] == ["failed", "ok"]
        assert "injected crash" in report.failed[0].error
        assert "beta" in results and "alpha" not in results

    def test_transient_fault_retries_with_backoff(self, tmp_path):
        calls, delays = [], []
        now = [0.0]

        def sleep(seconds):  # a fake clock that the fake sleep advances
            delays.append(seconds)
            now[0] += seconds

        plan = ChaosPlan.parse("transient:alpha:5")
        runner = ResilientRunner(
            tmp_path / "m.json",
            chaos_plan=plan,
            retries=5,
            sleep=sleep,
            clock=lambda: now[0],
        )
        _results, report = runner.run(_experiments(calls), factor=1.0)
        assert report.ok
        alpha = report.outcomes[0]
        assert alpha.status == "ok" and alpha.attempts == 6
        # Exponential from RETRY_BACKOFF_S, capped at RETRY_BACKOFF_MAX_S.
        assert delays == [0.25, 0.5, 1.0, 2.0, 2.0]
        # jobs=1: alpha's retries finish before beta starts.
        assert calls == ["alpha", "beta"]

    def test_transient_fault_exhausts_retries(self, tmp_path, no_backoff):
        calls = []
        plan = ChaosPlan.parse("transient:alpha:5")
        runner = ResilientRunner(
            tmp_path / "m.json", chaos_plan=plan, retries=1
        )
        _results, report = runner.run(_experiments(calls), factor=1.0)
        assert report.outcomes[0].status == "failed"
        assert "TransientFault" in report.outcomes[0].error

    def test_only_transient_failures_retry(self, tmp_path, no_backoff):
        # The retry rule: TransientFault and OSError retry, any other
        # failure is permanent and runs once.
        failures = {"disk": [OSError("EIO")], "bug": [ValueError("bug")]}

        def make(exp_id):
            def run(factor):
                if failures[exp_id]:
                    raise failures[exp_id].pop()
                return _FakeResult(exp_id)

            return run

        _results, report = ResilientRunner(tmp_path / "m.json").run(
            {"disk": make("disk"), "bug": make("bug")}
        )
        disk, bug = report.outcomes
        assert disk.status == "ok" and disk.attempts == 2
        assert bug.status == "failed" and bug.attempts == 1
        assert "ValueError: bug" in bug.error

    def test_timeout_abandons_hung_experiment(self, tmp_path):
        def hung(factor):
            time.sleep(30)

        runner = ResilientRunner(tmp_path / "m.json", timeout=0.05)
        _results, report = runner.run({"hung": hung, **_experiments([])})
        hung_outcome = report.outcomes[0]
        assert hung_outcome.status == "timeout"
        assert "wall-clock" in hung_outcome.error
        # The sweep continued past the hung experiment.
        assert [o.status for o in report.outcomes[1:]] == ["ok", "ok"]

    def test_render_failure_is_contained(self, tmp_path):
        plan = ChaosPlan.parse("corrupt-result:alpha")
        runner = ResilientRunner(tmp_path / "m.json", chaos_plan=plan)
        _results, report = runner.run(_experiments([]), factor=1.0)
        assert report.outcomes[0].status == "failed"
        assert "render" in report.outcomes[0].error

    def test_checkpoint_resume_skips_finished_work(self, tmp_path):
        manifest = tmp_path / "m.json"
        calls = []
        plan = ChaosPlan.parse("crash:beta")
        ResilientRunner(manifest, chaos_plan=plan).run(
            _experiments(calls), factor=0.5
        )
        assert calls == ["alpha"]
        # Second invocation: alpha restored from checkpoint, beta re-runs.
        results, report = ResilientRunner(manifest).run(
            _experiments(calls), factor=0.5
        )
        assert calls == ["alpha", "beta"]  # alpha did NOT re-run
        assert report.ok
        assert isinstance(results["alpha"], CheckpointedResult)
        assert results["alpha"].render() == "alpha at factor 0.5"
        assert [o.status for o in report.outcomes] == ["checkpointed", "ok"]

    def test_checkpoint_key_includes_factor(self, tmp_path):
        manifest = tmp_path / "m.json"
        calls = []
        ResilientRunner(manifest).run(_experiments(calls), factor=0.5)
        ResilientRunner(manifest).run(_experiments(calls), factor=0.9)
        # Different factor -> stale checkpoints are not reused.
        assert calls == ["alpha", "beta", "alpha", "beta"]

    def test_checkpoint_key_includes_code_hash(self, tmp_path):
        manifest = tmp_path / "m.json"
        calls = []
        ResilientRunner(manifest).run(
            _experiments(calls), factor=0.5, code_hash="v1"
        )
        ResilientRunner(manifest).run(
            _experiments(calls), factor=0.5, code_hash="v2"
        )
        assert calls == ["alpha", "beta", "alpha", "beta"]

    def test_no_resume_reruns_everything(self, tmp_path):
        manifest = tmp_path / "m.json"
        calls = []
        ResilientRunner(manifest).run(_experiments(calls), factor=0.5)
        ResilientRunner(manifest).run(
            _experiments(calls), factor=0.5, resume=False
        )
        assert calls == ["alpha", "beta", "alpha", "beta"]

    def test_corrupt_manifest_starts_fresh(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("{not json")
        calls = []
        _results, report = ResilientRunner(manifest).run(
            _experiments(calls), factor=0.5
        )
        assert report.ok and calls == ["alpha", "beta"]
        # And the manifest was rewritten valid.
        assert json.loads(manifest.read_text())["version"] == 1

    def test_unknown_only_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonesuch"):
            ResilientRunner(tmp_path / "m.json").run(
                _experiments([]), only=["nonesuch"]
            )

    def test_report_renders_causes(self, tmp_path):
        plan = ChaosPlan.parse("crash:alpha")
        _results, report = ResilientRunner(
            tmp_path / "m.json", chaos_plan=plan
        ).run(_experiments([]), factor=1.0)
        text = report.render()
        assert "1 failed" in text
        assert "injected crash" in text

    def test_out_dir_gets_text_reports_and_manifest(self, tmp_path):
        out = tmp_path / "results"
        ResilientRunner().run(_experiments([]), out_dir=out)
        assert (out / "alpha.txt").read_text().startswith("alpha at factor")
        assert (out / "manifest.json").exists()

    def test_fault_spec_validation(self):
        with pytest.raises(ChaosError, match="chaos kind"):
            ChaosFault(kind="explode")
        with pytest.raises(ChaosError):
            ChaosFault(kind="transient", count=0)

    def test_code_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestRunAllIntegration:
    """End-to-end through repro.experiments.run_all with real (fast)
    experiment drivers: the issue's acceptance scenario."""

    def test_injected_crash_then_resume(self, tmp_path):
        import io

        from repro.experiments.run_all import run_resilient

        out = tmp_path / "results"
        stream = io.StringIO()
        _results, report = run_resilient(
            factor=0.1,
            out_dir=str(out),
            only=["fig1", "table2"],
            stream=stream,
            chaos="crash:table2",
        )
        # The crash did not abort the sweep; it is reported with cause.
        assert not report.ok
        statuses = {o.exp_id: o.status for o in report.outcomes}
        assert statuses == {"fig1": "ok", "table2": "failed"}
        assert "injected crash" in report.failed[0].error
        assert "sweep report" in stream.getvalue()

        # Second invocation resumes: only the failed experiment re-runs.
        results2, report2 = run_resilient(
            factor=0.1,
            out_dir=str(out),
            only=["fig1", "table2"],
            stream=io.StringIO(),
        )
        assert report2.ok
        statuses2 = {o.exp_id: o.status for o in report2.outcomes}
        assert statuses2 == {"fig1": "checkpointed", "table2": "ok"}
        assert isinstance(results2["fig1"], CheckpointedResult)
        assert "Alpha" in results2["fig1"].render()  # real fig1 content

    def test_second_sigint_aborts_hard(self, tmp_path, monkeypatch):
        import io
        import os
        import signal

        from repro.experiments import table2_cost
        from repro.experiments.run_all import run_resilient

        def interrupted(*_args, **_kwargs):
            os.kill(os.getpid(), signal.SIGINT)
            os.kill(os.getpid(), signal.SIGINT)
            raise AssertionError("ran on past a second SIGINT")

        monkeypatch.setattr(table2_cost, "run", interrupted)
        out = tmp_path / "results"
        before = signal.getsignal(signal.SIGINT)
        with pytest.raises(KeyboardInterrupt):
            run_resilient(
                factor=0.1,
                out_dir=str(out),
                only=["fig1", "table2"],
                stream=io.StringIO(),
                jobs=1,
            )
        assert signal.getsignal(signal.SIGINT) is before
        manifest = json.loads((out / "manifest.json").read_text())
        # The experiment before the abort stays checkpointed; the one it
        # interrupted is not recorded as a failure.
        assert list(manifest["entries"]) == ["fig1"]
        assert "runner.experiments_failed" not in manifest["metrics"]["counters"]

    def test_run_all_back_compat_returns_results(self, tmp_path):
        import io

        from repro.experiments.run_all import run_resilient

        results, _report = run_resilient(
            factor=0.1, only=["fig1"], stream=io.StringIO()
        )
        assert set(results) == {"fig1"}
        assert "per year" in results["fig1"].render()

    def test_run_all_rejects_bad_factor(self):
        from repro.experiments.run_all import run_resilient

        with pytest.raises(ValueError, match="factor"):
            run_resilient(factor=0)


# --------------------------------------------------------------------------
# Layer 4: process-parallel execution
# --------------------------------------------------------------------------
#
# The callables below live at module level because the process pool must
# pickle them (the lambda-style experiments above cannot cross a process
# boundary).


def _par_pid(factor):
    import os

    return _FakeResult(f"ran in pid {os.getpid()} at factor {factor}")


def _par_slow(factor):
    time.sleep(0.2)
    return _FakeResult("slow done")


def _par_sleep(factor):
    time.sleep(0.3)
    return _FakeResult("slept")


#: A result every call returns: in-process sweeps must hand it back as is.
_PAR_SHARED = _FakeResult("shared")


def _par_shared(factor):
    return _PAR_SHARED


def _par_die(factor):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def _par_hang(factor):
    time.sleep(60)
    return _FakeResult("never")


class _UnpicklableResult:
    def __init__(self):
        self.blocker = lambda: None  # lambdas cannot pickle

    def render(self):
        return "unpicklable but rendered"


def _par_unpicklable(factor):
    return _UnpicklableResult()


def _par_trace_user(factor):
    from repro.workloads.registry import get_trace

    return _FakeResult(f"trace of {len(get_trace('sc', 9))} records")


def _par_repeat_sweep(factor):
    # A fresh prepared trace per attempt, so a reused worker process
    # holds no results for it yet: the second sweep reuses both configs.
    from repro.core.config import baseline_model, small_model
    from repro.core.kernel import simulate_many
    from repro.func.prepared import prepare_trace
    from repro.workloads.registry import get_trace

    trace = prepare_trace(get_trace("espresso", 12).array)
    configs = [small_model(), baseline_model()]
    simulate_many(trace, configs)
    simulate_many(trace, configs)
    return _FakeResult("swept twice")


def _par_repeat_sweep_then_fail(factor):
    _par_repeat_sweep(factor)
    raise TransientFault("swept twice, then failed")


class TestParallelRunner:
    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            ResilientRunner(jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            ResilientRunner(jobs=1.5)

    def test_runs_in_worker_processes(self, tmp_path):
        import os

        runner = ResilientRunner(tmp_path / "m.json", jobs=2)
        results, report = runner.run(
            {"a": _par_pid, "b": _par_pid, "c": _par_pid}, factor=0.5
        )
        assert report.ok
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            assert outcome.worker.startswith("pid-")
            assert outcome.worker != f"pid-{os.getpid()}"
        assert "factor 0.5" in results["a"].render()

    def test_parallel_report_order_matches_serial(self, tmp_path):
        experiments = {"z": _par_pid, "a": _par_slow, "m": _par_pid}
        _r1, serial = ResilientRunner(tmp_path / "s.json").run(experiments)
        _r2, parallel = ResilientRunner(tmp_path / "p.json", jobs=3).run(
            experiments
        )
        # Canonical mapping order regardless of completion order.
        assert [o.exp_id for o in serial.outcomes] == ["z", "a", "m"]
        assert [o.exp_id for o in parallel.outcomes] == ["z", "a", "m"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_fault_retries_across_processes(
        self, tmp_path, jobs, no_backoff
    ):
        plan = ChaosPlan.parse("transient:flaky:2")
        runner = ResilientRunner(
            tmp_path / "m.json", jobs=jobs, chaos_plan=plan, retries=2
        )
        _results, report = runner.run({"flaky": _par_pid, "b": _par_pid})
        outcomes = {o.exp_id: o for o in report.outcomes}
        assert outcomes["flaky"].status == "ok"
        assert outcomes["flaky"].attempts == 3  # parent-tracked attempts
        assert outcomes["b"].status == "ok"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_injected_crash_contained_in_parallel(self, tmp_path, jobs):
        plan = ChaosPlan.parse("crash:bad")
        runner = ResilientRunner(
            tmp_path / "m.json", jobs=jobs, chaos_plan=plan
        )
        results, report = runner.run({"bad": _par_pid, "ok": _par_shared})
        outcomes = {o.exp_id: o for o in report.outcomes}
        assert outcomes["bad"].status == "failed"
        assert "injected crash" in outcomes["bad"].error
        assert outcomes["ok"].status == "ok"
        assert "bad" not in results
        if jobs == 1:
            # In process: the driver's own object, not a copy or a
            # text-only CheckpointedResult.
            assert results["ok"] is _PAR_SHARED
            assert outcomes["ok"].worker == "main"

    def test_worker_death_does_not_kill_the_sweep(self, tmp_path):
        runner = ResilientRunner(tmp_path / "m.json", jobs=2)
        results, report = runner.run(
            {"die": _par_die, "b": _par_slow, "c": _par_pid}
        )
        outcomes = {o.exp_id: o for o in report.outcomes}
        # The SIGKILL'd worker is reported, bystanders complete.
        assert outcomes["die"].status == "failed"
        assert "worker process died" in outcomes["die"].error
        assert outcomes["b"].status == "ok"
        assert outcomes["c"].status == "ok"

    def test_timeout_kills_worker_for_real(self, tmp_path):
        started = time.monotonic()
        runner = ResilientRunner(tmp_path / "m.json", jobs=2, timeout=0.5)
        _results, report = runner.run({"hang": _par_hang, "b": _par_pid})
        wall = time.monotonic() - started
        outcomes = {o.exp_id: o for o in report.outcomes}
        assert outcomes["hang"].status == "timeout"
        assert "worker process killed" in outcomes["hang"].error
        assert outcomes["b"].status == "ok"
        # The 60s sleeper was killed, not waited for or abandoned.
        assert wall < 20

    def test_queued_experiment_timeout_starts_when_it_runs(self, tmp_path):
        # Three 0.3 s experiments on two workers under a 0.5 s budget:
        # the third waits for a free worker, and the wait is not billed
        # against its budget.
        runner = ResilientRunner(tmp_path / "m.json", jobs=2, timeout=0.5)
        _results, report = runner.run(
            {"a": _par_sleep, "b": _par_sleep, "c": _par_sleep}
        )
        assert [o.status for o in report.outcomes] == ["ok", "ok", "ok"]

    def test_unpicklable_result_degrades_to_text(self, tmp_path):
        runner = ResilientRunner(tmp_path / "m.json", jobs=2)
        results, report = runner.run({"u": _par_unpicklable})
        assert report.ok
        assert isinstance(results["u"], CheckpointedResult)
        assert results["u"].render() == "unpicklable but rendered"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_checkpoint_resume(self, tmp_path, jobs):
        manifest = tmp_path / "m.json"
        experiments = {"a": _par_pid, "b": _par_pid}
        _r, first = ResilientRunner(manifest, jobs=jobs).run(experiments)
        assert first.ok
        _r, second = ResilientRunner(manifest, jobs=jobs).run(experiments)
        assert [o.status for o in second.outcomes] == [
            "checkpointed",
            "checkpointed",
        ]

    def test_manifest_records_worker_and_cache_counters(self, tmp_path):
        manifest = tmp_path / "m.json"
        ResilientRunner(manifest, jobs=2).run({"a": _par_pid})
        entry = json.loads(manifest.read_text())["entries"]["a"]
        assert entry["worker"].startswith("pid-")
        assert isinstance(entry["trace_cache_hits"], int)
        assert isinstance(entry["trace_cache_misses"], int)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reused_configs_published_as_runner_sim_reused(
        self, tmp_path, jobs
    ):
        runner = ResilientRunner(tmp_path / "m.json", jobs=jobs)
        _results, report = runner.run({"r": _par_repeat_sweep})
        assert report.ok
        assert report.outcomes[0].sim_reused == 2
        assert report.metrics.counter("runner.sim_reused").value == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counters_sum_over_attempts(self, tmp_path, jobs, no_backoff):
        # Both attempts simulate (each reuses 2 configs), then fail
        # transiently: the outcome bills the work of every attempt.
        runner = ResilientRunner(tmp_path / "m.json", jobs=jobs, retries=1)
        _results, report = runner.run({"r": _par_repeat_sweep_then_fail})
        (outcome,) = report.outcomes
        assert outcome.status == "failed" and outcome.attempts == 2
        assert outcome.sim_reused == 4
        assert report.metrics.counter("runner.sim_reused").value == 4

    def test_warm_disk_cache_visible_in_outcomes(self, tmp_path):
        # Workers are fresh processes: the first parallel run must build
        # the trace (a disk miss), the second must load it (a disk hit)
        # without re-running the functional simulator.
        from repro.workloads import trace_cache
        from repro.workloads.trace_cache import TraceCache

        previous = trace_cache._default
        trace_cache._default = TraceCache(tmp_path / "cache")
        try:
            _r, cold = ResilientRunner(jobs=2).run({"t": _par_trace_user})
            _r, warm = ResilientRunner(jobs=2).run({"t": _par_trace_user})
        finally:
            trace_cache._default = previous
        assert cold.outcomes[0].cache_misses >= 1
        assert cold.outcomes[0].cache_hits == 0
        assert warm.outcomes[0].cache_hits >= 1
        assert warm.outcomes[0].cache_misses == 0
        assert cold.outcomes[0].status == warm.outcomes[0].status == "ok"


class TestParallelRunAllIntegration:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        import io

        from repro.experiments.run_all import run_resilient

        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        common = dict(factor=0.1, only=["fig1", "table2"], stream=io.StringIO())
        _r, serial = run_resilient(out_dir=str(serial_out), **common)
        _r, parallel = run_resilient(
            out_dir=str(parallel_out), jobs=2, **common
        )
        assert serial.ok and parallel.ok
        for exp_id in ("fig1", "table2"):
            assert (serial_out / f"{exp_id}.txt").read_text() == (
                parallel_out / f"{exp_id}.txt"
            ).read_text()

    def test_cli_rejects_negative_retries(self):
        from repro.experiments.cli import main as cli_main
        from repro.experiments.run_all import main as run_all_main

        with pytest.raises(SystemExit) as info:
            run_all_main(["--retries", "-3", "--only", "fig1"])
        assert info.value.code == 2  # argparse usage error, not a crash
        with pytest.raises(SystemExit) as info:
            cli_main(["experiments", "--retries", "-3", "--only", "fig1"])
        assert info.value.code == 2

    def test_cli_rejects_bad_jobs(self):
        from repro.experiments.run_all import main as run_all_main

        with pytest.raises(SystemExit) as info:
            run_all_main(["--jobs", "0", "--only", "fig1"])
        assert info.value.code == 2

    def test_runner_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            ResilientRunner(retries=-3)


def _run_all_entry(argv):
    from repro.experiments.run_all import main

    return main(argv)


def _experiments_entry(argv):
    from repro.experiments.cli import main

    return main(["experiments", *argv])


class TestSweepEntryPoints:
    """``run_all`` and ``aurora-sim experiments`` share one parser."""

    @pytest.mark.parametrize(
        "entry", [_run_all_entry, _experiments_entry],
        ids=["run_all", "experiments"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["--only", "nosuch"],
            ["--timeout", "-1", "--only", "fig1"],
            ["--timeout", "0", "--only", "fig1"],
        ],
        ids=["unknown-id", "negative-timeout", "zero-timeout"],
    )
    def test_bad_arguments_exit_usage(self, entry, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            entry([*argv, "--out", str(tmp_path)])
        assert info.value.code == 2  # argparse usage error, not a traceback
        assert argv[0] in capsys.readouterr().err

    def test_fig1_reports_byte_identical(self, tmp_path, capsys):
        for name, entry in (
            ("run_all", _run_all_entry), ("experiments", _experiments_entry)
        ):
            out = tmp_path / name
            assert entry(
                ["--factor", "0.05", "--only", "fig1", "--no-resume",
                 "--out", str(out)]
            ) == 0
        capsys.readouterr()
        assert (tmp_path / "run_all" / "fig1.txt").read_bytes() == (
            tmp_path / "experiments" / "fig1.txt"
        ).read_bytes()
