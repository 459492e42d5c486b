"""Kernel boundary tests: the scalar oracle, the batched kernel, selection.

The contract under test is the one the module docstring of
:mod:`repro.core.kernel` states: every kernel yields byte-identical
per-config :class:`~repro.core.stats.SimStats`, with the scalar kernel
as the oracle.  The oracle suite runs both benchmark suites (one small
trace each) across the three paper models at batch widths 1, 3 and a
full mixed grid, through the kernel objects themselves.  ``TestReuse``
covers :func:`~repro.core.kernel.simulate_many`'s per-trace result
store: each (trace, config) is simulated once.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest

import repro.core.kernel as kernel_module
from repro.core.kernel import (
    ENV_KERNEL,
    KERNEL_NAMES,
    BatchedKernel,
    KernelError,
    ScalarKernel,
    batch_snapshot,
    get_kernel,
    kernel_mode,
    reuse_snapshot,
    simulate_many,
)
from repro.core.stats import StallKind
from repro.func.prepared import prepare_trace
from repro.isa.instructions import Kind
from repro.robustness.guards import RobustnessPolicy, SimulationError
from repro.telemetry import tracing
from repro.telemetry.events import EventBus, RingBufferSink


def _full_grid(models):
    """The three models plus variants that stress divergent structures.

    The first three entries are exactly ``models`` so width-3 oracle
    comparisons can reuse the grid's scalar reference.
    """
    small, baseline, large = models
    return [
        small,
        baseline,
        large,
        baseline.with_(issue_width=1),
        baseline.with_(mem_latency=35),
        baseline.with_(mshr_entries=1),
        baseline.with_(rob_entries=8),
        large.without_prefetch(),
    ]


@pytest.fixture(
    scope="module", params=["espresso_trace_small", "fp_trace_small"]
)
def suite_trace(request):
    """One small trace per benchmark suite (int: espresso, fp: hydro2d)."""
    return request.getfixturevalue(request.param)


def _kernel_run(name, trace, configs):
    """Simulate through the kernel object itself: the module-level
    simulate_many would answer repeats from results stored on the
    session-scoped traces, so the batched side would not be tested."""
    return get_kernel(name).simulate_many(trace, list(configs))


class TestOracle:
    """Batched stats must equal the scalar kernel's, config for config."""

    def test_width_one(self, suite_trace, models):
        for config in _full_grid(models):
            expected = _kernel_run("scalar", suite_trace, [config])[0]
            got = _kernel_run("batched", suite_trace, [config])[0]
            assert got.stats == expected.stats, config.label
            assert got.config is config

    def test_width_three(self, suite_trace, models):
        oracle = _kernel_run("scalar", suite_trace, models)
        batch = _kernel_run("batched", suite_trace, models)
        assert [r.stats for r in batch] == [r.stats for r in oracle]

    def test_full_grid(self, suite_trace, models):
        grid = _full_grid(models)
        oracle = _kernel_run("scalar", suite_trace, grid)
        batch = _kernel_run("batched", suite_trace, grid)
        assert [r.stats for r in batch] == [r.stats for r in oracle]
        # Results stay index-aligned with the configs passed in.
        for config, result in zip(grid, batch):
            assert result.config is config

    def test_plain_record_lists(self, counting_trace, models):
        # The batched kernel must also accept the tuple representation.
        oracle = _kernel_run("scalar", counting_trace, models)
        batch = _kernel_run("batched", counting_trace, models)
        assert [r.stats for r in batch] == [r.stats for r in oracle]

    def test_empty_trace(self, models):
        for kernel in KERNEL_NAMES:
            for result in simulate_many([], list(models), kernel=kernel):
                assert result.stats.instructions == 0
                assert math.isnan(result.cpi)

    def test_empty_config_list(self, counting_trace):
        assert simulate_many(counting_trace, [], kernel="batched") == []


class TestTelemetryRefusal:
    def test_active_bus_refused_naming_the_field(self, counting_trace, models):
        class Sink:
            def record(self, event):
                pass

        bus = EventBus(Sink())
        with pytest.raises(KernelError, match="telemetry"):
            BatchedKernel().simulate_many(
                counting_trace, [models[1]], telemetry=bus
            )

    def test_sinkless_bus_is_telemetry_off(self, counting_trace, models):
        # A bus with no sinks is falsy — same normalisation as the
        # scalar loop — so the batched kernel accepts it.
        results = BatchedKernel().simulate_many(
            counting_trace, [models[1]], telemetry=EventBus()
        )
        assert results[0].stats.instructions == len(counting_trace)


class TestSelection:
    def test_default_is_scalar(self):
        assert kernel_mode({}) == KERNEL_NAMES[0] == "scalar"

    def test_env_selects_batched_case_insensitive(self):
        assert kernel_mode({ENV_KERNEL: "BATCHED"}) == "batched"

    def test_bad_env_value_names_the_variable(self):
        with pytest.raises(KernelError, match=ENV_KERNEL):
            kernel_mode({ENV_KERNEL: "vectorised"})

    def test_get_kernel_by_name(self):
        assert isinstance(get_kernel("scalar"), ScalarKernel)
        assert isinstance(get_kernel("batched"), BatchedKernel)

    def test_get_kernel_unknown(self):
        with pytest.raises(KernelError, match="unknown kernel"):
            get_kernel("simd")

    def test_get_kernel_follows_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, "batched")
        assert isinstance(get_kernel(), BatchedKernel)
        monkeypatch.delenv(ENV_KERNEL)
        assert isinstance(get_kernel(), ScalarKernel)

    def test_validate_environment_rejects_bad_kernel(self, monkeypatch):
        from repro.robustness.validation import (
            EnvValidationError,
            validate_environment,
        )

        monkeypatch.setenv(ENV_KERNEL, "vectorised")
        with pytest.raises(EnvValidationError, match=ENV_KERNEL):
            validate_environment()


class TestAccounting:
    def test_batch_snapshot_counts_calls_and_configs(
        self, counting_trace, models
    ):
        calls, configs = batch_snapshot()
        simulate_many(counting_trace, list(models), kernel="batched")
        assert batch_snapshot() == (calls + 1, configs + 3)

    def test_scalar_kernel_does_not_count(self, counting_trace, models):
        before = batch_snapshot()
        simulate_many(counting_trace, list(models), kernel="scalar")
        assert batch_snapshot() == before

    def test_simulate_batch_span(self, counting_trace, models):
        tracer = tracing.SpanTracer()
        with tracing.use_tracer(tracer):
            simulate_many(counting_trace, list(models), kernel="batched")
        spans = [
            record
            for record in tracer.finished_records()
            if record["name"] == "simulate_batch"
        ]
        assert len(spans) == 1
        fields = spans[0]["args"]
        assert fields["records"] == len(counting_trace)
        assert fields["configs"] == 3
        assert fields["kernel"] == "batched"


class TestReuse:
    """simulate_many times each (trace, config) once per trace."""

    def test_repeat_reuses_while_kernel_object_resimulates(
        self, counting_trace, models
    ):
        trace = prepare_trace(counting_trace)
        first = simulate_many(trace, list(models), kernel="batched")
        calls, configs = batch_snapshot()
        reused = reuse_snapshot()
        again = simulate_many(trace, list(models), kernel="batched")
        assert batch_snapshot() == (calls, configs)
        assert reuse_snapshot() - reused == len(models)
        assert [r.stats for r in again] == [r.stats for r in first]
        # The kernel object itself keeps no store: full width again.
        BatchedKernel().simulate_many(trace, list(models))
        assert batch_snapshot() == (calls + 1, configs + len(models))

    def test_duplicates_in_one_call_simulate_once(self, counting_trace, models):
        trace = prepare_trace(counting_trace)
        small, baseline, _ = models
        twin = baseline.with_()  # equal to baseline, another object
        calls, configs = batch_snapshot()
        results = simulate_many(
            trace, [small, baseline, twin, small], kernel="batched"
        )
        assert batch_snapshot() == (calls + 1, configs + 2)
        assert [r.config for r in results] == [small, baseline, twin, small]
        assert results[2].config is twin
        assert results[1].stats == results[2].stats
        assert results[0].stats == results[3].stats

    def test_telemetry_bypasses_reuse(self, counting_trace, models):
        trace = prepare_trace(counting_trace)
        baseline = models[1]
        simulate_many(trace, [baseline], kernel="scalar")
        for _ in range(2):
            sink = RingBufferSink()
            result = simulate_many(
                trace, [baseline], kernel="scalar", telemetry=EventBus(sink)
            )[0]
            assert sink.recorded > 0
            assert result.stats.instructions == len(trace)

    def test_results_are_independent_copies(self, counting_trace, models):
        trace = prepare_trace(counting_trace)
        baseline = models[1]
        first = simulate_many(trace, [baseline, baseline])
        assert first[0].stats is not first[1].stats
        assert first[0].stats.stall_cycles is not first[1].stats.stall_cycles
        expected = first[1].stats.copy()
        first[0].stats.cycles = -1
        first[0].stats.stall_cycles[StallKind.LOAD] = -1
        assert first[1].stats == expected
        assert simulate_many(trace, [baseline])[0].stats == expected

    def test_failed_batch_stores_nothing(self, espresso_trace_small, models):
        trace = prepare_trace(espresso_trace_small.array)
        wedged = RobustnessPolicy(max_stall_cycles=1)
        for kernel in KERNEL_NAMES:
            with pytest.raises(SimulationError):
                simulate_many(
                    trace, list(models), kernel=kernel, policy=wedged
                )
        assert trace.sim_results == {}

    def test_key_separates_kernels_and_policies(self, counting_trace, models):
        trace = prepare_trace(counting_trace)
        baseline = models[1]
        loose = RobustnessPolicy(check_period=64)
        scalar = simulate_many(trace, [baseline], kernel="scalar")[0]
        calls, configs = batch_snapshot()
        batched = simulate_many(trace, [baseline], kernel="batched")[0]
        assert batch_snapshot() == (calls + 1, configs + 1)
        reused = reuse_snapshot()
        other = simulate_many(trace, [baseline], kernel="scalar", policy=loose)
        assert reuse_snapshot() == reused
        assert batched.stats == scalar.stats == other[0].stats
        assert {key[:1] + key[2:] for key in trace.sim_results} == {
            ("scalar", None),
            ("batched", None),
            ("scalar", loose),
        }

    def test_telemetry_run_stores_its_stats(self, counting_trace, models):
        trace = prepare_trace(counting_trace)
        baseline = models[1]
        sink = RingBufferSink()
        observed = simulate_many(
            trace, [baseline], kernel="scalar", telemetry=EventBus(sink)
        )[0]
        assert sink.recorded > 0
        reused = reuse_snapshot()
        again = simulate_many(trace, [baseline], kernel="scalar")[0]
        assert reuse_snapshot() == reused + 1
        assert again.stats == observed.stats
        assert again.stats is not observed.stats

    def test_unobserved_fpu_fields_share_one_simulation(self):
        from repro.core.config import BASELINE
        from repro.experiments.common import scaled_trace

        trace = prepare_trace(scaled_trace("nasa7", 0.05).array)
        assert trace.kind_counts()[int(Kind.FP_DIV)] == 0
        slow, fast = (
            BASELINE.with_(fpu=BASELINE.fpu.with_(div_latency=latency))
            for latency in (10, 30)
        )
        direct = get_kernel().simulate_many(trace, [slow, fast])
        assert direct[0].stats == direct[1].stats
        simulate_many(trace, [slow])
        reused = reuse_snapshot()
        answered = simulate_many(trace, [fast])[0]
        assert reuse_snapshot() == reused + 1
        assert answered.config is fast
        assert answered.stats == direct[1].stats

    def test_observed_fpu_fields_never_share(self):
        from repro.core.config import BASELINE
        from repro.experiments.common import scaled_trace

        trace = prepare_trace(scaled_trace("ora", 0.05).array)
        assert trace.kind_counts()[int(Kind.FP_DIV)] > 0
        slow, fast = (
            BASELINE.with_(fpu=BASELINE.fpu.with_(div_latency=latency))
            for latency in (10, 30)
        )
        first = simulate_many(trace, [slow])[0]
        reused = reuse_snapshot()
        second = simulate_many(trace, [fast])[0]
        assert reuse_snapshot() == reused
        assert second.stats != first.stats
        assert [r.stats for r in get_kernel().simulate_many(
            trace, [slow, fast]
        )] == [first.stats, second.stats]

    def test_cap_evicts_oldest_and_stays_correct(
        self, counting_trace, models, monkeypatch
    ):
        monkeypatch.setattr(kernel_module, "RESULT_CAP", 4)
        trace = prepare_trace(counting_trace)
        grid = [models[1].with_(mem_latency=17 + k) for k in range(6)]
        got = [simulate_many(trace, [config])[0] for config in grid]
        assert [key[1] for key in trace.sim_results] == grid[2:]
        oracle = _kernel_run("scalar", trace, grid)
        assert [r.stats for r in got] == [r.stats for r in oracle]
        # An evicted config is simulated again, correctly, and stored.
        assert simulate_many(trace, grid[:1])[0].stats == oracle[0].stats
        assert [key[1] for key in trace.sim_results] == grid[3:] + grid[:1]

    def test_threads_sharing_a_trace_stay_consistent(
        self, counting_trace, models, monkeypatch
    ):
        # More threads than cores, a tiny cap and a short switch interval
        # keep lookups, stores and evictions racing on one trace's store.
        monkeypatch.setattr(kernel_module, "RESULT_CAP", 2)
        trace = prepare_trace(counting_trace)
        grid = [models[1].with_(mem_latency=17 + k) for k in range(4)]
        oracle = [r.stats for r in _kernel_run("scalar", trace, grid)]
        errors = []

        def worker(offset):
            try:
                for round_ in range(25):
                    pick = [(offset + round_ + k) % len(grid) for k in (0, 1)]
                    got = simulate_many(trace, [grid[k] for k in pick])
                    if [r.stats for r in got] != [oracle[k] for k in pick]:
                        errors.append(f"wrong stats for {pick}")
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(repr(error))

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(trace.sim_results) <= 2
