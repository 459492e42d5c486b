"""Tests for :func:`~repro.core.kernel.simulate_many`, the grouped entry
point every sweep calls.

``TestOracle`` holds it to one fresh
:meth:`AuroraProcessor.run <repro.core.processor.AuroraProcessor.run>`
per config: both benchmark suites (one small trace each) across the
three paper models at widths 1, 3 and a full mixed grid.  ``TestReuse``
covers its per-trace result store: each (trace, config) is simulated
once.  ``TestCertifiedReuse`` covers the capacity certificate: a larger
MSHR file or FPU queue is answered by a run that never filled the
smaller one.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest

import repro.core.kernel as kernel_module
from repro.core.kernel import batch_snapshot, reuse_snapshot, simulate_many
from repro.core.processor import AuroraProcessor, simulate_trace
from repro.core.stats import StallKind
from repro.func.prepared import prepare_trace
from repro.isa.instructions import Kind
from repro.robustness.guards import RobustnessPolicy, SimulationError
from repro.telemetry import tracing
from repro.telemetry.events import EventBus, RingBufferSink


def _full_grid(models):
    """The three models plus variants that stress divergent structures.

    The first three entries are exactly ``models`` so width-3 oracle
    comparisons can reuse the grid's reference runs.
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


def _fresh_runs(trace, configs):
    """The oracle: one new processor per config, no result store."""
    return [AuroraProcessor(config).run(trace) for config in configs]


class TestOracle:
    """simulate_many's stats must equal a fresh run's, config for config."""

    def test_width_one(self, suite_trace, models):
        for config in _full_grid(models):
            expected = _fresh_runs(suite_trace, [config])[0]
            got = simulate_many(suite_trace, [config])[0]
            assert got.stats == expected.stats, config.label
            assert got.config is config

    def test_width_three(self, suite_trace, models):
        oracle = _fresh_runs(suite_trace, models)
        grouped = simulate_many(suite_trace, list(models))
        assert [r.stats for r in grouped] == [r.stats for r in oracle]

    def test_full_grid(self, suite_trace, models):
        grid = _full_grid(models)
        oracle = _fresh_runs(suite_trace, grid)
        grouped = simulate_many(suite_trace, grid)
        assert [r.stats for r in grouped] == [r.stats for r in oracle]
        # Results stay index-aligned with the configs passed in.
        for config, result in zip(grid, grouped):
            assert result.config is config

    def test_plain_record_lists(self, counting_trace, models):
        # simulate_many also accepts the tuple representation.
        oracle = _fresh_runs(counting_trace, models)
        grouped = simulate_many(counting_trace, list(models))
        assert [r.stats for r in grouped] == [r.stats for r in oracle]

    def test_empty_trace(self, models):
        for result in simulate_many([], list(models)):
            assert result.stats.instructions == 0
            assert math.isnan(result.cpi)

    def test_empty_config_list(self, counting_trace):
        assert simulate_many(counting_trace, []) == []


class TestAccounting:
    def test_scalar_kernel_does_not_count(self, counting_trace, models):
        # batch_snapshot() survives only as a stub the benchmark harness
        # reads to label the kernel; simulating never moves it.
        before = batch_snapshot()
        simulate_many(prepare_trace(counting_trace), list(models))
        assert batch_snapshot() == before == (0, 0)

    def test_simulate_batch_span(self, counting_trace, models):
        trace = prepare_trace(counting_trace)
        simulate_many(trace, [models[0]])
        tracer = tracing.SpanTracer()
        with tracing.use_tracer(tracer):
            simulate_many(trace, list(models))
        spans = [
            record
            for record in tracer.finished_records()
            if record["name"] == "simulate_batch"
        ]
        assert len(spans) == 1
        assert spans[0]["args"] == {
            "records": len(counting_trace),
            "configs": 2,
            "reused": 1,
        }


class TestReuse:
    """simulate_many times each (trace, config) once per trace."""

    def test_repeat_reuses_while_kernel_object_resimulates(
        self, counting_trace, models
    ):
        trace = prepare_trace(counting_trace)
        first = simulate_many(trace, list(models))
        stored = dict(trace.sim_results)
        reused = reuse_snapshot()
        again = simulate_many(trace, list(models))
        assert reuse_snapshot() - reused == len(models)
        assert [r.stats for r in again] == [r.stats for r in first]
        assert trace.sim_results == stored
        # The processor keeps no store: a direct run simulates again,
        # and agrees with what was stored.
        direct = _fresh_runs(trace, models)
        assert [r.stats for r in direct] == [r.stats for r in first]

    def test_duplicates_in_one_call_simulate_once(self, counting_trace, models):
        trace = prepare_trace(counting_trace)
        small, baseline, _ = models
        twin = baseline.with_()  # equal to baseline, another object
        reused = reuse_snapshot()
        tracer = tracing.SpanTracer()
        with tracing.use_tracer(tracer):
            results = simulate_many(trace, [small, baseline, twin, small])
        (span,) = [
            record
            for record in tracer.finished_records()
            if record["name"] == "simulate_batch"
        ]
        assert span["args"]["configs"] == 2
        assert reuse_snapshot() - reused == 2
        assert len(trace.sim_results) == 2
        assert [r.config for r in results] == [small, baseline, twin, small]
        assert results[2].config is twin
        assert results[1].stats == results[2].stats
        assert results[0].stats == results[3].stats

    def test_telemetry_bypasses_reuse(self, counting_trace, models):
        # Telemetry runs go through simulate_trace, which never answers
        # from the store: a stored config still emits its events.
        trace = prepare_trace(counting_trace)
        baseline = models[1]
        simulate_many(trace, [baseline])
        for _ in range(2):
            sink = RingBufferSink()
            result = simulate_trace(trace, baseline, telemetry=EventBus(sink))
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
        with pytest.raises(SimulationError):
            simulate_many(trace, list(models), policy=wedged)
        assert trace.sim_results == {}

    def test_key_separates_policies(self, counting_trace, models):
        trace = prepare_trace(counting_trace)
        baseline = models[1]
        loose = RobustnessPolicy(check_period=64)
        default = simulate_many(trace, [baseline])[0]
        reused = reuse_snapshot()
        other = simulate_many(trace, [baseline], policy=loose)
        assert reuse_snapshot() == reused
        assert default.stats == other[0].stats
        assert list(trace.sim_results) == [(baseline, None), (baseline, loose)]

    def test_unobserved_fpu_fields_share_one_simulation(self):
        from repro.core.config import BASELINE
        from repro.experiments.common import scaled_trace

        trace = prepare_trace(scaled_trace("nasa7", 0.05).array)
        assert trace.kind_counts()[int(Kind.FP_DIV)] == 0
        slow, fast = (
            BASELINE.with_(fpu=BASELINE.fpu.with_(div_latency=latency))
            for latency in (10, 30)
        )
        direct = _fresh_runs(trace, [slow, fast])
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
        assert [r.stats for r in _fresh_runs(trace, [slow, fast])] == [
            first.stats,
            second.stats,
        ]

    def test_cap_evicts_oldest_and_stays_correct(
        self, counting_trace, models, monkeypatch
    ):
        monkeypatch.setattr(kernel_module, "RESULT_CAP", 4)
        trace = prepare_trace(counting_trace)
        grid = [models[1].with_(mem_latency=17 + k) for k in range(6)]
        got = [simulate_many(trace, [config])[0] for config in grid]
        assert [key[0] for key in trace.sim_results] == grid[2:]
        oracle = _fresh_runs(trace, grid)
        assert [r.stats for r in got] == [r.stats for r in oracle]
        # An evicted config is simulated again, correctly, and stored.
        assert simulate_many(trace, grid[:1])[0].stats == oracle[0].stats
        assert [key[0] for key in trace.sim_results] == grid[3:] + grid[:1]

    def test_threads_sharing_a_trace_stay_consistent(
        self, counting_trace, models, monkeypatch
    ):
        # More threads than cores, a tiny cap and a short switch interval
        # keep lookups, stores and evictions racing on one trace's store.
        monkeypatch.setattr(kernel_module, "RESULT_CAP", 2)
        trace = prepare_trace(counting_trace)
        grid = [models[1].with_(mem_latency=17 + k) for k in range(4)]
        oracle = [r.stats for r in _fresh_runs(trace, grid)]
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


def _paper_capacity_sweeps():
    """Figure 7's MSHR configs on compress (one call per model, as the
    figure makes them) and Figure 9's three capacity sweeps on doduc."""
    from repro.core.config import BASELINE, TABLE1_MODELS
    from repro.experiments import fig7_mshr, fig9_fpu

    calls = []
    for model in TABLE1_MODELS:
        standard = model.with_(issue_width=2, mem_latency=17)
        varied = fig7_mshr.VARIATIONS[model.name]
        counts = (standard.mshr_entries, varied, 1, 2, 4, 8)
        calls.append(
            ("compress", [standard.with_(mshr_entries=n) for n in counts])
        )
    for sweep in ("a_instruction_queue", "b_load_queue", "c_reorder_buffer"):
        field, values, policy = fig9_fpu.SWEEPS[sweep]
        calls.append((
            "doduc",
            [
                BASELINE.with_(fpu=BASELINE.fpu.with_(
                    **{field: value, "issue_policy": policy}
                ))
                for value in values
            ],
        ))
    return calls


class TestCertifiedReuse:
    """Configs that differ only in capacities a stored run never filled
    are answered by that run."""

    def test_paper_sweeps_match_fresh_runs_with_fewer_simulations(self):
        from repro.experiments.common import scaled_trace

        traces = {
            name: prepare_trace(scaled_trace(name, 0.05).array)
            for name in ("compress", "doduc")
        }
        tracer = tracing.SpanTracer()
        requested = 0
        for name, configs in _paper_capacity_sweeps():
            trace = traces[name]
            with tracing.use_tracer(tracer):
                results = simulate_many(trace, configs)
            assert [r.stats for r in results] == [
                r.stats for r in _fresh_runs(trace, configs)
            ]
            requested += len(set(configs))
        simulated = sum(
            record["args"]["configs"]
            for record in tracer.finished_records()
            if record["name"] == "simulate_batch"
        )
        assert simulated < requested

    def test_store_answers_a_larger_unfilled_capacity(self, models):
        from repro.experiments.common import scaled_trace

        trace = prepare_trace(scaled_trace("compress", 0.05).array)
        four = models[1].with_(mshr_entries=4)
        first = simulate_many(trace, [four])[0]
        assert "mshr_entries" in first.unfilled
        larger = four.with_(mshr_entries=8)
        reused = reuse_snapshot()
        answered = simulate_many(trace, [larger])[0]
        assert reuse_snapshot() == reused + 1
        assert answered.config is larger
        assert answered.stats == _fresh_runs(trace, [larger])[0].stats
        assert answered.unfilled == first.unfilled
        assert list(trace.sim_results) == [(four, None)]
        # A smaller size, or another family, is never answered.
        for config in (
            four.with_(mshr_entries=3),
            larger.with_(mem_latency=35),
        ):
            simulate_many(trace, [config])
            assert reuse_snapshot() == reused + 1
