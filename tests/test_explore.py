"""Guided design-space exploration: pareto, spaces, model, search, CLI.

The load-bearing test is the acceptance criterion from the paper study:
at the standard test factor the guided explorer must recover the
exhaustive Figure 8 Pareto frontier *exactly* while simulating at most
half of the 58-config grid, with the analytic model inside its error
budget over the full grid.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import BASELINE
from repro.core.kernel import reuse_snapshot, simulate_many
from repro.core.processor import simulate_trace
from repro.core.stats import StallKind
from repro.experiments import cli
from repro.experiments.common import scaled_trace
from repro.explore import (
    CPIEstimator,
    ExploreError,
    ModelError,
    dominates,
    explore,
    frontier_indices,
    get_space,
    rank_correlation,
    space_names,
)
from repro.explore import model as model_module
from repro.explore.model import ModelReport
from repro.explore.space import SpaceError, fig8_space
from repro.func.prepared import prepare_trace
from repro.telemetry import MetricsRegistry, tracing

FACTOR = 0.05
WORKLOAD = "espresso"


# ------------------------------------------------------------------ pareto


class TestPareto:
    def test_strict_dominance(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))  # trade-off
        assert not dominates((2.0, 2.0), (1.0, 1.0))

    def test_equal_points_do_not_dominate_each_other(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_frontier_keeps_ties(self):
        points = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (2.0, 3.0)]
        chosen = frontier_indices(points)
        assert set(chosen) == {0, 1, 2}

    def test_frontier_of_chain(self):
        points = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (3.0, 2.0)]
        assert set(frontier_indices(points)) == {0, 1, 2}

    def test_empty(self):
        assert frontier_indices([]) == []


# ------------------------------------------------------------------ spaces


class TestSpace:
    def test_fig8_is_the_58_config_grid(self):
        candidates = get_space("fig8")
        assert len(candidates) == 58
        labels = [c.label for c in candidates]
        assert len(set(labels)) == 58

    def test_markers_ride_only_on_l17_points(self):
        for candidate in fig8_space():
            if candidate.label.endswith("@L21"):
                assert candidate.marker == ""
                assert candidate.config.mem_latency == 21

    def test_l17_only_space(self):
        assert len(get_space("fig8-L17")) == 29

    def test_unknown_space(self):
        with pytest.raises(SpaceError, match="unknown space"):
            get_space("fig99")

    def test_space_names(self):
        assert "fig8" in space_names()


# ------------------------------------------------------------- rank corr


class TestRankCorrelation:
    def test_perfect_order(self):
        assert rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert rank_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_get_average_ranks(self):
        assert rank_correlation([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_correlation([1.0], [1.0, 2.0])

    def test_report_from_no_pairs(self):
        report = ModelReport.from_pairs([])
        assert report.count == 0
        assert "model error" in report.render()


# ----------------------------------------------------------------- model


@pytest.fixture(scope="module")
def trace():
    return scaled_trace(WORKLOAD, FACTOR)


@pytest.fixture(scope="module")
def estimator(trace):
    return CPIEstimator.calibrate(trace)


class TestEstimator:
    def test_twelve_calibration_runs(self, estimator):
        assert estimator.calibration_count == 12

    def test_reproduces_its_anchors(self, estimator):
        for config, stats in estimator.calibration_stats.items():
            if config.issue_width != 2 or config.mem_latency != 17:
                continue  # transferred points are tested via validate()
            assert estimator.predict(config) == pytest.approx(
                stats.cpi, rel=0.02
            )

    def test_validates_own_calibration_set(self, estimator):
        report = estimator.validate(
            list(estimator.calibration_stats.items())
        )
        assert report.count == 12
        assert report.mean_rel_error < 0.05

    def test_unknown_family_raises(self, estimator):
        alien = BASELINE.dual_issue().with_latency(17).with_(
            icache_bytes=8192
        )
        with pytest.raises(ModelError, match="no family anchor"):
            estimator.predict(alien)


# ---------------------------------------------------------------- search


@pytest.fixture(scope="module")
def space():
    return get_space("fig8")


@pytest.fixture(scope="module")
def metrics():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def result(space, trace, metrics):
    return explore(
        space,
        trace,
        workload=WORKLOAD,
        factor=FACTOR,
        metrics=metrics,
    )


@pytest.fixture(scope="module")
def exhaustive_frontier(space, trace):
    stats = [r.stats for r in simulate_many(trace, [c.config for c in space])]
    from repro.cost.rbe import total_cost

    live = [
        (c, s) for c, s in zip(space, stats) if s.instructions
    ]
    chosen = frontier_indices(
        [(total_cost(c.config), s.cpi) for c, s in live]
    )
    return sorted(live[i][0].label for i in chosen), stats


class TestAnchorsFeedTheStore:
    def test_anchor_is_answered_from_the_store(self, trace):
        fresh = prepare_trace(trace.array)  # an empty reuse store
        estimator = CPIEstimator.calibrate(fresh)
        anchor = BASELINE.dual_issue().with_latency(17)
        reused = reuse_snapshot()
        answered = simulate_many(fresh, [anchor])[0]
        assert reuse_snapshot() == reused + 1
        assert answered.stats == estimator.calibration_stats[anchor]

    def test_calibration_is_one_batch_without_telemetry(self, trace):
        fresh = prepare_trace(trace.array)  # an empty reuse store
        tracer = tracing.SpanTracer()
        with tracing.use_tracer(tracer):
            estimator = CPIEstimator.calibrate(fresh)
        records = tracer.finished_records()
        batches = [r for r in records if r["name"] == "simulate_batch"]
        assert [r["args"]["configs"] for r in batches] == [12]
        assert not [r for r in records if r["name"] == "simulate"]
        assert estimator.calibration_count == 12
        for anchor in estimator.anchors.values():
            stats = simulate_trace(trace, anchor.config).stats
            per_kind = {
                kind: stats.stall_cycles[kind] / stats.instructions
                for kind in StallKind
            }
            base = max(stats.cpi - sum(per_kind.values()), 0.0)
            assert anchor.decomp == {model_module.BASE: base, **per_kind}
            assert anchor.pair_rate == (
                stats.dual_issued_pairs / stats.instructions
            )
            assert anchor.prefetch_coverage == (
                (stats.iprefetch_hits + stats.dprefetch_hits)
                / stats.instructions
            )


class TestExplore:
    def test_simulates_at_most_half_the_grid(self, result):
        assert result.configs_considered == 58
        assert result.simulated_fraction <= 0.5
        assert not result.budget_exhausted

    def test_recovers_the_exhaustive_frontier_exactly(
        self, result, exhaustive_frontier
    ):
        labels, _stats = exhaustive_frontier
        assert sorted(result.frontier_labels()) == labels

    def test_grid_model_error_within_budget(
        self, result, exhaustive_frontier, space, estimator
    ):
        _labels, stats = exhaustive_frontier
        report = estimator.validate(
            [(c.config, s) for c, s in zip(space, stats)]
        )
        assert report.count == 58
        assert report.mean_rel_error <= 0.15
        assert report.rank_corr > 0.9

    def test_every_frontier_claim_is_simulated(self, result):
        assert result.frontier()
        for point in result.frontier():
            assert point.simulated_cpi is not None

    def test_render_tags_the_frontier(self, result):
        text = result.render()
        assert "frontier" in text
        assert "simulated" in text
        assert "*" in text

    def test_to_dict_round_trips_as_json(self, result):
        document = json.loads(json.dumps(result.to_dict()))
        assert document["configs_considered"] == 58
        assert document["frontier"] == result.frontier_labels()

    def test_metrics_published(self, result, metrics):
        snapshot = metrics.as_dict()
        assert snapshot["counters"]["explore.configs_considered"] == 58
        assert (
            snapshot["counters"]["explore.configs_simulated"]
            == result.configs_simulated
        )
        assert snapshot["gauges"]["explore.simulated_fraction"] <= 0.5

    def test_empty_space_refused(self, trace):
        with pytest.raises(ExploreError, match="empty"):
            explore([], trace)

    def test_bad_budget_refused(self, space, trace):
        with pytest.raises(ExploreError, match="budget"):
            explore(space, trace, budget=0.0)

    def test_budget_below_calibration_refused(self, space, trace):
        with pytest.raises(ExploreError, match="calibration alone"):
            explore(space, trace, budget=0.1)


# ------------------------------------------------------------------- CLI


class TestExploreCli:
    def test_full_run(self, tmp_path, capsys):
        out = tmp_path / "explore.json"
        metrics_out = tmp_path / "metrics.json"
        assert cli.main([
            "explore", WORKLOAD, "--factor", str(FACTOR),
            "--out", str(out), "--metrics-out", str(metrics_out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "Guided exploration" in stdout

        document = json.loads(out.read_text())
        assert document["simulated_fraction"] <= 0.5
        assert document["frontier"]

        snapshot = json.loads(metrics_out.read_text())
        assert snapshot["counters"]["explore.configs_considered"] == 58

    def test_unknown_space_exits_2(self, capsys):
        assert cli.main(["explore", WORKLOAD, "--space", "fig99"]) == 2
        assert "unknown space" in capsys.readouterr().err
