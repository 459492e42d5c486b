"""Guided exploration vs exhaustive sweep over the Figure 8 grid.

The explorer exists to spend simulations only where the Pareto frontier
might be: calibrate the analytic CPI model from a dozen anchor runs,
then simulate just the predicted-frontier band.  This bench runs both
the exhaustive 58-config sweep and the guided exploration at the CI
smoke factor, gates the acceptance criteria (exact frontier recovery,
at most half the grid simulated, model error within budget), and
records the guided run as a ``mode="explore"`` perf-history series.
"""

from __future__ import annotations

import time

from repro.core.kernel import simulate_many
from repro.cost.rbe import total_cost
from repro.explore import explore, frontier_indices, get_space
from repro.telemetry.baseline import BaselineError, PerfHistory, git_sha

WORKLOAD = "espresso"
#: The acceptance gates run at the CI smoke factor: frontier recovery
#: and simulated fraction are properties of the search, not trace length.
GATE_FACTOR = 0.05
#: At most this fraction of the grid may be simulated (calibration
#: included) — the point of the pre-filter.
GATE_FRACTION = 0.5
#: Mean relative CPI error budget for the model over the full grid.
GATE_MEAN_REL_ERROR = 0.15


def _record(result, wall: float) -> dict:
    return {
        "git_sha": git_sha(),
        "recorded_at": time.time(),
        "workload": WORKLOAD,
        "factor": GATE_FACTOR,
        "config": "space:fig8",
        "instructions": result.sim_instructions,
        "sim_cycles": result.sim_cycles,
        "wall_seconds": wall,
        "cycles_per_second": (
            result.sim_cycles / wall if wall > 0 else 0.0
        ),
        "instructions_per_second": (
            result.sim_instructions / wall if wall > 0 else 0.0
        ),
        "cache_hits": 0,
        "cache_misses": 0,
        "kernel": result.kernel,
        "mode": "explore",
        "configs_considered": result.configs_considered,
        "configs_simulated": result.configs_simulated,
        "model_mean_rel_error": result.model.mean_rel_error,
    }


def test_guided_exploration_recovers_frontier(benchmark, tmp_path):
    from repro.experiments.common import scaled_trace
    from repro.explore.model import CPIEstimator

    trace = scaled_trace(WORKLOAD, GATE_FACTOR)
    candidates = get_space("fig8")
    assert len(candidates) == 58

    exhaustive = simulate_many(trace, [c.config for c in candidates])
    stats = [r.stats for r in exhaustive]
    live = [(c, s) for c, s in zip(candidates, stats) if s.instructions]
    chosen = frontier_indices(
        [(total_cost(c.config), s.cpi) for c, s in live]
    )
    true_frontier = sorted(live[i][0].label for i in chosen)

    wall, result = benchmark.pedantic(
        lambda: _timed_explore(candidates, trace), rounds=1, iterations=1
    )

    # Acceptance gates: exact recovery, at most half the grid, model
    # within its error budget over the *entire* grid.
    assert sorted(result.frontier_labels()) == true_frontier
    assert result.simulated_fraction <= GATE_FRACTION, (
        f"explorer simulated {result.configs_simulated} of "
        f"{result.configs_considered} configs"
    )
    assert not result.budget_exhausted
    grid_model = CPIEstimator.calibrate(trace).validate(
        [(c.config, s) for c, s in zip(candidates, stats)]
    )
    assert grid_model.mean_rel_error <= GATE_MEAN_REL_ERROR

    # The guided run is a mode="explore" perf series: it appends and
    # seeds like any other record, and a cross-mode check must refuse.
    record = _record(result, wall)
    history = PerfHistory(tmp_path / "BENCH_history.json")
    history.append(record)
    history.seed_baseline(record)
    check = history.compare(record)
    assert not check.regressed

    simulate_record = dict(record, mode="simulate", config="fig8-grid")
    try:
        history.compare(simulate_record)
    except BaselineError as error:
        assert "mode" in str(error)
    else:
        raise AssertionError(
            "cross-mode perf comparison should refuse: different series"
        )

    print()
    print(
        f"{WORKLOAD} x {result.configs_considered} configs: "
        f"simulated {result.configs_simulated} "
        f"({result.simulated_fraction * 100:.0f}%) in {wall:.2f}s; "
        f"grid model mean error {grid_model.mean_rel_error * 100:.1f}%"
    )


def _timed_explore(candidates, trace):
    started = time.perf_counter()
    result = explore(
        candidates, trace, workload=WORKLOAD, factor=GATE_FACTOR
    )
    return time.perf_counter() - started, result
