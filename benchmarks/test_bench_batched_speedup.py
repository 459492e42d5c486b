"""Batched vs scalar kernel: wall time over a Figure 8-sized sweep.

The batched kernel exists to make multi-configuration sweeps cheaper:
one trace walk advances every machine instead of one walk per machine.
This bench times the same workload over the full Figure 8 design
catalogue (plus a +4-cycle-latency variant of every point, 58 configs
in all) through both kernels, asserts the per-config stats are
identical (the oracle contract), gates a >=2x sim-cycles/s win for the
batched kernel, and records both series — tagged with their kernel —
through the perf-history machinery.
"""

from __future__ import annotations

import time

from repro.core.kernel import simulate_many
from repro.experiments.fig8_design_space import _design_points
from repro.telemetry.baseline import BaselineError, PerfHistory, git_sha

#: One integer workload is enough: the sweep shape (many configs, one
#: trace) is what config batching optimises.
WORKLOAD = "espresso"
#: The acceptance gate runs at the CI smoke factor, not the bench-wide
#: FACTOR: the gate is about per-record overhead, not trace length.
GATE_FACTOR = 0.05
#: Minimum batched-over-scalar throughput ratio.
GATE_SPEEDUP = 2.0


def _grid():
    """The Figure 8 catalogue plus a slower-memory variant of each point."""
    catalogue = [config for _, config, _ in _design_points()]
    return catalogue + [
        config.with_latency(config.mem_latency + 4) for config in catalogue
    ]


def _record(factor: float, wall: float, stats, kernel: str) -> dict:
    cycles = sum(s.cycles for s in stats)
    instructions = sum(s.instructions for s in stats)
    return {
        "git_sha": git_sha(),
        "recorded_at": time.time(),
        "workload": WORKLOAD,
        "factor": factor,
        "config": "fig8-grid/58-configs",
        "instructions": instructions,
        "sim_cycles": cycles,
        "wall_seconds": wall,
        "cycles_per_second": cycles / wall if wall > 0 else 0.0,
        "instructions_per_second": instructions / wall if wall > 0 else 0.0,
        "cache_hits": 0,
        "cache_misses": 0,
        "kernel": kernel,
    }


def test_batched_kernel_speedup(benchmark, tmp_path):
    from repro.experiments.common import scaled_trace

    trace = scaled_trace(WORKLOAD, GATE_FACTOR)
    configs = _grid()
    assert len(configs) >= 8  # the gate is meaningless on tiny batches

    started = time.perf_counter()
    scalar = simulate_many(trace, configs, kernel="scalar")
    scalar_wall = time.perf_counter() - started

    batched_wall, batched = benchmark.pedantic(
        lambda: _timed_batch(trace, configs), rounds=1, iterations=1
    )

    # The oracle contract over the whole grid.
    assert [r.stats for r in batched] == [r.stats for r in scalar]

    scalar_stats = [r.stats for r in scalar]
    batched_stats = [r.stats for r in batched]
    scalar_record = _record(GATE_FACTOR, scalar_wall, scalar_stats, "scalar")
    batched_record = _record(
        GATE_FACTOR, batched_wall, batched_stats, "batched"
    )

    # Both series land in a history file, tagged by kernel, with the
    # same schema/validation as `aurora-sim perf`; the two kernels are
    # distinct series, so a cross-kernel regression check must refuse.
    history = PerfHistory(tmp_path / "BENCH_history.json")
    history.append(scalar_record)
    history.append(batched_record)
    assert len(history.records()) == 2
    history.seed_baseline(scalar_record)
    try:
        history.compare(batched_record)
    except BaselineError as error:
        assert "kernel" in str(error)
    else:
        raise AssertionError(
            "cross-kernel perf comparison should refuse: different series"
        )

    ratio = (
        batched_record["cycles_per_second"]
        / scalar_record["cycles_per_second"]
    )
    print()
    print(
        f"{WORKLOAD} x {len(configs)} configs: "
        f"scalar {scalar_wall:.2f}s  batched {batched_wall:.2f}s  "
        f"({ratio:.2f}x sim-cycles/s)"
    )
    assert ratio >= GATE_SPEEDUP, (
        f"batched kernel below the {GATE_SPEEDUP:.0f}x gate: "
        f"{ratio:.2f}x over {len(configs)} configs"
    )


def _timed_batch(trace, configs):
    started = time.perf_counter()
    results = simulate_many(trace, configs, kernel="batched")
    return time.perf_counter() - started, results
