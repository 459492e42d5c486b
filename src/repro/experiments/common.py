"""Shared infrastructure for the experiment drivers.

Each paper table/figure has a driver module exposing ``run(...)`` that
returns a result object with structured data plus ``render()`` for the
paper-style text output.  This module holds what they share: scaled trace
access, suite sweeps, and plain-text table/figure rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MachineConfig
from repro.core.kernel import simulate_many
from repro.core.stats import SimStats
from repro.func.prepared import PreparedTrace
from repro.robustness.validation import validate_factor
from repro.workloads.registry import FP_SUITE, INTEGER_SUITE, get_spec, get_trace

#: Minimum sensible scale per workload when shrinking via ``factor``.
_MIN_SCALES = {
    "espresso": 12,
    "li": 120,
    "eqntott": 48,
    "compress": 1100,
    "sc": 8,
    "gcc": 200,
    "alvinn": 32,
    "doduc": 400,
    "ear": 24,
    "hydro2d": 10,
    "mdljdp2": 10,
    "nasa7": 6,
    "ora": 64,
    "spice2g6": 32,
    "su2cor": 48,
}


def scaled_trace(name: str, factor: float = 1.0) -> PreparedTrace:
    """Trace for ``name`` at ``factor`` x its default scale.

    ``factor < 1`` shrinks runs for quick benchmarking; workload-specific
    minimums and parity constraints (nasa7's even dimension) are honoured.
    Non-positive or non-finite factors are rejected up front (they would
    otherwise produce nonsense scales deep inside the trace generator).
    """
    factor = validate_factor(factor)
    if factor == 1.0:
        return get_trace(name)
    spec = get_spec(name)
    scale = max(_MIN_SCALES.get(name, 8), int(spec.default_scale * factor))
    if name in ("nasa7", "ora") and scale % 2:
        scale += 1  # these kernels process two elements per iteration
    return get_trace(name, scale)


def suite_names(suite: str) -> tuple[str, ...]:
    """Workload names for a suite id ("int" or "fp")."""
    if suite == "int":
        return INTEGER_SUITE
    if suite == "fp":
        return FP_SUITE
    raise ValueError(f"unknown suite {suite!r}; expected 'int' or 'fp'")


def sweep_suite_stats(
    configs: list[MachineConfig],
    suite: str = "int",
    factor: float = 1.0,
) -> list[dict[str, SimStats]]:
    """Run every workload in a suite on every config.

    The workhorse of the multi-config figure drivers: each workload's
    trace goes through :func:`repro.core.kernel.simulate_many` once (so
    it is validated once and each distinct config simulated once), and
    the result is a per-config list of ``{workload: SimStats}``
    mappings, index-aligned with ``configs``.
    """
    names = suite_names(suite)
    results: list[dict[str, SimStats]] = [{} for _ in configs]
    for name in names:
        trace = scaled_trace(name, factor)
        for stats_map, result in zip(
            results, simulate_many(trace, configs)
        ):
            stats_map[name] = result.stats
    return results


def suite_stats(
    config: MachineConfig,
    suite: str = "int",
    factor: float = 1.0,
) -> dict[str, SimStats]:
    """Run every workload in a suite on ``config``; returns per-name stats."""
    return sweep_suite_stats([config], suite=suite, factor=factor)[0]


@dataclass
class CpiSummary:
    """Min / average / max CPI over a benchmark suite on one config —
    the capped-bar presentation of Figures 4, 5 and 7."""

    label: str
    cost: float
    cpi_min: float
    cpi_avg: float
    cpi_max: float
    per_benchmark: dict[str, float] = field(default_factory=dict)
    #: Benchmarks whose run retired zero instructions (empty trace).
    #: Their CPI is undefined (NaN at the result layer), so they are
    #: skipped — not folded into min/avg/max — and counted here.
    empty_runs: int = 0

    @classmethod
    def from_stats(
        cls, label: str, cost: float, stats: dict[str, SimStats]
    ) -> "CpiSummary":
        if not stats:
            raise ValueError(
                f"CpiSummary {label!r}: empty suite stats — no benchmarks "
                "were simulated for this configuration"
            )
        cpis = {
            name: s.cpi for name, s in stats.items() if s.instructions
        }
        empty_runs = len(stats) - len(cpis)
        if not cpis:
            raise ValueError(
                f"CpiSummary {label!r}: all {empty_runs} runs retired zero "
                "instructions (empty_runs counter); no CPI is defined"
            )
        values = list(cpis.values())
        return cls(
            label=label,
            cost=cost,
            cpi_min=min(values),
            cpi_avg=sum(values) / len(values),
            cpi_max=max(values),
            per_benchmark=cpis,
            empty_runs=empty_runs,
        )


def suite_average_cpi(stats: dict[str, SimStats]) -> float:
    """Average CPI over a suite, skipping zero-instruction (empty) runs.

    An empty run has no defined CPI (NaN at the result layer); folding it
    into a mean poisons the aggregate, so such runs are excluded.  Raises
    when every run is empty — there is no average to report.
    """
    values = [s.cpi for s in stats.values() if s.instructions]
    if not values:
        raise ValueError(
            f"all {len(stats)} suite runs retired zero instructions; "
            "no average CPI is defined"
        )
    return sum(values) / len(values)


def format_table(
    headers: list[str],
    rows: list[list[str]],
    title: str | None = None,
) -> str:
    """Render a plain-text table with aligned columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_capped_bars(
    summaries: list[CpiSummary],
    title: str,
    x_label: str = "cost (RBE)",
) -> str:
    """Text rendition of the paper's cost-vs-CPI capped-bar plots.

    One line per configuration: cost, then min - avg - max CPI.
    """
    rows = [
        [
            s.label,
            f"{s.cost:,.0f}",
            f"{s.cpi_min:.3f}",
            f"{s.cpi_avg:.3f}",
            f"{s.cpi_max:.3f}",
        ]
        for s in summaries
    ]
    return format_table(
        ["configuration", x_label, "CPI min", "CPI avg", "CPI max"],
        rows,
        title=title,
    )


def percent(value: float) -> str:
    return f"{100 * value:.2f}"
