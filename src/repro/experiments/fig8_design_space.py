"""Figure 8: the full cost/performance design space on espresso.

All simulation points for the 17-cycle latency espresso runs: four
single-issue systems of various sizes (squares) and, for each I-cache
size (1 K / 2 K / 4 K), eight dual-issue systems sweeping the other
memory elements (diamonds / triangles / circles).  The paper labels
five noteworthy points:

* **A** — configurations with a single MSHR: they sit well above
  everything else at the same cost (blocking caches are bad),
* **B** — the large model: a performance plateau where extra cost buys
  little,
* **C**/**D** — a pair differing only in prefetch (D adds it),
* **E** — the recommendation: 4 KB I-cache with baseline-sized other
  elements and 4 MSHRs (nearly large-model performance at much lower
  cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import (
    BASELINE,
    LARGE,
    RECOMMENDED,
    SMALL,
    MachineConfig,
)
from repro.core.kernel import simulate_many
from repro.cost.rbe import total_cost
from repro.experiments.common import format_table, scaled_trace
from repro.explore.pareto import frontier_indices

_MODEL_BY_ICACHE = {1024: SMALL, 2048: BASELINE, 4096: LARGE}


@dataclass
class DesignPoint:
    label: str
    config: MachineConfig
    cost: float
    cpi: float
    marker: str = ""  # A/B/C/D/E annotations
    #: True when the run retired zero instructions: the CPI field is
    #: meaningless (0.0 placeholder) and the point must not compete in
    #: frontier math.
    empty: bool = False


@dataclass
class Fig8Result:
    points: list[DesignPoint] = field(default_factory=list)

    @property
    def empty_runs(self) -> int:
        """Design points whose run retired zero instructions (skipped)."""
        return sum(1 for p in self.points if p.empty)

    def marked(self, marker: str) -> list[DesignPoint]:
        return [p for p in self.points if p.marker == marker]

    def best(self) -> DesignPoint:
        live = [p for p in self.points if not p.empty]
        if not live:
            raise ValueError(
                f"Figure 8: all {self.empty_runs} design points retired "
                "zero instructions (empty_runs counter); no frontier exists"
            )
        return min(live, key=lambda p: p.cpi)

    def frontier(self) -> list[DesignPoint]:
        """The non-dominated cost/CPI set, cheapest first.

        What Figure 8 is actually about: the points where spending more
        RBE buys CPI and spending less costs it.  Empty runs have no
        defined CPI, so they never compete (``best()`` alone understates
        the figure — the paper's story is the whole lower-left edge, not
        one point).
        """
        live = [p for p in self.points if not p.empty]
        chosen = frontier_indices([(p.cost, p.cpi) for p in live])
        return sorted((live[i] for i in chosen), key=lambda p: p.cost)

    def render(self) -> str:
        on_frontier = {id(p) for p in self.frontier()}
        rows = [
            [
                p.label,
                f"{p.cost:,.0f}",
                "(empty)" if p.empty else f"{p.cpi:.3f}",
                p.marker,
                "*" if id(p) in on_frontier else "",
            ]
            for p in sorted(self.points, key=lambda p: p.cost)
        ]
        table = format_table(
            ["configuration", "cost (RBE)", "CPI", "mark", "frontier"],
            rows,
            title="Figure 8: espresso full cost-performance (17-cycle latency)",
        )
        if self.empty_runs:
            table += (
                f"\n({self.empty_runs} empty runs skipped: "
                "zero instructions retired)"
            )
        return table


def design_points() -> list[tuple[str, MachineConfig, str]]:
    """The catalogue of configurations plotted in Figure 8.

    ``(label, config, marker)`` triples at 17-cycle memory latency.  The
    guided explorer (:mod:`repro.explore.space`) and the serve load
    generator both build their grids from this list, so "the Figure 8
    catalogue" has exactly one definition.
    """
    points: list[tuple[str, MachineConfig, str]] = []
    # Four single-issue systems of various sizes (the squares).
    for model in (SMALL, BASELINE, LARGE, RECOMMENDED):
        marker = ""
        config = model.single_issue().with_latency(17)
        if config.mshr_entries == 1:
            marker = "A"
        points.append((f"{model.name}/single", config, marker))
    # Dual-issue sweeps per I-cache size: vary each memory element away
    # from the matching model's value, plus a fully up/down-sized variant.
    for icache, base in _MODEL_BY_ICACHE.items():
        model = base.dual_issue().with_latency(17)
        tag = f"{icache // 1024}K"
        variants: list[tuple[str, MachineConfig]] = [(f"{tag}/std", model)]
        for count in (1, 2, 4):
            if count != model.mshr_entries:
                variants.append(
                    (f"{tag}/mshr{count}", model.with_(mshr_entries=count))
                )
        for rob in (2, 6, 8):
            if rob != model.rob_entries:
                variants.append((f"{tag}/rob{rob}", model.with_(rob_entries=rob)))
        for wc in (2, 4, 8):
            if wc != model.writecache_lines:
                variants.append(
                    (f"{tag}/wc{wc}", model.with_(writecache_lines=wc))
                )
        variants.append((f"{tag}/nopf", model.without_prefetch()))
        for label, config in variants:
            marker = ""
            if config.mshr_entries == 1:
                marker = "A"
            elif label == "4K/std":
                marker = "B"
            elif label == "2K/nopf":
                marker = "C"
            elif label == "2K/std":
                marker = "D"
            points.append((label, config, marker))
    # Point E: the Section 5.6 recommendation, dual issue.
    points.append(("E/recommended", RECOMMENDED.dual_issue().with_latency(17), "E"))
    return points


def run(factor: float = 1.0, workload: str = "espresso") -> Fig8Result:
    trace = scaled_trace(workload, factor)
    result = Fig8Result()
    catalogue = design_points()
    batch = simulate_many(trace, [config for _, config, _ in catalogue])
    for (label, config, marker), sim in zip(catalogue, batch):
        stats = sim.stats
        result.points.append(
            DesignPoint(
                label=label,
                config=config,
                cost=total_cost(config),
                cpi=stats.cpi,
                marker=marker,
                empty=stats.instructions == 0,
            )
        )
    return result
