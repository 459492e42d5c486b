"""The frontier driver: estimate everything, simulate only what matters.

One round of the loop:

1. **Margin** — the model's trust radius: ``safety`` times the largest
   predicted-vs-simulated CPI residual observed so far (never below
   ``min_margin``).  Calibration points are fit almost exactly, so the
   first round runs at the floor and the margin widens as real
   residuals arrive.
2. **Band** — every un-simulated candidate whose *optimistic* point
   ``(cost, predicted_cpi - margin)`` is non-dominated against both the
   currently simulated points and every other un-simulated candidate's
   *pessimistic* point ``(cost, predicted_cpi + margin)``.  A
   pessimistic blocker only defers: either the blocker enters a band
   and its simulated CPI (within the margin) dominates at least as
   strongly, or the blocked point resurfaces in a later round.  If the
   model is right to within the margin, every true frontier point is
   in some round's band.
3. **Simulate** — the whole band in one grouped
   :func:`~repro.core.kernel.simulate_many` call (chunked across a
   process pool when ``jobs > 1``).

The loop ends when the band is empty (the simulated frontier is
stable), the round limit trips, or the simulation budget is exhausted
(reported, never silent).  Simulation is deterministic, so a tuned
(safety, min_margin) pair that recovers the exhaustive frontier keeps
recovering it — which is what lets CI assert exact recovery.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

from repro.core.config import MachineConfig
from repro.core.kernel import simulate_many
from repro.core.stats import SimStats
from repro.cost.rbe import total_cost
from repro.explore.model import CPIEstimator, ModelError, ModelReport
from repro.explore.pareto import dominates, frontier_indices
from repro.explore.space import Candidate
from repro.experiments.common import format_table
from repro.telemetry import tracing

#: Margin floor (absolute CPI): below this the model would claim more
#: precision than one calibration can justify.
DEFAULT_MIN_MARGIN = 0.05
#: Multiplier on the worst observed residual when widening the margin.
DEFAULT_SAFETY = 1.5
#: Refinement-round limit — a backstop, not a tuning knob; the band
#: normally drains in two or three rounds.
DEFAULT_MAX_ROUNDS = 8
#: Fraction of the space the explorer may simulate (calibration runs
#: included) before it stops and reports budget exhaustion.
DEFAULT_BUDGET = 0.5


class ExploreError(ValueError):
    """The exploration cannot run as requested."""


@dataclass
class ExplorePoint:
    """One candidate's state at the end of an exploration."""

    label: str
    config: MachineConfig
    cost: float
    predicted_cpi: float
    marker: str = ""
    simulated_cpi: float | None = None
    #: True when the point was simulated and retired zero instructions.
    empty: bool = False

    @property
    def simulated(self) -> bool:
        return self.simulated_cpi is not None or self.empty


@dataclass
class ExploreResult:
    """Everything a guided exploration learned about its space."""

    workload: str
    factor: float
    points: list[ExplorePoint] = field(default_factory=list)
    rounds: int = 0
    calibration_runs: int = 0
    configs_considered: int = 0
    #: Unique configs simulated end to end — calibration probes
    #: included, whether or not they are space members.
    configs_simulated: int = 0
    budget: float = DEFAULT_BUDGET
    budget_exhausted: bool = False
    margin: float = 0.0
    model: ModelReport = field(
        default_factory=lambda: ModelReport(0, 0.0, 0.0, 1.0)
    )
    #: Simulated-cycle / retired-instruction totals over every
    #: simulation the exploration ran (the perf-series numerators).
    sim_cycles: int = 0
    sim_instructions: int = 0

    @property
    def simulated_fraction(self) -> float:
        if not self.configs_considered:
            return 0.0
        return self.configs_simulated / self.configs_considered

    def frontier(self) -> list[ExplorePoint]:
        """Non-dominated set over the *simulated* points, cheapest first.

        Prediction never decides the frontier — only which points earn a
        simulation; every frontier claim is backed by a simulated CPI.
        """
        live = [
            p for p in self.points if p.simulated_cpi is not None
        ]
        chosen = frontier_indices(
            [(p.cost, p.simulated_cpi) for p in live]
        )
        return sorted((live[i] for i in chosen), key=lambda p: p.cost)

    def frontier_labels(self) -> list[str]:
        return [p.label for p in self.frontier()]

    def render(self) -> str:
        on_frontier = {id(p) for p in self.frontier()}
        rows = []
        for p in sorted(self.points, key=lambda p: p.cost):
            if p.empty:
                simulated = "(empty)"
            elif p.simulated_cpi is not None:
                simulated = f"{p.simulated_cpi:.3f}"
            else:
                simulated = "-"
            rows.append(
                [
                    p.label,
                    f"{p.cost:,.0f}",
                    f"{p.predicted_cpi:.3f}",
                    simulated,
                    p.marker,
                    "*" if id(p) in on_frontier else "",
                ]
            )
        table = format_table(
            ["configuration", "cost (RBE)", "pred CPI", "sim CPI",
             "mark", "frontier"],
            rows,
            title=(
                f"Guided exploration: {self.workload} "
                f"(factor {self.factor:g})"
            ),
        )
        lines = [
            table,
            "",
            f"simulated {self.configs_simulated} of "
            f"{self.configs_considered} configs "
            f"({self.simulated_fraction * 100:.0f}%; "
            f"{self.calibration_runs} calibration runs, "
            f"{self.rounds} refinement rounds, "
            f"margin {self.margin:.3f} CPI)",
            self.model.render(),
        ]
        if self.budget_exhausted:
            lines.append(
                f"WARNING: simulation budget ({self.budget * 100:.0f}% of "
                "the space) exhausted before the frontier stabilised — "
                "the frontier above may be incomplete"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready summary (``aurora-sim explore --out``)."""
        return {
            "workload": self.workload,
            "factor": self.factor,
            "rounds": self.rounds,
            "calibration_runs": self.calibration_runs,
            "configs_considered": self.configs_considered,
            "configs_simulated": self.configs_simulated,
            "simulated_fraction": self.simulated_fraction,
            "budget": self.budget,
            "budget_exhausted": self.budget_exhausted,
            "margin": self.margin,
            "model": {
                "count": self.model.count,
                "mean_rel_error": self.model.mean_rel_error,
                "max_rel_error": self.model.max_rel_error,
                "rank_correlation": self.model.rank_corr,
            },
            "frontier": self.frontier_labels(),
            "points": [
                {
                    "label": p.label,
                    "cost": p.cost,
                    "predicted_cpi": p.predicted_cpi,
                    "simulated_cpi": p.simulated_cpi,
                    "marker": p.marker,
                    "empty": p.empty,
                }
                for p in self.points
            ],
        }


def _simulate_configs_chunk(
    workload: str, factor: float, configs: list[MachineConfig]
) -> list[SimStats]:
    """Process-pool worker: rebuild the trace (on-disk cache) and run."""
    from repro.experiments.common import scaled_trace

    trace = scaled_trace(workload, factor)
    return [r.stats for r in simulate_many(trace, configs)]


def _run_band(
    trace,
    configs: list[MachineConfig],
    *,
    jobs: int,
    workload: str,
    factor: float,
) -> list[SimStats]:
    """One grouped simulation of a round's band, optionally chunked."""
    if jobs <= 1 or len(configs) < 2:
        return [r.stats for r in simulate_many(trace, configs)]
    chunk = (len(configs) + jobs - 1) // jobs
    chunks = [
        configs[i : i + chunk] for i in range(0, len(configs), chunk)
    ]
    stats: list[SimStats] = []
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=len(chunks)
    ) as pool:
        for part in pool.map(
            _simulate_configs_chunk,
            [workload] * len(chunks),
            [factor] * len(chunks),
            chunks,
        ):
            stats.extend(part)
    return stats


def explore(
    candidates: list[Candidate],
    trace,
    *,
    workload: str = "espresso",
    factor: float = 1.0,
    budget: float = DEFAULT_BUDGET,
    safety: float = DEFAULT_SAFETY,
    min_margin: float = DEFAULT_MIN_MARGIN,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    jobs: int = 1,
    metrics=None,
) -> ExploreResult:
    """Model-guided Pareto exploration of ``candidates`` on one trace.

    ``budget`` bounds *all* simulation (calibration included) as a
    fraction of the space size; ``metrics`` (a
    :class:`~repro.telemetry.metrics.MetricsRegistry`) receives the
    ``explore.*`` instrument family when given.  Raises
    :class:`ExploreError` on an empty space, a budget too small to
    calibrate in, or a space the estimator cannot score.
    """
    if not candidates:
        raise ExploreError("cannot explore an empty candidate space")
    if not 0 < budget <= 1:
        raise ExploreError(f"budget must be in (0, 1], got {budget!r}")

    with tracing.span(
        "explore", "explore", configs=len(candidates), workload=workload
    ):
        estimator = CPIEstimator.calibrate(trace)
        simulated: dict[MachineConfig, SimStats] = dict(
            estimator.calibration_stats
        )
        max_sims = int(budget * len(candidates))
        if len(simulated) > max_sims:
            raise ExploreError(
                f"budget {budget:g} allows {max_sims} simulations but "
                f"calibration alone needs {len(simulated)}; raise the "
                "budget or explore a larger space"
            )

        try:
            points = [
                ExplorePoint(
                    label=c.label,
                    config=c.config,
                    cost=total_cost(c.config),
                    predicted_cpi=estimator.predict(c.config),
                    marker=c.marker,
                )
                for c in candidates
            ]
        except ModelError as error:
            raise ExploreError(
                f"the estimator cannot score this space: {error}"
            ) from None

        def residual_margin() -> float:
            worst = 0.0
            for config, stats in simulated.items():
                if not stats.instructions:
                    continue
                try:
                    predicted = estimator.predict(config)
                except ModelError:
                    continue  # out-of-family calibration probe
                worst = max(worst, abs(predicted - stats.cpi))
            return max(min_margin, safety * worst)

        def apply_stats(point: ExplorePoint, stats: SimStats) -> None:
            if stats.instructions:
                point.simulated_cpi = stats.cpi
            else:
                point.empty = True

        for point in points:
            stats = simulated.get(point.config)
            if stats is not None:
                apply_stats(point, stats)

        rounds = 0
        margin = residual_margin()
        budget_exhausted = False
        for _ in range(max_rounds):
            anchored = [
                (p.cost, p.simulated_cpi)
                for p in points
                if p.simulated_cpi is not None
            ]
            unsimulated = [p for p in points if not p.simulated]
            band = []
            for p in unsimulated:
                optimistic = (p.cost, p.predicted_cpi - margin)
                if any(dominates(s, optimistic) for s in anchored):
                    continue
                # Pessimistic blocking: another candidate would dominate
                # this one even if its own prediction is off by the full
                # margin.  This defers, never drops — see module docs.
                if any(
                    o is not p
                    and dominates(
                        (o.cost, o.predicted_cpi + margin), optimistic
                    )
                    for o in unsimulated
                ):
                    continue
                band.append(p)
            if not band:
                break
            headroom = max_sims - len(simulated)
            if headroom <= 0:
                budget_exhausted = True
                break
            if len(band) > headroom:
                # Spend what remains on the most promising optimists.
                band.sort(key=lambda p: (p.predicted_cpi, p.cost))
                band = band[:headroom]
                budget_exhausted = True
            rounds += 1
            with tracing.span(
                "explore_round", "explore", round=rounds, band=len(band)
            ):
                stats_list = _run_band(
                    trace,
                    [p.config for p in band],
                    jobs=jobs,
                    workload=workload,
                    factor=factor,
                )
            for point, stats in zip(band, stats_list):
                simulated[point.config] = stats
                apply_stats(point, stats)
            margin = residual_margin()
            if budget_exhausted:
                break

        model = estimator.validate(
            [
                (p.config, simulated[p.config])
                for p in points
                if p.config in simulated
            ]
        )
        result = ExploreResult(
            workload=workload,
            factor=factor,
            points=points,
            rounds=rounds,
            calibration_runs=estimator.calibration_count,
            configs_considered=len(candidates),
            configs_simulated=len(simulated),
            budget=budget,
            budget_exhausted=budget_exhausted,
            margin=margin,
            model=model,
            sim_cycles=sum(s.cycles for s in simulated.values()),
            sim_instructions=sum(
                s.instructions for s in simulated.values()
            ),
        )
        if metrics is not None:
            _publish(result, metrics)
        return result


def _publish(result: ExploreResult, metrics) -> None:
    """Feed the ``explore.*`` instrument family of a MetricsRegistry."""
    metrics.counter("explore.configs_considered").inc(
        result.configs_considered
    )
    metrics.counter("explore.configs_simulated").inc(
        result.configs_simulated
    )
    metrics.counter("explore.calibration_runs").inc(result.calibration_runs)
    metrics.counter("explore.rounds").inc(result.rounds)
    metrics.gauge("explore.simulated_fraction").set(
        result.simulated_fraction
    )
    metrics.gauge("explore.margin_cpi").set(result.margin)
    metrics.gauge("explore.model_mean_rel_error").set(
        result.model.mean_rel_error
    )
    metrics.gauge("explore.model_max_rel_error").set(
        result.model.max_rel_error
    )
    metrics.gauge("explore.model_rank_correlation").set(
        result.model.rank_corr
    )
