"""The analytic CPI estimator: score any machine point without simulating.

The queuing-model idea (Carroll & Lin, PAPERS.md): a config's CPI is a
base issue rate plus per-cause stall components, and each resource
axis — MSHRs, reorder buffer, write cache, prefetching, issue width,
memory latency — moves those components in ways a handful of anchor
simulations can calibrate:

* **Family anchors** — one simulated ``std`` dual-issue point per
  I-cache family (the Table 1 models at 17-cycle latency).  Its
  ``SimStats`` give the starting per-kind stall decomposition for every
  candidate in its family.
* **Axis response curves** — the calibration family (baseline/2K) is
  probed at every swept value of each axis.  The per-kind CPI
  difference between two axis values is the *response*; predicting a
  candidate adds the response between its family's std value and its
  own value, unscaled.  The absolute MSHR response agrees across the
  three families to within 0.001 CPI on the anchor workloads, and the
  families use their write caches alike (time-weighted utilization
  0.94–1.00 in each), so no per-family demand scale is needed.
* **Latency slope** — one probe of the calibration config at 21-cycle
  memory gives a per-kind multiplicative slope, interpolated linearly
  in latency.
* **Issue width** — the small/single point calibrates the dual→single
  delta; the base-CPI part scales with the family's measured
  dual-issue pair rate, and pairing stalls vanish by construction.

Everything is per-instruction and additive per stall kind, clamped at
zero.  docs/EXPLORATION.md discusses the assumptions and when they are
unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import BASELINE, LARGE, SMALL, MachineConfig
from repro.core.kernel import simulate_many
from repro.core.stats import SimStats, StallKind
from repro.telemetry import tracing

#: The decomposition key for non-stall (issue/execute) cycles.
BASE = "base"

#: Prefetch-coverage ratio clamp: transfers outside this range say the
#: families are too dissimilar for a linear transfer to be credible.
_SCALE_RANGE = (0.25, 4.0)

#: Components below this (CPI) are treated as zero when forming ratios.
_TINY = 1e-12


class ModelError(ValueError):
    """The estimator cannot calibrate or score the requested point."""


Decomp = dict  # {BASE | StallKind: cycles-per-instruction}


def _decompose(stats: SimStats) -> Decomp:
    """Split a run's CPI into base + per-kind stall components."""
    if not stats.instructions:
        raise ModelError(
            "cannot decompose an empty run (zero instructions retired); "
            "calibrate with a larger trace factor"
        )
    per_instr = {
        kind: stats.stall_cycles[kind] / stats.instructions
        for kind in StallKind
    }
    base = stats.cpi - sum(per_instr.values())
    return {BASE: max(base, 0.0), **per_instr}


def _total(decomp: Decomp) -> float:
    return sum(max(v, 0.0) for v in decomp.values())


def _interpolate(curve: dict[int, Decomp], value: int) -> Decomp:
    """Piecewise-linear per-component read of an axis response curve.

    Exact at probed values; linear between neighbours; clamped to the
    nearest probe outside the calibrated range (extrapolating a queue
    response beyond its probes is how estimators lie).
    """
    if value in curve:
        return curve[value]
    probed = sorted(curve)
    if value <= probed[0]:
        return curve[probed[0]]
    if value >= probed[-1]:
        return curve[probed[-1]]
    for lo, hi in zip(probed, probed[1:]):
        if lo < value < hi:
            t = (value - lo) / (hi - lo)
            return {
                key: curve[lo][key] + t * (curve[hi][key] - curve[lo][key])
                for key in curve[lo]
            }
    raise AssertionError("unreachable")  # pragma: no cover


def rank_correlation(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (average ranks on ties).

    1.0 means the model orders configs exactly as simulation does —
    for pruning, ordering fidelity matters as much as absolute error.
    """
    if len(xs) != len(ys):
        raise ValueError("rank_correlation needs equal-length sequences")
    n = len(xs)
    if n < 2:
        return 1.0

    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(n), key=lambda i: values[i])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            mean_rank = (i + j) / 2.0
            for k in range(i, j + 1):
                out[order[k]] = mean_rank
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx <= 0 or vy <= 0:
        return 1.0 if vx == vy else 0.0
    return cov / (vx * vy) ** 0.5


@dataclass(frozen=True)
class ModelReport:
    """Predicted-vs-simulated error statistics over a set of configs."""

    count: int
    mean_rel_error: float
    max_rel_error: float
    rank_corr: float

    @classmethod
    def from_pairs(cls, pairs: "list[tuple[float, float]]") -> "ModelReport":
        """Build from ``(predicted_cpi, simulated_cpi)`` pairs."""
        live = [(p, s) for p, s in pairs if s > 0]
        if not live:
            return cls(0, 0.0, 0.0, 1.0)
        errors = [abs(p - s) / s for p, s in live]
        return cls(
            count=len(live),
            mean_rel_error=sum(errors) / len(errors),
            max_rel_error=max(errors),
            rank_corr=rank_correlation(
                [p for p, _ in live], [s for _, s in live]
            ),
        )

    def render(self) -> str:
        return (
            f"model error over {self.count} simulated configs: "
            f"mean {self.mean_rel_error * 100:.1f}%, "
            f"max {self.max_rel_error * 100:.1f}%, "
            f"rank correlation {self.rank_corr:.3f}"
        )


@dataclass(frozen=True)
class _Anchor:
    """One family anchor and its calibration inputs."""

    config: MachineConfig
    stats: SimStats
    decomp: Decomp
    prefetch_coverage: float  # (i+d) prefetch hits per instruction
    pair_rate: float  # dual-issued pairs per instruction


#: (axis name, MachineConfig field, swept values).  The probe values are
#: exactly the Figure 8 sweep's, so grid candidates read the curves with
#: zero interpolation error.
_AXES = (
    ("mshr", "mshr_entries", (1, 2, 4)),
    ("rob", "rob_entries", (2, 6, 8)),
    ("wc", "writecache_lines", (2, 4, 8)),
)

#: The calibration family: the baseline model is the middle of the
#: design space, so its responses transfer the shortest distance.
_CALIBRATION_MODEL = BASELINE
_ANCHOR_MODELS = {1024: SMALL, 2048: BASELINE, 4096: LARGE}
_ANCHOR_LATENCY = 17
_LATENCY_PROBE = 21


@dataclass
class CPIEstimator:
    """Calibrated per-workload CPI predictor over machine configs."""

    anchors: dict[int, _Anchor]
    curves: dict[str, dict[int, Decomp]]
    nopf_decomp: Decomp
    single_decomp: Decomp
    latency_decomp: Decomp
    #: Every simulation spent on calibration, keyed by config — the
    #: search reuses these instead of re-simulating grid members.
    calibration_stats: dict[MachineConfig, SimStats] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------ calibrate

    @classmethod
    def calibrate(cls, trace) -> "CPIEstimator":
        """Run the anchor + probe simulations and fit the model.

        One grouped ``simulate_many`` of twelve configs, all of them
        members of the Figure 8 grid: one ``std`` dual point per I-cache
        family (the anchors), the calibration family's axis sweeps, its
        no-prefetch and 21-cycle-latency variants, and the small/single
        issue-width anchor.  Their stats land in the trace's reuse
        store, so the exhaustive grid later answers them without
        simulating again.
        """
        calib = _CALIBRATION_MODEL.dual_issue().with_latency(_ANCHOR_LATENCY)
        family = {
            icache: model.dual_issue().with_latency(_ANCHOR_LATENCY)
            for icache, model in sorted(_ANCHOR_MODELS.items())
        }
        nopf = calib.without_prefetch()
        slow = calib.with_latency(_LATENCY_PROBE)
        single = SMALL.single_issue().with_latency(_ANCHOR_LATENCY)
        configs = list(family.values())
        for _, fld, values in _AXES:
            configs.extend(
                calib.with_(**{fld: v})
                for v in values
                if v != getattr(calib, fld)
            )
        configs += [nopf, slow, single]
        with tracing.span(
            "explore_calibrate", "explore", anchors=len(family)
        ):
            results = simulate_many(trace, configs)
        calibration_stats = {
            config: result.stats for config, result in zip(configs, results)
        }
        anchors = {
            icache: cls._build_anchor(config, calibration_stats[config])
            for icache, config in family.items()
        }

        calib_decomp = anchors[2048].decomp
        curves: dict[str, dict[int, Decomp]] = {}
        for axis, fld, values in _AXES:
            curve: dict[int, Decomp] = {}
            for v in values:
                config = calib.with_(**{fld: v})
                if v == getattr(calib, fld):
                    curve[v] = calib_decomp
                else:
                    curve[v] = _decompose(calibration_stats[config])
            curves[axis] = curve
        return cls(
            anchors=anchors,
            curves=curves,
            nopf_decomp=_decompose(calibration_stats[nopf]),
            single_decomp=_decompose(calibration_stats[single]),
            latency_decomp=_decompose(calibration_stats[slow]),
            calibration_stats=calibration_stats,
        )

    @staticmethod
    def _build_anchor(config: MachineConfig, stats: SimStats) -> _Anchor:
        instructions = stats.instructions or 1
        return _Anchor(
            config=config,
            stats=stats,
            decomp=_decompose(stats),
            prefetch_coverage=(
                (stats.iprefetch_hits + stats.dprefetch_hits) / instructions
            ),
            pair_rate=stats.dual_issued_pairs / instructions,
        )

    # -------------------------------------------------------------- predict

    @property
    def calibration_count(self) -> int:
        return len(self.calibration_stats)

    def predict_decomp(self, config: MachineConfig) -> Decomp:
        """Predicted per-instruction cycle decomposition for ``config``."""
        anchor = self.anchors.get(config.icache_bytes)
        if anchor is None:
            raise ModelError(
                f"no family anchor for icache_bytes={config.icache_bytes}; "
                "calibrated families: "
                + ", ".join(str(k) for k in sorted(self.anchors))
            )
        decomp = dict(anchor.decomp)
        calib_decomp = self.anchors[2048].decomp

        for axis, fld, _values in _AXES:
            v_from = getattr(anchor.config, fld)
            v_to = getattr(config, fld)
            if v_from == v_to:
                continue
            hi = _interpolate(self.curves[axis], v_to)
            lo = _interpolate(self.curves[axis], v_from)
            for key in decomp:
                decomp[key] += hi[key] - lo[key]

        if config.prefetch_enabled != anchor.config.prefetch_enabled:
            calib = self.anchors[2048]
            scale = 1.0
            if calib.prefetch_coverage > _TINY:
                lo_s, hi_s = _SCALE_RANGE
                scale = min(
                    max(
                        anchor.prefetch_coverage / calib.prefetch_coverage,
                        lo_s,
                    ),
                    hi_s,
                )
            for key in decomp:
                decomp[key] += scale * (
                    self.nopf_decomp[key] - calib_decomp[key]
                )

        if config.issue_width != anchor.config.issue_width:
            small_anchor = self.anchors[1024]
            gamma = 1.0
            if small_anchor.pair_rate > _TINY:
                gamma = anchor.pair_rate / small_anchor.pair_rate
            for key in decomp:
                delta = self.single_decomp[key] - small_anchor.decomp[key]
                if key == BASE:
                    decomp[key] += gamma * delta
                elif key is StallKind.PAIRING:
                    decomp[key] = 0.0  # single issue cannot pair-stall
                else:
                    decomp[key] += delta

        latency = config.mem_latency
        if latency != _ANCHOR_LATENCY:
            span = _LATENCY_PROBE - _ANCHOR_LATENCY
            for key in decomp:
                base_value = calib_decomp[key]
                if base_value <= _TINY:
                    continue
                kappa = self.latency_decomp[key] / base_value
                factor = 1.0 + (kappa - 1.0) * (
                    (latency - _ANCHOR_LATENCY) / span
                )
                decomp[key] *= max(factor, 0.0)

        return {key: max(value, 0.0) for key, value in decomp.items()}

    def predict(self, config: MachineConfig) -> float:
        """Predicted CPI for ``config`` — no simulation."""
        return _total(self.predict_decomp(config))

    def validate(
        self, observations: "list[tuple[MachineConfig, SimStats]]"
    ) -> ModelReport:
        """Error statistics of the model against simulated ground truth."""
        pairs = [
            (self.predict(config), stats.cpi)
            for config, stats in observations
            if stats.instructions
        ]
        return ModelReport.from_pairs(pairs)
