"""Metrics registry: counters, gauges and histograms with JSON export.

The event bus answers "what happened, cycle by cycle"; the metrics
registry answers "how much, per run" — the shape a production stack
scrapes.  :class:`MetricsRegistry` is a named get-or-create pool of
three instrument types:

* :class:`Counter` — monotonically increasing totals,
* :class:`Gauge` — last-written values,
* :class:`Histogram` — count/sum/min/max plus cumulative
  less-than-or-equal bucket counts.

Both ends of the repo publish into it: :func:`publish_stats` flattens a
:class:`~repro.core.stats.SimStats` into ``sim.*`` metrics, and the
:class:`~repro.robustness.runner.ResilientRunner` publishes per-
experiment outcomes (``runner.*``) into the checkpoint manifest and a
``<out>/metrics/<exp_id>.json`` tree.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import threading

from repro.core.stats import SimStats, StallKind

#: Default histogram bucket upper bounds (seconds-ish / count-ish scale).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)

#: Request-latency bucket bounds (seconds): the Prometheus classic
#: ladder.  Serve and loadgen both register their latency histograms
#: over these, so their quantiles agree by construction.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Legal registry metric names: dotted namespaces over the Prometheus
#: charset, so ``repro.telemetry.prom`` can always render them by
#: mapping dots to underscores.  Enforced at registration, not render —
#: a typo'd name fails where it is written, not at the first scrape.
VALID_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_.:]*\Z")


class Counter:
    """A monotonically increasing total.

    Thread-safe: the serve front end increments from executor callbacks
    and loadgen from client threads.  (Metrics sit outside the simulator
    hot loop, so the lock costs nothing that matters.)
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """A last-written value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Count / sum / min / max plus cumulative ``le`` buckets."""

    def __init__(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram {name!r} buckets must be a sorted non-empty "
                f"sequence, got {buckets!r}"
            )
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"histogram {self.name!r} cannot observe {value!r}"
            )
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile from the cumulative ``le`` buckets.

        Returns the upper bound of the bucket holding the ranked
        observation, clamped to the observed ``max`` (so a quantile can
        never exceed anything actually seen, and the implicit ``+Inf``
        bucket resolves to the real maximum instead of infinity).
        Resolution is bucket granularity by design — this is *the*
        shared derivation for serve's and loadgen's p50/p99, so both
        ends agree by construction.  Empty histograms answer 0.0.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"quantile fraction must be in [0, 1], got {fraction!r}"
            )
        with self._lock:
            if not self.count:
                return 0.0
            rank = max(1, math.ceil(fraction * self.count))
            observed_max = self.max if self.max is not None else 0.0
            for bound, cumulative in zip(self.buckets, self.bucket_counts):
                if cumulative >= rank:
                    return min(bound, observed_max)
            return observed_max  # ranked past the last bound: +Inf bucket


class MetricsRegistry:
    """Named get-or-create pool of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            self._check_name(name, self._gauges, self._histograms)
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            self._check_name(name, self._counters, self._histograms)
            return self._gauges.setdefault(name, Gauge(name))

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        with self._lock:
            self._check_name(name, self._counters, self._gauges)
            if name not in self._histograms:
                self._histograms[name] = Histogram(
                    name, buckets if buckets is not None else DEFAULT_BUCKETS
                )
            return self._histograms[name]

    @staticmethod
    def _check_name(name: str, *other_pools: dict) -> None:
        if not VALID_NAME.match(name):
            raise ValueError(
                f"metric name {name!r} is invalid: names must match "
                f"[a-zA-Z_][a-zA-Z0-9_.:]* (dots namespace; everything "
                f"else must survive the Prometheus exposition mapping)"
            )
        for pool in other_pools:
            if name in pool:
                raise ValueError(
                    f"metric {name!r} already registered as a different type"
                )

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every registered metric."""
        with self._lock:
            return self._as_dict_locked()

    def _as_dict_locked(self) -> dict:
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": histogram.count,
                    "sum": histogram.total,
                    "min": histogram.min,
                    "max": histogram.max,
                    "mean": histogram.mean,
                    "buckets": {
                        str(bound): count
                        for bound, count in zip(
                            histogram.buckets, histogram.bucket_counts
                        )
                    },
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def write_json(self, path: str | pathlib.Path) -> pathlib.Path:
        """Atomically export the snapshot to ``path``."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        tmp.replace(path)
        return path


def publish_stats(
    stats: SimStats,
    registry: MetricsRegistry,
    prefix: str = "sim",
) -> MetricsRegistry:
    """Flatten one run's :class:`SimStats` into ``<prefix>.*`` metrics."""
    counters = (
        ("instructions", stats.instructions),
        ("cycles", stats.cycles),
        ("icache.accesses", stats.icache_accesses),
        ("icache.hits", stats.icache_hits),
        ("dcache.accesses", stats.dcache_accesses),
        ("dcache.hits", stats.dcache_hits),
        ("iprefetch.lookups", stats.iprefetch_lookups),
        ("iprefetch.hits", stats.iprefetch_hits),
        ("dprefetch.lookups", stats.dprefetch_lookups),
        ("dprefetch.hits", stats.dprefetch_hits),
        ("writecache.accesses", stats.writecache_accesses),
        ("writecache.hits", stats.writecache_hits),
        ("stores.instructions", stats.store_instructions),
        ("stores.transactions", stats.store_transactions),
        ("loads", stats.loads),
        ("stores", stats.stores),
        ("branches", stats.branches),
        ("branches.taken", stats.taken_branches),
        ("fp.instructions", stats.fp_instructions),
        ("dual_issued_pairs", stats.dual_issued_pairs),
        ("fpu.instructions", stats.fpu_instructions),
        ("fpu.busy_cycles", stats.fpu_busy_cycles),
    )
    for name, value in counters:
        registry.counter(f"{prefix}.{name}").inc(value)
    for kind in StallKind:
        registry.counter(f"{prefix}.stall.{kind.value}").inc(
            stats.stall_cycles[kind]
        )
    gauges = (
        ("cpi", stats.cpi),
        ("ipc", stats.ipc),
        ("icache.hit_rate", stats.icache_hit_rate),
        ("dcache.hit_rate", stats.dcache_hit_rate),
        ("writecache.hit_rate", stats.writecache_hit_rate),
        ("stores.traffic_ratio", stats.store_traffic_ratio),
        ("dual_issue_rate", stats.dual_issue_rate),
    )
    for name, value in gauges:
        registry.gauge(f"{prefix}.{name}").set(value)
    return registry


def publish_bus_health(
    bus, registry: MetricsRegistry, prefix: str = "telemetry"
) -> MetricsRegistry:
    """Expose event-bus delivery health as ``<prefix>.*`` metrics.

    Event loss used to be visible only after the fact, when an exact
    cross-check refused a partial stream with ``PartialTraceError``;
    these gauges put it on the scrape path instead: ``sinks`` attached,
    events ``recorded`` by counting sinks, and ring-buffer ``dropped``
    (evictions past capacity).  Sinks without counters (e.g. a bare
    NDJSON stream) simply contribute nothing.
    """
    sinks = list(getattr(bus, "sinks", ()) or ())
    registry.gauge(f"{prefix}.sinks").set(float(len(sinks)))
    recorded = dropped = 0
    counted = False
    for sink in sinks:
        if hasattr(sink, "recorded"):
            counted = True
            recorded += sink.recorded
            dropped += getattr(sink, "dropped", 0)
    if counted:
        registry.gauge(f"{prefix}.events_recorded").set(float(recorded))
        registry.gauge(f"{prefix}.events_dropped").set(float(dropped))
    return registry
