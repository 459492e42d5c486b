"""Host-side hot-loop profiling for the timing simulator.

``aurora-sim perf <workload>`` answers "how fast does the *simulator*
run" — the number every optimisation PR must move:

* **Throughput** — simulated cycles per wall-clock second and
  instructions per second for one workload at one factor, the
  denominators the ROADMAP's "as fast as the hardware allows" goal is
  measured in.
* **Phase attribution** — a lightweight sampling profiler
  (:class:`PhaseSampler`) polls the simulation thread's stack every few
  milliseconds via ``sys._current_frames`` and buckets samples by the
  ``repro`` module executing (``core.processor``, ``core.fpu``,
  ``core.writecache``, ...), giving a per-structure share of host time
  without instrumenting the hot loop at all.
* **cProfile (opt-in)** — ``--cprofile`` wraps the run in
  :mod:`cProfile` for an exact (but slow) top-N by cumulative time;
  sampling stays the default because deterministic profiling roughly
  doubles the wall time of the loop it measures.

The result is a :class:`PerfReport` with ``render()`` for humans and
:meth:`PerfReport.as_record` for the perf-history store
(:mod:`repro.telemetry.baseline`).
"""

from __future__ import annotations

import cProfile
import io
import os
import pathlib
import pstats
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from repro.core.config import MachineConfig

#: Default sampling period (seconds) for phase attribution.
DEFAULT_INTERVAL = 0.005
#: Default row count for the opt-in cProfile report.
DEFAULT_TOP = 15


class PhaseSampler:
    """Sample one thread's Python stack periodically; bucket by module.

    Attribution walks the sampled stack innermost-out and charges the
    first frame inside the ``repro`` package (``<subpackage>.<module>``,
    e.g. ``core.mshr``); samples that never touch ``repro`` land in
    ``"other"``.  Pure observation: the sampled thread runs unmodified,
    so throughput numbers measured around a sampler stay honest to
    within the sampling overhead (one stack walk per period).
    """

    def __init__(
        self,
        target_ident: int | None = None,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.target_ident = (
            target_ident
            if target_ident is not None
            else threading.get_ident()
        )
        self.interval = interval
        self.samples: dict[str, int] = {}
        self.total_samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        package_root = pathlib.Path(__file__).resolve().parent.parent
        self._package_prefix = str(package_root) + os.sep

    def _bucket(self, frame) -> str:
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename.startswith(self._package_prefix):
                relative = pathlib.Path(
                    filename[len(self._package_prefix):]
                )
                parts = list(relative.with_suffix("").parts)
                return ".".join(parts) if parts else "other"
            frame = frame.f_back
        return "other"

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self.target_ident)
            if frame is None:
                continue
            bucket = self._bucket(frame)
            self.samples[bucket] = self.samples.get(bucket, 0) + 1
            self.total_samples += 1

    def start(self) -> "PhaseSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="phase-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> dict[str, int]:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        return dict(self.samples)

    def fractions(self) -> dict[str, float]:
        """Share of samples per bucket, largest first (empty if none)."""
        total = self.total_samples
        if not total:
            return {}
        return {
            bucket: count / total
            for bucket, count in sorted(
                self.samples.items(), key=lambda item: -item[1]
            )
        }


@dataclass
class PerfReport:
    """One profiled run of one workload on one configuration."""

    workload: str
    factor: float
    config_label: str
    instructions: int
    sim_cycles: int
    wall_seconds: float
    #: Wall time spent building/loading the trace (excluded from
    #: throughput: throughput measures the timing simulator only).
    trace_seconds: float
    cache_hits: int
    cache_misses: int
    phase_fractions: dict[str, float] = field(default_factory=dict)
    phase_samples: int = 0
    cprofile_top: str | None = None

    @property
    def cycles_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.sim_cycles / self.wall_seconds

    @property
    def instructions_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_record(self, *, git_sha: str, recorded_at: float) -> dict:
        """Schema-valid perf-history record (see telemetry.baseline)."""
        return {
            "git_sha": git_sha,
            "recorded_at": recorded_at,
            "workload": self.workload,
            "factor": self.factor,
            "config": self.config_label,
            "instructions": self.instructions,
            "sim_cycles": self.sim_cycles,
            "wall_seconds": self.wall_seconds,
            "cycles_per_second": self.cycles_per_second,
            "instructions_per_second": self.instructions_per_second,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def render(self) -> str:
        lines = [
            f"perf: {self.workload} @ factor {self.factor:g} "
            f"on {self.config_label}",
            f"  instructions        {self.instructions:>14,}",
            f"  simulated cycles    {self.sim_cycles:>14,}",
            f"  simulate wall       {self.wall_seconds:>14.3f} s"
            f"   (trace build/load {self.trace_seconds:.3f} s, "
            f"trace-cache {self.cache_hits}h/{self.cache_misses}m)",
            f"  throughput          {self.cycles_per_second:>14,.0f}"
            " sim-cycles/s",
            f"                      {self.instructions_per_second:>14,.0f}"
            " instructions/s",
        ]
        if self.phase_fractions:
            lines.append(
                f"  host-time attribution ({self.phase_samples} samples):"
            )
            for bucket, fraction in self.phase_fractions.items():
                lines.append(f"    {bucket:<24} {fraction * 100:6.1f}%")
        elif self.phase_samples == 0:
            lines.append(
                "  host-time attribution: no samples "
                "(run too short for the sampling period)"
            )
        if self.cprofile_top:
            lines.append("  cProfile (cumulative):")
            lines.extend(
                f"    {line}" for line in self.cprofile_top.splitlines()
            )
        return "\n".join(lines)


def profile_workload(
    name: str,
    config: "MachineConfig",
    *,
    factor: float = 1.0,
    interval: float = DEFAULT_INTERVAL,
    sample: bool = True,
    use_cprofile: bool = False,
    top: int = DEFAULT_TOP,
) -> PerfReport:
    """Profile one timing-simulation run of ``name`` at ``factor``.

    Trace acquisition (build or cache load) is timed separately and
    excluded from throughput; the phase sampler and the optional
    cProfile wrap only the simulation call.
    """
    # Local imports: the telemetry package must stay importable from the
    # modules this profiles (processor, trace cache) without a cycle.
    from repro.core.processor import simulate_trace
    from repro.experiments.common import scaled_trace
    from repro.telemetry import tracing
    from repro.workloads import trace_cache

    base_hits, base_misses = trace_cache.snapshot()
    trace_started = time.perf_counter()
    with tracing.span("trace_acquire", "trace", workload=name):
        trace = scaled_trace(name, factor)
    trace_seconds = time.perf_counter() - trace_started
    hits, misses = trace_cache.snapshot()

    sampler = (
        PhaseSampler(interval=interval).start() if sample else None
    )
    profiler = cProfile.Profile() if use_cprofile else None
    started = time.perf_counter()
    try:
        if profiler is not None:
            result = profiler.runcall(simulate_trace, trace, config)
        else:
            result = simulate_trace(trace, config)
    finally:
        wall = time.perf_counter() - started
        if sampler is not None:
            sampler.stop()

    cprofile_top = None
    if profiler is not None:
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        # Keep the header + table, drop pstats' trailing blank lines.
        cprofile_top = "\n".join(
            line.rstrip()
            for line in buffer.getvalue().splitlines()
            if line.strip()
        )

    return PerfReport(
        workload=name,
        factor=factor,
        config_label=config.label,
        instructions=result.stats.instructions,
        sim_cycles=result.stats.cycles,
        wall_seconds=wall,
        trace_seconds=trace_seconds,
        cache_hits=hits - base_hits,
        cache_misses=misses - base_misses,
        phase_fractions=sampler.fractions() if sampler else {},
        phase_samples=sampler.total_samples if sampler else 0,
        cprofile_top=cprofile_top,
    )
