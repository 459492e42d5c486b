"""Observability for the Aurora III timing model — both clock domains.

Simulated time (see docs/OBSERVABILITY.md):

* :mod:`repro.telemetry.events` — the event bus: typed probe kinds, a
  ring-buffer sink and a streaming NDJSON sink (plain or gzip); zero
  overhead when no sink is attached.
* :mod:`repro.telemetry.analysis` — stall-attribution timelines and the
  event-vs-counter cross-check, time-weighted occupancy histograms, and
  per-window CPI phase summaries.
* :mod:`repro.telemetry.validate` — schema validation for NDJSON traces
  (also runnable: ``python -m repro.telemetry.validate``).

Host time:

* :mod:`repro.telemetry.tracing` — hierarchical sweep/experiment/attempt
  spans with Chrome trace-event export (Perfetto) and a text tree view;
  span records cross the process-pool boundary and merge into one trace.
* :mod:`repro.telemetry.profiling` — simulator throughput (cycles/s,
  instructions/s), sampling-based per-structure host-time attribution,
  and opt-in cProfile reports (``aurora-sim perf``).
* :mod:`repro.telemetry.metrics` — a counter/gauge/histogram registry
  with JSON export, fed by ``SimStats`` and the resilient runner.
"""

from repro.telemetry.analysis import (  # noqa: F401
    IntervalStat,
    OccupancyHistogram,
    PartialTraceError,
    StallMismatchError,
    assert_stalls_match,
    cross_check_stalls,
    fpu_queue_occupancy,
    interval_cpi,
    mshr_occupancy,
    occupancy_export,
    occupancy_histogram,
    occupancy_summaries,
    render_summary,
    stall_breakdown,
    stall_timeline,
    writecache_occupancy,
)
from repro.telemetry.events import (  # noqa: F401
    Event,
    EventBus,
    EventKind,
    NDJSONSink,
    RingBufferSink,
    TelemetryError,
    load_ndjson,
)
from repro.telemetry.logging import (  # noqa: F401
    LogConfigError,
    StructLogger,
    get_logger,
    read_log,
)
from repro.telemetry.metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    publish_stats,
)
from repro.telemetry.prom import (  # noqa: F401
    PromFormatError,
    parse_prom,
    render_prom,
)
from repro.telemetry.profiling import (  # noqa: F401
    PerfReport,
    PhaseSampler,
    profile_workload,
)
from repro.telemetry.tracing import (  # noqa: F401
    Span,
    SpanError,
    SpanTracer,
    load_chrome_trace,
    render_span_tree,
)
