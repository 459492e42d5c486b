"""``aurora-sim serve``: the coalescing design-space query service.

The paper's whole method is asking "what CPI does machine configuration
X get on workload Y?" over and over; this package serves that question
as traffic instead of batch jobs.  The pieces:

* :mod:`repro.serve.protocol` — the JSON wire format: query parsing
  with field-named 400s, exact machine-config round-trips.
* :mod:`repro.serve.store` — the persistent :class:`SimStats` memo
  store (same atomic write-then-rename + code-hash keying discipline as
  the checkpoint manifest).
* :mod:`repro.serve.batcher` — dispatches a miss as soon as a
  simulation slot is free; misses that arrive while every slot is busy
  group by (workload, factor), dedup by config fingerprint and go out
  as **one** :func:`repro.core.kernel.simulate_many` call when a slot
  frees, and a query for a config already in flight shares its answer.
* :mod:`repro.serve.server` — the asyncio HTTP front end (`/query`,
  `/metrics`, `/healthz`), span-per-request, graceful SIGINT/SIGTERM
  drain via :class:`repro.robustness.signals.GracefulSignals`.
* :mod:`repro.serve.loadgen` — the closed-loop load driver
  (``aurora-sim loadgen``): recorded or synthetic query streams at
  configurable concurrency, p50/p99/throughput reporting, and
  ``BENCH_history.json`` records tagged ``mode="serve"``.

See docs/SERVING.md for the API schema and operational notes.
"""

from repro.serve.protocol import Query, QueryError, parse_query
from repro.serve.store import MemoStore

__all__ = ["MemoStore", "Query", "QueryError", "parse_query"]
