"""Query batching: dedup by config fingerprint, one dispatch per group.

N concurrent queries for the same (workload, factor) share one trace
lookup, one validation and the trace's per-config result store, and
identical configs share one simulation — provided someone groups them.
That someone is :class:`QueryBatcher`:

* Queries arriving within a short **batching window** (default 10 ms)
  for the same ``(workload, factor)`` join one group.
* Within a group, queries are **deduped by config fingerprint** — two
  clients asking for the same configuration share one simulation slot
  (and both get the same answer object).
* When the window closes, the group dispatches as **one**
  :func:`repro.core.kernel.simulate_many` call on an executor (thread
  for ``--jobs 1``, process pool above that — workers mmap traces from
  the shared disk cache).
* Results land in the :class:`~repro.serve.store.MemoStore` before any
  waiter is released, so a memoized answer can never race a concurrent
  recompute of the same key.

The ``serve.batch_width`` histogram records distinct configs per
dispatch — the observable proof that N concurrent distinct-config
queries cost fewer than N dispatches.
"""

from __future__ import annotations

import asyncio
import concurrent.futures

from repro.core.config import MachineConfig
from repro.serve.protocol import Query
from repro.serve.store import MemoStore
from repro.telemetry import tracing
from repro.telemetry.metrics import MetricsRegistry

#: Default batching window (seconds): long enough to coalesce a burst,
#: short against the cost of even the smallest simulation.
DEFAULT_WINDOW = 0.010

#: ``serve.batch_width`` histogram buckets (configs per dispatch).
BATCH_WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _simulate_group(
    workload: str,
    factor: float,
    configs: list[MachineConfig],
) -> list:
    """Executor entry point: one ``simulate_many`` call for the group.

    Runs in a worker thread or a pool process (everything it takes and
    returns pickles); the trace comes from the process-wide registry
    memo backed by the shared mmap disk cache.
    """
    from repro.core.kernel import simulate_many
    from repro.experiments.common import scaled_trace

    trace = scaled_trace(workload, factor)
    results = simulate_many(trace, configs)
    return [result.stats for result in results]


def build_executor(jobs: int) -> concurrent.futures.Executor:
    """Simulation executor: in-process thread at ``jobs=1`` (keeps CI
    deterministic and the event loop responsive — the GIL releases
    during numpy work), above that the sweep runner's process pool
    (workers share the parent's trace cache)."""
    if jobs <= 1:
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-sim"
        )
    from repro.robustness.runner import process_pool

    return process_pool(jobs)


class _Group:
    """One open batching window for a (workload, factor) pair."""

    __slots__ = ("query_count", "configs", "futures")

    def __init__(self) -> None:
        self.query_count = 0
        #: fingerprint -> config, insertion-ordered (dedup happens here).
        self.configs: dict[str, MachineConfig] = {}
        #: fingerprint -> futures awaiting that config's stats.
        self.futures: dict[str, list[asyncio.Future]] = {}


class QueryBatcher:
    """Coalesce concurrent queries into grouped ``simulate_many`` calls."""

    def __init__(
        self,
        store: MemoStore,
        metrics: MetricsRegistry,
        *,
        executor: concurrent.futures.Executor | None = None,
        window: float = DEFAULT_WINDOW,
        jobs: int = 1,
    ) -> None:
        self.store = store
        self.metrics = metrics
        self.window = window
        self.executor = executor if executor is not None else build_executor(jobs)
        self._groups: dict[tuple[str, float], _Group] = {}
        self._dispatches: set[asyncio.Task] = set()
        # Pre-register the instruments so /metrics exposes them from the
        # first scrape, not the first query.
        metrics.counter("serve.queries")
        metrics.counter("serve.memo.hits")
        metrics.counter("serve.memo.misses")
        metrics.counter("serve.coalesced")
        metrics.counter("serve.dispatches")
        metrics.counter("serve.simulated_configs")
        metrics.histogram("serve.batch_width", BATCH_WIDTH_BUCKETS)

    # ------------------------------------------------------------- submit

    async def submit(self, query: Query) -> tuple:
        """Answer one query; returns ``(stats, meta)``.

        ``meta`` reports how the answer was produced: ``memo`` (served
        without simulating), ``coalesced`` (shared another identical
        in-flight query's slot) and ``batch_width`` (distinct configs in
        the dispatch that produced it; 0 for memo answers).
        """
        self.metrics.counter("serve.queries").inc()
        stats = self.store.get(query.workload, query.factor, query.fingerprint)
        if stats is not None:
            self.metrics.counter("serve.memo.hits").inc()
            return stats, {"memo": True, "coalesced": False, "batch_width": 0}
        self.metrics.counter("serve.memo.misses").inc()

        loop = asyncio.get_running_loop()
        group = self._groups.get(query.group)
        if group is None:
            group = _Group()
            self._groups[query.group] = group
            task = loop.create_task(self._close_window(query.group))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)
        group.query_count += 1
        coalesced = query.fingerprint in group.configs
        if coalesced:
            self.metrics.counter("serve.coalesced").inc()
        else:
            group.configs[query.fingerprint] = query.config
        future: asyncio.Future = loop.create_future()
        group.futures.setdefault(query.fingerprint, []).append(future)

        with tracing.span(
            "batch_wait", "serve",
            workload=query.workload, factor=query.factor,
        ):
            stats, width = await future
        return stats, {
            "memo": False, "coalesced": coalesced, "batch_width": width,
        }

    # ----------------------------------------------------------- dispatch

    async def _close_window(self, group_key: tuple[str, float]) -> None:
        await asyncio.sleep(self.window)
        group = self._groups.pop(group_key, None)
        if group is None:  # drained concurrently
            return
        workload, factor = group_key
        fingerprints = list(group.configs)
        configs = list(group.configs.values())
        width = len(configs)
        self.metrics.counter("serve.dispatches").inc()
        self.metrics.counter("serve.simulated_configs").inc(width)
        self.metrics.histogram("serve.batch_width").observe(width)
        loop = asyncio.get_running_loop()
        try:
            with tracing.span(
                "simulate_batch", "serve", workload=workload, width=width
            ):
                stats_list = await loop.run_in_executor(
                    self.executor,
                    _simulate_group, workload, factor, configs,
                )
        except BaseException as error:  # noqa: BLE001 - forwarded to waiters
            for futures in group.futures.values():
                for future in futures:
                    if not future.done():
                        future.set_exception(error)
            return
        with tracing.span(
            "store", "serve", workload=workload, width=width
        ):
            for fingerprint, stats in zip(fingerprints, stats_list):
                self.store.put(workload, factor, fingerprint, stats)
        for fingerprint, stats in zip(fingerprints, stats_list):
            for future in group.futures.get(fingerprint, ()):
                if not future.done():
                    future.set_result((stats, width))

    # -------------------------------------------------------------- drain

    async def drain(self) -> None:
        """Wait for every open window and in-flight dispatch to finish."""
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches), return_exceptions=True)

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True)
