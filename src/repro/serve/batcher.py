"""Query dispatch: dedup by config fingerprint, one group per free slot.

N concurrent queries for the same (workload, factor) share one trace
lookup, one validation and the trace's per-config result store, and
identical configs share one simulation — provided someone groups them.
That someone is :class:`QueryBatcher`, and it never holds work back
while a simulation slot is free (continuous batching):

* The batcher owns ``jobs`` **simulation slots**: one worker thread at
  ``--jobs 1``, ``jobs`` process-pool workers above that (workers mmap
  traces from the shared disk cache).
* A miss whose ``(workload, factor)`` group finds a slot free
  dispatches on the next event-loop turn.
* Misses that arrive while every slot is busy join their group,
  **deduped by config fingerprint**; when a slot frees, the oldest
  waiting group dispatches whole as **one**
  :func:`repro.core.kernel.simulate_many` call.
* A query whose fingerprint is already waiting or simulating attaches
  to that dispatch (``coalesced``) instead of simulating it again.
* Results land in the :class:`~repro.serve.store.MemoStore` before the
  in-flight entry goes and any waiter is released, so a query always
  finds its answer in the store or in flight, never in neither.

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


class QueryBatcher:
    """Coalesce concurrent queries into grouped ``simulate_many`` calls."""

    def __init__(
        self,
        store: MemoStore,
        metrics: MetricsRegistry,
        *,
        executor: concurrent.futures.Executor | None = None,
        jobs: int = 1,
    ) -> None:
        self.store = store
        self.metrics = metrics
        self.executor = executor if executor is not None else build_executor(jobs)
        self._free_slots = max(1, jobs)
        #: (workload, factor) -> {fingerprint: config} waiting for a
        #: slot; oldest group first, dedup happens here.
        self._waiting: dict[tuple[str, float], dict[str, MachineConfig]] = {}
        #: (workload, factor, fingerprint) -> futures of every query
        #: answered by the waiting or running dispatch of that config.
        self._in_flight: dict[tuple[str, float, str], list[asyncio.Future]] = {}
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
        without simulating), ``coalesced`` (rode the dispatch of an
        identical config already waiting or simulating) and
        ``batch_width`` (distinct configs in the dispatch that produced
        it; 0 for memo answers).
        """
        self.metrics.counter("serve.queries").inc()
        stats = self.store.get(query.workload, query.factor, query.fingerprint)
        if stats is not None:
            self.metrics.counter("serve.memo.hits").inc()
            return stats, {"memo": True, "coalesced": False, "batch_width": 0}
        self.metrics.counter("serve.memo.misses").inc()

        key = (*query.group, query.fingerprint)
        waiters = self._in_flight.get(key)
        coalesced = waiters is not None
        if coalesced:
            self.metrics.counter("serve.coalesced").inc()
        else:
            waiters = self._in_flight[key] = []
            group = self._waiting.setdefault(query.group, {})
            group[query.fingerprint] = query.config
            self._fill_slots()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        waiters.append(future)

        with tracing.span(
            "batch_wait", "serve",
            workload=query.workload, factor=query.factor,
        ):
            stats, width = await future
        return stats, {
            "memo": False, "coalesced": coalesced, "batch_width": width,
        }

    # ----------------------------------------------------------- dispatch

    def _fill_slots(self) -> None:
        """Hand waiting groups, oldest first, to the free slots."""
        while self._free_slots and self._waiting:
            group_key = next(iter(self._waiting))
            configs = self._waiting.pop(group_key)
            self._free_slots -= 1
            task = asyncio.get_running_loop().create_task(
                self._dispatch(group_key, configs)
            )
            self._dispatches.add(task)
            task.add_done_callback(self._release_slot)

    def _release_slot(self, task: asyncio.Task) -> None:
        self._dispatches.discard(task)
        self._free_slots += 1
        self._fill_slots()

    async def _dispatch(
        self,
        group_key: tuple[str, float],
        configs: dict[str, MachineConfig],
    ) -> None:
        workload, factor = group_key
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
                    _simulate_group, workload, factor, list(configs.values()),
                )
            with tracing.span(
                "store", "serve", workload=workload, width=width
            ):
                for fingerprint, stats in zip(configs, stats_list):
                    self.store.put(workload, factor, fingerprint, stats)
        except BaseException as error:
            # Every attached query gets the error, and the configs leave
            # the in-flight map, so the next query simulates them again.
            for fingerprint in configs:
                for future in self._in_flight.pop((*group_key, fingerprint)):
                    if not future.done():
                        future.set_exception(error)
            if not isinstance(error, Exception):
                raise  # cancellation or interpreter exit
            return
        for fingerprint, stats in zip(configs, stats_list):
            for future in self._in_flight.pop((*group_key, fingerprint)):
                if not future.done():
                    future.set_result((stats, width))

    # -------------------------------------------------------------- drain

    async def drain(self) -> None:
        """Dispatch every waiting group and wait for every dispatch."""
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches), return_exceptions=True)

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True)
