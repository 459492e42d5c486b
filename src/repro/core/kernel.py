"""Simulation kernels: one trace pass, N machine configurations.

The paper's sweeps time the *same* dynamic trace on dozens of
:class:`~repro.core.config.MachineConfig` points (Figure 8 alone has
~30).  :mod:`repro.core.processor` walks the trace once per config; this
module puts that hot loop behind a narrow kernel boundary and adds a
config-batched implementation that advances a whole vector of machines
per trace record:

* :class:`ScalarKernel` — the oracle.  Wraps
  :meth:`AuroraProcessor.run <repro.core.processor.AuroraProcessor.run>`
  unchanged, one full trace walk per configuration.
* :class:`BatchedKernel` — one trace walk for all configurations.  The
  lockstep per-record "spine" (fetch floor, scoreboard, reorder-buffer
  and retire-window floors, issue-time maximum, stall attribution,
  pairing) is held as ``(n_configs,)`` / ``(66, n_configs)`` numpy
  arrays; the I-cache tag state and the MSHR files are vectorized across
  the config axis; the remaining per-config divergent events (D-side
  memory timing, FP dispatch) escape to exactly the scalar model's code
  against real per-config structure objects (write cache, stream-buffer
  pool, BIU, FPU, D-cache port), so
  :class:`~repro.core.stats.SimStats` are byte-identical per config by
  construction.

Kernel selection: ``REPRO_SIM_KERNEL`` (``scalar`` | ``batched``,
validated eagerly by :func:`repro.robustness.validation
.validate_environment`) or the ``--kernel`` flag on ``aurora-sim
experiments`` / ``run_all`` / ``perf``.  :func:`simulate_many` is the
grouped entry point the sweep layer calls: it prepares and validates the
trace once (not once per config), answers configs the trace has already
been timed on from results stored on it, and dispatches the rest to the
selected kernel in one ``simulate_batch`` span.

The batched kernel does **not** emit per-structure telemetry events (the
event streams would interleave across configs); passing an active
:class:`~repro.telemetry.events.EventBus` raises a :class:`KernelError`
naming the ``telemetry`` field instead of silently dropping events.
State layout and when batching wins are documented in
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os
import threading
from typing import Mapping, Sequence

import numpy as np

from repro.core.biu import BusInterfaceUnit
from repro.core.caches import DirectMappedCache, PipelinedCachePort
from repro.core.config import FPUConfig, MachineConfig
from repro.core.fpu import DecoupledFPU
from repro.core.prefetch import SplitStreamBufferPool, StreamBufferPool
from repro.core.processor import (
    FPU_TRANSFER,
    INFLIGHT_BOUND,
    WC_FORWARD_LATENCY,
    AuroraProcessor,
    SimulationResult,
    _C_FPU,
    _C_ICACHE,
    _C_LOAD,
    _C_LSU,
    _C_PAIRING,
    _C_ROB_FULL,
    _STALL_KINDS,
)
from repro.core.stats import SimStats
from repro.core.writecache import WriteCache
from repro.func.prepared import as_prepared
from repro.isa.instructions import Kind

_K_ALU = int(Kind.ALU)
_K_LOAD = int(Kind.LOAD)
_K_STORE = int(Kind.STORE)
_K_BRANCH = int(Kind.BRANCH)
_K_JUMP = int(Kind.JUMP)
_K_NOP = int(Kind.NOP)
_K_FP_LOAD = int(Kind.FP_LOAD)
_K_FP_STORE = int(Kind.FP_STORE)
_K_FP_MOVE = int(Kind.FP_MOVE)
_K_HALT = int(Kind.HALT)
_FP_ARITH_KINDS = frozenset(
    int(kind) for kind in (Kind.FP_ADD, Kind.FP_MUL, Kind.FP_DIV, Kind.FP_CVT)
)

#: Environment switch naming the kernel the sweep layer should use.
ENV_KERNEL = "REPRO_SIM_KERNEL"
#: Valid kernel names, in (default, alternative) order.
KERNEL_NAMES = ("scalar", "batched")

#: Padding for unused vector-MSHR slots: effectively +infinity, far above
#: any reachable cycle count yet safely below int64 overflow under max().
_MSHR_PAD = 1 << 60

#: Process-wide batched-kernel accounting (mirrors prepare_snapshot()):
#: the experiment runner ships the deltas home through the pool envelope
#: and publishes them as ``runner.batched_configs``.
_BATCH_CALLS = 0
_BATCH_CONFIGS = 0


#: Finished results :func:`simulate_many` keeps per prepared trace.  A
#: paper sweep stores at most 41 per trace; the cap bounds a
#: long-running ``serve``.
RESULT_CAP = 128

#: Process-wide count of configs :func:`simulate_many` answered without
#: simulating (stored results and in-call duplicates), published by the
#: experiment runner as ``runner.sim_reused``.
_SIM_REUSED = 0
#: Guards every trace's ``sim_results`` and ``_SIM_REUSED``: registry
#: traces are shared, and callers may simulate from several threads.
_STORE_LOCK = threading.Lock()

#: The FPUConfig fields only one functional unit's records observe: a
#: trace with no records of that kind times identically whatever they
#: hold, so the reuse store keys such configs on the defaults instead.
_UNIT_FIELDS = (
    (int(Kind.FP_ADD), ("add_latency", "add_pipelined")),
    (int(Kind.FP_MUL), ("mul_latency", "mul_pipelined")),
    (int(Kind.FP_DIV), ("div_latency",)),
    (int(Kind.FP_CVT), ("cvt_latency", "cvt_pipelined")),
)
_FPU_DEFAULTS = FPUConfig()


def batch_snapshot() -> tuple[int, int]:
    """(batched kernel calls, configs simulated through them) so far."""
    return (_BATCH_CALLS, _BATCH_CONFIGS)


def reuse_snapshot() -> int:
    """Configs :func:`simulate_many` has answered without simulating."""
    return _SIM_REUSED


class KernelError(ValueError):
    """A kernel selection or kernel argument is unusable; names the field."""


def kernel_mode(environ: Mapping[str, str] | None = None) -> str:
    """The kernel named by ``REPRO_SIM_KERNEL`` (default ``scalar``).

    Raises :class:`KernelError` naming the variable for any other value.
    """
    env = os.environ if environ is None else environ
    value = env.get(ENV_KERNEL, "")
    if not value:
        return KERNEL_NAMES[0]
    lowered = value.lower()
    if lowered not in KERNEL_NAMES:
        raise KernelError(
            f"{ENV_KERNEL}={value!r}: expected "
            + " or ".join(repr(name) for name in KERNEL_NAMES)
        )
    return lowered


class ScalarKernel:
    """The oracle kernel: one :class:`AuroraProcessor` run per config."""

    name = "scalar"

    def simulate(
        self, trace, config: MachineConfig, *, policy=None, telemetry=None
    ) -> SimulationResult:
        return AuroraProcessor(config, policy, telemetry=telemetry).run(trace)

    def simulate_many(
        self,
        trace,
        configs: Sequence[MachineConfig],
        *,
        policy=None,
        telemetry=None,
    ) -> list[SimulationResult]:
        return [
            AuroraProcessor(config, policy, telemetry=telemetry).run(trace)
            for config in configs
        ]


class BatchedKernel:
    """Advance a whole vector of configs per trace record (module docs)."""

    name = "batched"

    def simulate(
        self, trace, config: MachineConfig, *, policy=None, telemetry=None
    ) -> SimulationResult:
        return self.simulate_many(
            trace, [config], policy=policy, telemetry=telemetry
        )[0]

    def simulate_many(
        self,
        trace,
        configs: Sequence[MachineConfig],
        *,
        policy=None,
        telemetry=None,
    ) -> list[SimulationResult]:
        global _BATCH_CALLS, _BATCH_CONFIGS
        # A sink-less EventBus is falsy and means "telemetry off" (the
        # scalar loop normalises it to None the same way).
        if telemetry:
            raise KernelError(
                "telemetry: the batched kernel does not emit per-structure "
                "events (streams would interleave across configs); run with "
                "kernel='scalar' (REPRO_SIM_KERNEL=scalar / --kernel scalar) "
                "to capture telemetry"
            )
        trace = as_prepared(trace)
        configs = list(configs)
        for config in configs:
            config.validate()
        _BATCH_CALLS += 1
        _BATCH_CONFIGS += len(configs)
        if not configs:
            return []
        # Partition by line size: the spine shares per-record cache-line
        # indices, which assume one line_bytes across the batch.  Every
        # paper model uses 32-byte lines, so this is almost always one
        # partition.
        groups: dict[int, list[int]] = {}
        for position, config in enumerate(configs):
            groups.setdefault(config.line_bytes, []).append(position)
        results: list[SimulationResult | None] = [None] * len(configs)
        for positions in groups.values():
            batch_results = _simulate_batch(
                trace, [configs[i] for i in positions], policy
            )
            for position, result in zip(positions, batch_results):
                results[position] = result
        return results  # type: ignore[return-value]


_SCALAR_KERNEL = ScalarKernel()
_BATCHED_KERNEL = BatchedKernel()
_KERNELS = {"scalar": _SCALAR_KERNEL, "batched": _BATCHED_KERNEL}


def get_kernel(name: str | None = None):
    """Resolve a kernel by name (``None`` → ``REPRO_SIM_KERNEL``)."""
    if name is None:
        name = kernel_mode()
    kernel = _KERNELS.get(str(name).lower())
    if kernel is None:
        raise KernelError(
            f"kernel: unknown kernel {name!r}; expected "
            + " or ".join(repr(known) for known in KERNEL_NAMES)
        )
    return kernel


def simulate_many(
    trace,
    configs: Sequence[MachineConfig],
    *,
    kernel: "str | ScalarKernel | BatchedKernel | None" = None,
    policy=None,
    telemetry=None,
) -> list[SimulationResult]:
    """Time one trace on many configs; results align with ``configs``.

    The grouped twin of :func:`repro.core.processor.simulate_trace`:
    prepares and validates the trace **once** (not once per
    configuration — the prepared-trace memo makes re-validation free)
    and dispatches to ``kernel`` (a kernel object, a name, or ``None``
    for the ``REPRO_SIM_KERNEL`` selection).  Every kernel yields
    byte-identical per-config :class:`~repro.core.stats.SimStats` — the
    scalar kernel is the oracle the batched one is tested against.

    Each (trace, config) is simulated once: finished stats are kept on
    the prepared trace (``sim_results``), keyed by ``(kernel name,
    config, policy)`` and capped at :data:`RESULT_CAP` entries, oldest
    evicted first.  The key's config has the FPU fields of units the
    trace has no records for at their defaults (``_UNIT_FIELDS``), so
    configs that differ only there share one simulation.  A call
    simulates only the configs not yet stored, deduplicated, in one
    kernel call recorded as a ``simulate_batch`` span (``configs``
    simulated, ``reused`` answered without simulating); every result
    holds the caller's config and its own copy of the stats.  An
    active ``telemetry`` bus simulates every config, so each emits its
    events, and stores the stats for later calls.
    """
    from repro.robustness.validation import validate_trace

    if isinstance(kernel, (str, type(None))):
        kernel = get_kernel(kernel)
    trace = as_prepared(trace)
    validate_trace(trace)
    configs = list(configs)
    store = trace.sim_results
    unobserved = _unobserved_fields(trace)
    keys = [
        (kernel.name, _observable(config, unobserved), policy)
        for config in configs
    ]
    if telemetry:
        results = _run_kernel(kernel, trace, configs, policy, telemetry, 0)
        _remember(
            store, {key: r.stats.copy() for key, r in zip(keys, results)}, 0
        )
        return results
    known: dict = {}
    pending: dict = {}
    with _STORE_LOCK:
        for key, config in zip(keys, configs):
            if key not in known and key not in pending:
                stats = store.get(key)
                if stats is None:
                    pending[key] = config
                else:
                    known[key] = stats
    reused = len(configs) - len(pending)
    fresh: dict = {}
    if pending:
        simulated = _run_kernel(
            kernel, trace, list(pending.values()), policy, None, reused
        )
        fresh = {key: r.stats for key, r in zip(pending, simulated)}
    _remember(store, fresh, reused)
    known.update(fresh)
    # Stored stats are never handed out, so copying needs no lock.
    return [
        SimulationResult(config=config, stats=known[key].copy())
        for key, config in zip(keys, configs)
    ]


def _unobserved_fields(trace) -> tuple[str, ...]:
    """The FPU fields ``trace`` cannot observe (see ``_UNIT_FIELDS``)."""
    counts = trace.kind_counts()
    return tuple(
        name
        for kind, names in _UNIT_FIELDS
        if not counts[kind]
        for name in names
    )


def _observable(config: MachineConfig, unobserved: tuple[str, ...]):
    """``config`` with the ``unobserved`` FPU fields at their defaults:
    two configs a trace cannot tell apart map to one store key."""
    if not unobserved:
        return config
    fpu = config.fpu
    masked = fpu.with_(
        **{name: getattr(_FPU_DEFAULTS, name) for name in unobserved}
    )
    return config if masked == fpu else config.with_(fpu=masked)


def _remember(store: dict, fresh: dict, reused: int) -> None:
    """Add finished stats to a trace's store, evicting oldest past the
    cap, and count ``reused`` configs answered without simulating."""
    global _SIM_REUSED
    with _STORE_LOCK:
        _SIM_REUSED += reused
        store.update(fresh)
        while len(store) > RESULT_CAP:
            del store[next(iter(store))]


def _run_kernel(kernel, trace, configs, policy, telemetry, reused):
    """One kernel call, inside a ``simulate_batch`` span when tracing."""
    from repro.telemetry import tracing

    tracer = tracing.current_tracer()
    if tracer is None:
        return kernel.simulate_many(
            trace, configs, policy=policy, telemetry=telemetry
        )
    with tracer.span(
        "simulate_batch",
        "simulate",
        records=len(trace),
        configs=len(configs),
        reused=reused,
        kernel=kernel.name,
    ):
        return kernel.simulate_many(
            trace, configs, policy=policy, telemetry=telemetry
        )


# --------------------------------------------------------------------------
# The batched timing loop.
# --------------------------------------------------------------------------


def _guard_error(
    reason: str,
    message: str,
    *,
    cycle: int,
    index: int,
    config: MachineConfig,
    stall: np.ndarray,
    position: int,
):
    from repro.robustness.guards import SimulationError

    snapshot = {
        kind: int(stall[row, position])
        for row, kind in enumerate(_STALL_KINDS)
    }
    return SimulationError(
        reason,
        message,
        cycle=cycle,
        instruction_index=index,
        config=config,
        stall_snapshot=snapshot,
    )


def _simulate_batch(trace, configs, policy) -> list[SimulationResult]:
    """Batched timing loop for configs sharing one ``line_bytes``.

    Correctness discipline: every per-record quantity here is either the
    vectorization of the scalar loop's arithmetic (same expressions over
    ``(n,)`` arrays) or the scalar loop's own code run per config against
    that config's real structure objects.  Comments call out the few
    places where the equivalence is non-obvious.
    """
    from repro.robustness.guards import GuardViolation, RobustnessPolicy

    if policy is None:
        policy = RobustnessPolicy()

    n = len(configs)
    line_shift = configs[0].line_bytes.bit_length() - 1

    # ------------------------------------------- per-config structures
    # Real scalar-model objects for the divergent escape paths.
    bius = [
        BusInterfaceUnit(latency=c.mem_latency, occupancy=c.bus_occupancy)
        for c in configs
    ]
    dcaches = [
        DirectMappedCache(c.dcache_bytes, c.line_bytes) for c in configs
    ]
    dports = [
        PipelinedCachePort(access_latency=c.dcache_latency) for c in configs
    ]
    pools = [
        (SplitStreamBufferPool if c.split_prefetch_pool else StreamBufferPool)(
            c.prefetch_buffers, c.prefetch_line_depth, biu,
            enabled=c.prefetch_enabled,
        )
        for c, biu in zip(configs, bius)
    ]
    wcs = [
        WriteCache(
            c.writecache_lines, c.line_bytes, biu,
            page_bytes=c.page_bytes, write_validation=c.write_validation,
        )
        for c, biu in zip(configs, bius)
    ]
    fpus = [DecoupledFPU(c.fpu) for c in configs]
    inflights: list[dict[int, int]] = [{} for _ in configs]
    dlats = [c.dcache_latency for c in configs]
    precise = [c.fpu_precise_exceptions for c in configs]

    # ---------------------------------------------------- vector constants
    issue_width = np.array([c.issue_width for c in configs], dtype=np.int64)
    retire_width = np.array([c.retire_width for c in configs], dtype=np.int64)
    rob_capacity = np.array([c.rob_entries for c in configs], dtype=np.int64)
    dlat_vec = np.array(dlats, dtype=np.int64)
    dlat1_vec = dlat_vec + 1
    dual_mask = issue_width == 2
    folding = np.array([c.branch_folding for c in configs], dtype=bool)
    nonfolding = ~folding
    any_nonfolding = bool(nonfolding.any())
    col = np.arange(n, dtype=np.int64)

    # Vectorized MSHR files: busy-until timestamps as one (n, E) matrix,
    # unused slots padded to +inf so argmin never selects them.  The
    # scalar MSHRFile's allocations/stall_cycles counters never reach
    # SimStats, so only the timing state is kept.
    mshr_entries = [c.mshr_entries for c in configs]
    mshr_width = max(mshr_entries)
    mshr_free = np.zeros((n, mshr_width), dtype=np.int64)
    for i, entries in enumerate(mshr_entries):
        mshr_free[i, entries:] = _MSHR_PAD
    mshr_min = mshr_free.min(axis=1)

    # Shared retire ring: slot (j & mask) holds record j's retire time.
    # Reading at (index - rob_capacity) gives the reorder-buffer head
    # floor, at (index - retire_width) the retire-window floor; unwritten
    # slots are 0, as in the scalar model's own retire ring.  The
    # ring is strictly larger than every capacity, so a slot is never
    # overwritten before its last read.  Index tables are precomputed per
    # (record index mod ring size) as flat offsets for np.take.
    ring_size = 1 << int(
        max(int(rob_capacity.max()), int(retire_width.max()))
    ).bit_length()
    ring_mask = ring_size - 1
    ring = np.zeros((ring_size, n), dtype=np.int64)
    ring_flat = ring.reshape(-1)
    mem_ring = np.zeros((ring_size, n), dtype=bool)
    mem_flat = mem_ring.reshape(-1)
    slots = np.arange(ring_size, dtype=np.int64)[:, None]
    rob_idx = ((slots - rob_capacity[None, :]) & ring_mask) * n + col
    win_idx = ((slots - retire_width[None, :]) & ring_mask) * n + col
    # One gather per record: reorder-buffer head and retire-window floors
    # read side by side through a fused (ring_size, 2n) index table.
    both_idx = np.concatenate([rob_idx, win_idx], axis=1)

    # Vectorized I-cache: per-config direct-mapped tag/ready arrays laid
    # out back to back in two flat arrays (tags hold full line numbers,
    # -1 = invalid — exactly DirectMappedCache's layout).
    icache_lines = [c.icache_lines for c in configs]
    ioffsets = np.cumsum([0] + icache_lines[:-1], dtype=np.int64)
    imask = np.array(icache_lines, dtype=np.int64) - 1
    itags = np.full(sum(icache_lines), -1, dtype=np.int64)
    iready = np.zeros(sum(icache_lines), dtype=np.int64)
    imisses = [0] * n

    # ------------------------------------------------------- vector state
    reg_ready = np.zeros((66, n), dtype=np.int64)
    reg_from_load = np.zeros((66, n), dtype=bool)
    last_retire = np.zeros(n, dtype=np.int64)
    last_issue = np.full(n, -1, dtype=np.int64)
    slots_used = issue_width.copy()  # force the first instruction to cycle 0
    stall = np.zeros((len(_STALL_KINDS), n), dtype=np.int64)
    dual_pairs = np.zeros(n, dtype=np.int64)

    # Maintained hazard floors.  The LSU floor only moves when a memory
    # escape touches the MSHRs/port, the FPU floors only when an FP
    # escape touches the FPU — so they are rebuilt once per escape
    # instead of re-derived per record (values match the scalar loop's
    # fresh reads by induction).
    next_slot = np.zeros(n, dtype=np.int64)
    t_lsu = np.maximum(mshr_min, next_slot) - 1
    t_fpu_disp = (
        np.fromiter((f.dispatch_floor() for f in fpus), np.int64, n)
        - FPU_TRANSFER
    )
    t_fpu_cond = np.fromiter((f.cond_ready for f in fpus), np.int64, n) + 1

    # Reusable per-record buffers (the spine allocates nothing per ALU
    # record); issue/retire rotate through spares so "last_*" stays live.
    floor = np.empty(n, dtype=np.int64)
    ge_buf = np.empty(n, dtype=bool)
    amount = np.empty(n, dtype=np.int64)
    operand_buf = np.empty(n, dtype=np.int64)
    both_buf = np.empty(2 * n, dtype=np.int64)
    trob = both_buf[:n]
    twin = both_buf[n:]
    complete_buf = np.empty(n, dtype=np.int64)
    tmp = np.empty(n, dtype=np.int64)
    gap = np.empty(n, dtype=np.int64)
    worst_gap_vec = np.zeros(n, dtype=np.int64)
    same = np.empty(n, dtype=bool)
    cause = np.empty(n, dtype=np.int64)
    spare_issue = np.empty(n, dtype=np.int64)
    spare_retire = np.empty(n, dtype=np.int64)
    false_row = np.zeros(n, dtype=bool)
    ones_row = np.ones(n, dtype=np.int64)

    prev_pc = -8
    prev_was_mem = False
    redirects: dict[int, np.ndarray] = {}

    # Watchdog state (vectorized): per-record forward-progress/overflow
    # checks plus the periodic structure-occupancy sweep, at the same
    # cadence and bounds as repro.robustness.guards.Watchdog.
    guards_on = policy.enabled
    max_stall_cycles = policy.max_stall_cycles
    cycle_limit = policy.cycle_limit
    countdown = policy.check_period
    cnz = np.count_nonzero  # far cheaper than ndarray.any() on small rows
    mem_dirty = bytearray(ring_size)  # ring slots holding a True mem flag

    # Vectorized PipelinedCachePort.start_access: ``next_slot`` already
    # mirrors every port's ``_next_slot``; ``port_maxend`` mirrors the
    # newest fill-window end (refreshed after each occupy_for_fill).
    # When every config's start lands at or past its newest window end,
    # no window walk can move it (see _skip_fill_windows) — the whole
    # record reduces to three array ops plus a sync of the real ports.
    req_buf = np.empty(n, dtype=np.int64)
    starts_buf = np.empty(n, dtype=np.int64)
    port_maxend = np.fromiter((p._max_end for p in dports), np.int64, n)

    def port_start_access():
        np.add(issue, 1, out=req_buf)
        np.maximum(req_buf, next_slot, out=starts_buf)
        np.less(starts_buf, port_maxend, out=ge_buf)
        if cnz(ge_buf):
            # Some config may land inside a pending fill window: defer
            # to the real ports (they keep themselves in sync).
            starts_buf[:] = [
                dport.start_access(issue_i + 1)
                for dport, issue_i in zip(dports, issue_list)
            ]
        else:
            for dport, start in zip(dports, starts_buf.tolist()):
                dport._next_slot = start + 1
        np.add(starts_buf, 1, out=next_slot)
        return starts_buf

    def check_guards(index: int) -> None:
        # Deferred watchdog verdicts: the per-record loop only folds the
        # retire gap into ``worst_gap_vec``; the expensive reductions and
        # error construction run once per check period (and once after
        # the loop), so a wedge is still always caught — at period
        # granularity rather than on the offending record.
        worst_gap = int(worst_gap_vec.max())
        if worst_gap > max_stall_cycles:
            position = int(np.argmax(worst_gap_vec))
            raise _guard_error(
                "forward-progress",
                f"no instruction retired for {worst_gap} cycles "
                f"(bound {max_stall_cycles}); pipeline wedged",
                cycle=int(last_retire[position]),
                index=index,
                config=configs[position],
                stall=stall,
                position=position,
            )
        hi = int(last_retire.max())
        if hi > cycle_limit:
            position = int(np.argmax(last_retire))
            raise _guard_error(
                "cycle-overflow",
                f"cycle count {hi} exceeds limit {cycle_limit}",
                cycle=int(last_retire[position]),
                index=index,
                config=configs[position],
                stall=stall,
                position=position,
            )

    imemo_line = -1
    imemo_fetch: np.ndarray | None = None

    for index, (
        pc, kind, dst, s1, s2, addr, is_mem, is_fp_dispatch,
        iline, dline,
    ) in enumerate(trace.rows(line_shift)):

        # ---------------------------------------------------- fetch side
        # Consecutive records on one I-line are memoised: a hit leaves the
        # cache untouched, and fills only ever happen while computing the
        # *current* line, so the memo is valid until the line changes.
        if iline == imemo_line:
            t_fetch = imemo_fetch
        else:
            iindex = ioffsets + (iline & imask)
            t_fetch = iready.take(iindex)
            hit = itags.take(iindex) == iline
            if cnz(hit) != n:
                request_vec = np.maximum(last_issue, 0)
                for i in np.flatnonzero(~hit):
                    request_time = int(request_vec[i])
                    pool = pools[i]
                    arrival = pool.lookup(iline, request_time, "I")
                    if arrival is None:
                        pool.allocate(iline, request_time, stream="I")
                        arrival = bius[i].request(request_time, "ifetch")
                    elif arrival < request_time:
                        arrival = request_time
                    fetch_at = arrival + 1
                    slot = iindex[i]
                    itags[slot] = iline
                    iready[slot] = fetch_at
                    t_fetch[i] = fetch_at
                    imisses[i] += 1
            imemo_line = iline
            imemo_fetch = t_fetch
        if redirects:
            redirect_floor = redirects.pop(index, None)
            if redirect_floor is not None:
                # New array: the memoised t_fetch must stay unmerged.
                t_fetch = np.maximum(t_fetch, redirect_floor)

        # ------------------------------------------------ in-order floor
        np.greater_equal(slots_used, issue_width, out=ge_buf)
        np.add(last_issue, ge_buf, out=floor)

        # ------------------------------------------- issue = max(floors)
        issue = spare_issue
        np.maximum(floor, t_fetch, out=issue)
        s1_ready = s2_ready = t_operand = None
        if s1 >= 0:
            s1_ready = reg_ready[s1]
            if s2 >= 0:
                s2_ready = reg_ready[s2]
                np.maximum(s1_ready, s2_ready, out=operand_buf)
                t_operand = operand_buf
            else:
                t_operand = s1_ready
        elif s2 >= 0:
            s2_ready = reg_ready[s2]
            t_operand = s2_ready
        if t_operand is not None:
            np.maximum(issue, t_operand, out=issue)
        imod = index & ring_mask
        rob_row = rob_idx[imod]
        # The ring is only written at end of record, so the retire-window
        # floor can be gathered here alongside the reorder-buffer head.
        ring_flat.take(both_idx[imod], out=both_buf)
        np.maximum(issue, trob, out=issue)
        if is_mem:
            np.maximum(issue, t_lsu, out=issue)
        if is_fp_dispatch:
            np.maximum(issue, t_fpu_disp, out=issue)
        elif kind == _K_BRANCH and s1 < 0 and s2 < 0:
            # bc1t/bc1f: wait for the FP condition flag from the FPU.
            np.maximum(issue, t_fpu_cond, out=issue)

        # --------------------------------------------- stall attribution
        np.subtract(issue, floor, out=amount)
        if cnz(amount):
            # Reverse-priority masked writes reproduce the scalar elif
            # chain: fetch > operand > reorder-buffer > LSU > FPU.
            cause.fill(_C_FPU)
            if is_mem:
                cause[issue == t_lsu] = _C_LSU
            rob_bound = issue == trob
            if cnz(rob_bound):
                head_is_mem = mem_flat.take(rob_row)
                cause[rob_bound & head_is_mem] = _C_LSU
                cause[rob_bound & ~head_is_mem] = _C_ROB_FULL
            if t_operand is not None:
                operand_bound = issue == t_operand
                if cnz(operand_bound):
                    if s1_ready is None:
                        operand_from_load = reg_from_load[s2]
                    elif s2_ready is None:
                        operand_from_load = reg_from_load[s1]
                    else:
                        operand_from_load = np.where(
                            s2_ready > s1_ready,
                            reg_from_load[s2],
                            reg_from_load[s1],
                        )
                    cause[operand_bound & operand_from_load] = _C_LOAD
                    cause[operand_bound & ~operand_from_load] = _C_PAIRING
            cause[issue == t_fetch] = _C_ICACHE
            delayed = amount > 0
            stall[cause[delayed], col[delayed]] += amount[delayed]

        # ------------------------------------------------------ pairing
        np.equal(issue, last_issue, out=same)
        if cnz(same):
            if (
                pc == prev_pc + 4
                and (prev_pc & 7) == 0
                and not (is_mem and prev_was_mem)
            ):
                pairable = same & dual_mask & (slots_used == 1)
            else:
                pairable = false_row
            bump = same & ~pairable
            if cnz(bump):
                issue += bump
                stall[_C_PAIRING] += bump
            dual_pairs += pairable
            slots_used = np.where(pairable, slots_used + 1, 1)
        else:
            slots_used = ones_row
        spare_issue = last_issue
        last_issue = issue
        prev_pc = pc
        prev_was_mem = is_mem

        # ------------------------------------------------------ execute
        if kind == _K_ALU or kind == _K_NOP or kind == _K_HALT:
            np.add(issue, 1, out=complete_buf)
            complete = complete_buf
            if dst >= 0:
                reg_ready[dst] = complete
                reg_from_load[dst] = False

        elif kind == _K_BRANCH or kind == _K_JUMP:
            np.add(issue, 1, out=complete_buf)
            complete = complete_buf
            if dst >= 0:  # jal/jalr write the link register
                reg_ready[dst] = complete
                reg_from_load[dst] = False
            if addr != 0:
                register_jump = kind == _K_JUMP and s1 >= 0
                if register_jump or any_nonfolding:
                    if register_jump:
                        floors = issue + 3
                    else:
                        floors = np.where(nonfolding, issue + 3, 0)
                    target = index + 2
                    pending = redirects.get(target)
                    if pending is None:
                        redirects[target] = floors
                    else:
                        redirects[target] = np.maximum(pending, floors)

        elif is_mem or is_fp_dispatch:
            # Divergent per-config events: run the scalar model's exact
            # code against each config's own structures.  Memory kinds
            # stage their MSHR traffic through the vectorized file:
            # cache-port accesses first (per config), then one vector
            # allocate, then the per-config D-side walk, then one vector
            # release — per-machine operation order is preserved because
            # the interleaved structures are independent.
            issue_list = issue.tolist()
            if kind == _K_LOAD or kind == _K_FP_LOAD:
                starts = port_start_access()
                # Vector MSHR allocate: free_at[argmin] is the row min.
                slot = mshr_free.argmin(axis=1)
                grant = np.maximum(starts, mshr_min)
                access_list = grant.tolist()
                ready_list = []
                for i in range(n):
                    access = access_list[i]
                    dcache = dcaches[i]
                    if wcs[i].load_lookup(addr, access):
                        data_ready = access + WC_FORWARD_LATENCY
                    elif dcache.lookup(addr):
                        ready_at = dcache.ready_time(addr)
                        data_ready = max(access, ready_at) + dlats[i]
                    else:
                        inflight = inflights[i]
                        arrival = inflight.get(dline)
                        if arrival is None:
                            pool = pools[i]
                            parr = pool.lookup(dline, access, "D")
                            if parr is None:
                                pool.allocate(dline, access, stream="D")
                                arrival = bius[i].request(access, "dread")
                            else:
                                arrival = parr if parr > access else access
                            fill_done = dports[i].occupy_for_fill(arrival)
                            port_maxend[i] = dports[i]._max_end
                            dcache.fill(addr, fill_done)
                            inflight[dline] = arrival
                            if len(inflight) > INFLIGHT_BOUND:
                                inflights[i] = {
                                    fill_line: fill_at
                                    for fill_line, fill_at in inflight.items()
                                    if fill_at > access
                                }
                        data_ready = arrival + 1
                    ready_list.append(data_ready)
                if kind == _K_LOAD:
                    complete = np.array(ready_list, dtype=np.int64)
                    mshr_free[col, slot] = np.maximum(grant, complete)
                    if dst >= 0:
                        reg_ready[dst] = complete
                        reg_from_load[dst] = True
                else:
                    release_list = []
                    for i in range(n):
                        fpu = fpus[i]
                        eff = max(ready_list[i], fpu.load_data_floor())
                        fpu.load(
                            dst - 32, eff + 1, issue_list[i] + FPU_TRANSFER
                        )
                        release_list.append(eff + 1)
                    release = np.array(release_list, dtype=np.int64)
                    mshr_free[col, slot] = np.maximum(grant, release)
                    complete = grant + 1
                mshr_min = mshr_free.min(axis=1)
                t_lsu = np.maximum(mshr_min, next_slot) - 1

            elif kind == _K_STORE or kind == _K_FP_STORE:
                starts = port_start_access()
                slot = mshr_free.argmin(axis=1)
                grant = np.maximum(starts, mshr_min)
                # set_release only ever raises; grant + latency >= grant.
                mshr_free[col, slot] = grant + dlat_vec
                access_list = grant.tolist()
                complete_list = []
                for i in range(n):
                    access = access_list[i]
                    dcache = dcaches[i]
                    if not dcache.lookup(addr):
                        dcache.fill(addr, access + dlats[i])
                    pools[i].drop_line(dline)
                    if kind == _K_FP_STORE:
                        data_out = fpus[i].store(
                            s2 - 32, issue_list[i] + FPU_TRANSFER
                        )
                        complete_list.append(
                            wcs[i].store(addr, access, fp_data_at=data_out)
                        )
                    else:
                        complete_list.append(wcs[i].store(addr, access))
                complete = np.array(complete_list, dtype=np.int64)
                mshr_min = mshr_free.min(axis=1)
                t_lsu = np.maximum(mshr_min, next_slot) - 1

            elif kind in _FP_ARITH_KINDS:
                fd = dst - 32 if dst >= 32 else -1
                fs = s1 - 32 if s1 >= 32 else -1
                ft = s2 - 32 if s2 >= 32 else -1
                complete_list = []
                for i in range(n):
                    issue_i = issue_list[i]
                    fp_done = fpus[i].arith(
                        kind, fd, fs, ft, issue_i + FPU_TRANSFER
                    )
                    complete_list.append(
                        fp_done if precise[i] else issue_i + 1
                    )
                complete = np.array(complete_list, dtype=np.int64)

            else:  # _K_FP_MOVE (no MSHR: port access only)
                starts_arr = port_start_access()
                if dst >= 32:  # mtc1
                    starts = starts_arr.tolist()
                    for i in range(n):
                        fpus[i].mtc1(
                            dst - 32, starts[i] + 1,
                            issue_list[i] + FPU_TRANSFER,
                        )
                    complete = starts_arr + 1
                else:  # mfc1
                    value_list = [
                        max(fpu.reg_read_floor(s1 - 32), issue_i) + 2
                        for fpu, issue_i in zip(fpus, issue_list)
                    ]
                    complete = np.array(value_list, dtype=np.int64)
                    if dst >= 0:
                        reg_ready[dst] = complete
                        reg_from_load[dst] = True
                t_lsu = np.maximum(mshr_min, next_slot) - 1

            if is_fp_dispatch:
                t_fpu_disp = (
                    np.fromiter(
                        (f.dispatch_floor() for f in fpus), np.int64, n
                    )
                    - FPU_TRANSFER
                )
                t_fpu_cond = (
                    np.fromiter((f.cond_ready for f in fpus), np.int64, n)
                    + 1
                )

        else:  # pragma: no cover - exhaustive over Kind
            np.add(issue, 1, out=complete_buf)
            complete = complete_buf

        # ------------------------------------------------------- retire
        retire = spare_retire
        np.maximum(complete, last_retire, out=retire)
        twin += 1  # gathered with the reorder-buffer head above
        np.maximum(retire, twin, out=retire)
        if guards_on:
            np.subtract(retire, last_retire, out=gap)
            np.maximum(worst_gap_vec, gap, out=worst_gap_vec)
        spare_retire = last_retire
        last_retire = retire
        ring[imod] = retire
        if is_mem:
            # Only a *missing* memory instruction at the reorder-buffer
            # head counts as an LSU wait (see the scalar loop).
            np.add(issue, dlat1_vec, out=tmp)
            np.greater(complete, tmp, out=mem_ring[imod])
            mem_dirty[imod] = 1
        elif mem_dirty[imod]:
            mem_ring[imod] = False
            mem_dirty[imod] = 0

        if guards_on:
            countdown -= 1
            if countdown <= 0:
                countdown = policy.check_period
                check_guards(index)
                for i in range(n):
                    # Vector-MSHR invariants (scalar assert_capacity's
                    # checks over this layout), then the real structures,
                    # in the scalar watchdog's watch order.
                    entries = mshr_entries[i]
                    row = mshr_free[i, :entries]
                    if int(row.min()) < 0:
                        bad = int(row.argmin())
                        raise _guard_error(
                            "occupancy",
                            f"MSHR entry {bad} has corrupt busy-until "
                            f"timestamp {int(row[bad])!r}",
                            cycle=int(retire[i]),
                            index=index,
                            config=configs[i],
                            stall=stall,
                            position=i,
                        )
                    for structure in (wcs[i], fpus[i]):
                        try:
                            structure.assert_capacity()
                        except GuardViolation as violation:
                            raise _guard_error(
                                "occupancy",
                                str(violation),
                                cycle=int(retire[i]),
                                index=index,
                                config=configs[i],
                                stall=stall,
                                position=i,
                            ) from violation

    # Final deferred watchdog verdict: a wedge or overflow in the tail
    # (after the last periodic check) must still raise, not drain.
    if guards_on and len(trace):
        check_guards(len(trace) - 1)

    # ------------------------------------------------------------ drain
    record_count = len(trace)
    results = []
    for i in range(n):
        end = int(last_retire[i])
        mshr_all_free = int(mshr_free[i, : mshr_entries[i]].max())
        end = max(end, fpus[i].last_event, mshr_all_free)
        end = max(end, wcs[i].flush(end))

        stats = SimStats()
        stats.instructions = record_count
        stats.cycles = end
        for row, kind_enum in enumerate(_STALL_KINDS):
            stats.stall_cycles[kind_enum] = int(stall[row, i])
        stats.icache_accesses = record_count
        stats.icache_hits = record_count - imisses[i]
        stats.dcache_accesses = dcaches[i].accesses
        stats.dcache_hits = dcaches[i].hits
        pool_stats = pools[i].stats
        stats.iprefetch_lookups = pool_stats.i_lookups
        stats.iprefetch_hits = pool_stats.i_hits
        stats.dprefetch_lookups = pool_stats.d_lookups
        stats.dprefetch_hits = pool_stats.d_hits
        wc_stats = wcs[i].stats
        stats.writecache_accesses = wc_stats.accesses
        stats.writecache_hits = wc_stats.hits
        stats.store_instructions = wc_stats.store_instructions
        stats.store_transactions = wc_stats.store_transactions
        (
            stats.loads,
            stats.stores,
            stats.branches,
            stats.taken_branches,
            stats.fp_instructions,
        ) = trace.class_counts()
        stats.dual_issued_pairs = int(dual_pairs[i])
        stats.fpu_instructions = fpus[i].instructions
        stats.fpu_busy_cycles = fpus[i].issue_stall_cycles
        results.append(SimulationResult(config=configs[i], stats=stats))
    return results
