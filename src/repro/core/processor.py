"""The Aurora III trace-driven timing model (the paper's core system).

The model walks a dynamic trace in program order and computes, for every
instruction, the cycle it issues and the cycle it completes, using
busy-until timestamps for every structure: the pre-decoded I-cache with
branch folding, the dual-issue constraints (aligned pairs, DI bit, one
memory op per cycle), the scoreboard (register-availability times with
forwarding), the reorder buffer (in-order retirement), the LSU with its
pipelined 3-cycle external D-cache and MSHR-governed non-blocking misses,
the coalescing write cache with write validation, the stream-buffer
prefetch pool, the split-transaction BIU, and the decoupled FPU behind
its instruction/load/store queues.

For an in-order machine this timestamp formulation is cycle-accurate with
respect to the structural and data hazards it models: every constraint is
a monotone "earliest time" and the issue time is their maximum, so no
event can be observed out of order.  It is roughly an order of magnitude
faster in Python than ticking each unit every cycle, which is what makes
sweeping the paper's full design space feasible.

Stall attribution follows Figure 6's four categories: when an
instruction's issue is delayed past the cycle in-order flow alone would
have allowed, the delay is charged to the binding constraint (I-cache,
Load, ROB-full, LSU), with pairing restrictions and FPU-decoupling waits
tracked separately.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.biu import BusInterfaceUnit
from repro.core.caches import DirectMappedCache, PipelinedCachePort
from repro.core.config import MachineConfig
from repro.core.fpu import DecoupledFPU
from repro.core.mshr import MSHRFile
from repro.core.prefetch import SplitStreamBufferPool, StreamBufferPool
from repro.core.stats import SimStats, StallKind
from repro.core.writecache import WriteCache
from repro.func.prepared import (
    OP_FCOND,
    OP_FCOND_TAKEN,
    OP_FP_ADD,
    OP_FP_CVT,
    OP_FP_LOAD,
    OP_FP_MOVE,
    OP_FP_STORE,
    OP_LOAD,
    OP_SIMPLE,
    OP_TAKEN,
    OP_TAKEN_REG,
    NO_SOURCE,
    PreparedTrace,
    as_prepared,
)
from repro.func.trace import TraceRecord
from repro.telemetry.events import EventBus, EventKind

#: Indexed by op code: whether a record redirects the front end, with
#: branch folding on (only register jumps) and off (every taken
#: transfer).
_REDIRECTS_FOLDED = tuple(op == OP_TAKEN_REG for op in range(16))
_REDIRECTS_UNFOLDED = tuple(
    op in (OP_TAKEN, OP_TAKEN_REG, OP_FCOND_TAKEN) for op in range(16)
)

#: Stall kinds in enum order; the timing loops count stalls by position.
_STALL_KINDS = tuple(StallKind)
_C_ICACHE = 0
_C_LOAD = 1
_C_ROB_FULL = 2
_C_LSU = 3
_C_PAIRING = 4
_C_FPU = 5

#: IPU -> FPU transfer latency in cycles (inter-chip queue insertion).
FPU_TRANSFER = 2
#: Extra cycle for a write-cache forward vs. a cache hit (on-chip buffer).
WC_FORWARD_LATENCY = 2
#: Entry-count bound on the in-flight D-line fill map; crossing it prunes
#: entries whose fill has already arrived (never genuinely pending ones).
INFLIGHT_BOUND = 4096
#: The capacities a run certifies in ``SimulationResult.unfilled``.
CAPACITY_FIELDS = (
    "mshr_entries",
    "fpu.instruction_queue",
    "fpu.load_queue",
    "fpu.rob_entries",
)


@dataclass
class SimulationResult:
    """Stats plus the configuration that produced them.

    ``unfilled`` names the :data:`CAPACITY_FIELDS` that never set a
    timing floor in the run: the same trace on a config
    that differs only in those fields, each at least as large, has
    identical stats (docs/PERFORMANCE.md, "Capacities a run never
    filled").  Empty when nothing is certified.
    """

    config: MachineConfig
    stats: SimStats
    unfilled: frozenset = frozenset()

    @property
    def cpi(self) -> float:
        """Cycles per instruction; NaN for an empty run.

        0/0 has no meaningful CPI — returning 0.0 (as the raw counter
        ratio used to) silently poisons averages, so an empty trace
        yields ``float("nan")``, which propagates loudly instead.
        """
        if not self.stats.instructions:
            return float("nan")
        return self.stats.cpi


class AuroraProcessor:
    """One configured Aurora III machine, ready to time traces.

    ``policy`` tunes the runtime invariant guards
    (:class:`repro.robustness.guards.RobustnessPolicy`), which are
    always on: the forward-progress watchdog, occupancy checks and
    cycle-overflow guard.  The default bounds no legitimate run reaches.

    ``telemetry`` optionally attaches an
    :class:`~repro.telemetry.events.EventBus`: every structure then emits
    cycle-stamped events at its stall/allocate/drain decision points (see
    docs/OBSERVABILITY.md).  ``None`` — or a bus with no sinks — keeps
    the default path: each probe site costs one falsy check and nothing
    is recorded.
    """

    def __init__(
        self,
        config: MachineConfig,
        policy: "RobustnessPolicy | None" = None,
        telemetry: "EventBus | None" = None,
    ) -> None:
        from repro.robustness.guards import RobustnessPolicy

        config.validate()
        self.config = config
        self.policy = policy if policy is not None else RobustnessPolicy()
        self.telemetry = telemetry

    def run(
        self, trace: "list[TraceRecord] | PreparedTrace"
    ) -> SimulationResult:
        """Time one trace; returns stats for the whole run.

        The loop walks a :class:`~repro.func.prepared.PreparedTrace`'s
        precomputed columns; a plain record list is record-checked and
        prepared first (:func:`~repro.func.prepared.as_prepared`).  Work
        that does not depend on timing — each record's op code and
        pairing flag, I-cache hit/miss, the write cache's decisions and
        the instruction-class counts — comes from the trace's per-trace
        memos instead of the loop, which keeps only timing arithmetic
        (docs/PERFORMANCE.md).

        Raises :class:`repro.robustness.guards.SimulationError` if a
        runtime invariant guard trips (wedged pipeline, structure
        over-occupancy, cycle-count overflow).
        """
        from repro.robustness.guards import Watchdog

        trace = as_prepared(trace)
        cfg = self.config
        stats = SimStats()
        biu = BusInterfaceUnit(latency=cfg.mem_latency, occupancy=cfg.bus_occupancy)
        dcache = DirectMappedCache(cfg.dcache_bytes, cfg.line_bytes)
        dport = PipelinedCachePort(access_latency=cfg.dcache_latency)
        mshr = MSHRFile(cfg.mshr_entries)
        pool_cls = SplitStreamBufferPool if cfg.split_prefetch_pool else StreamBufferPool
        pool = pool_cls(
            cfg.prefetch_buffers,
            cfg.prefetch_line_depth,
            biu,
            enabled=cfg.prefetch_enabled,
        )
        writecache = WriteCache(
            cfg.writecache_lines,
            cfg.line_bytes,
            biu,
            page_bytes=cfg.page_bytes,
            write_validation=cfg.write_validation,
        )
        fpu = DecoupledFPU(cfg.fpu)

        # Telemetry: one local "is there a bus" flag, so every probe site
        # below is a single truth test, and the live bus goes to each
        # structure's own probe points.  A sink-less bus leaves it off.
        tele = self.telemetry
        probing = bool(tele)
        if probing:
            biu.telemetry = tele
            pool.telemetry = tele
            writecache.telemetry = tele
            fpu.telemetry = tele

        # Watchdog: each record compares its retire time with
        # ``stall_bound`` and its index with ``poll_at``.  The bound is
        # never above min(previous retire + max_stall_cycles, cycle_limit)
        # (it is refreshed from a retire time no later than the previous
        # one), so a record that could trip the progress or overflow test
        # always takes the slow path, which runs the exact tests; the
        # structures are polled at indices check_period - 1,
        # 2 * check_period - 1, ...  The Watchdog object raises the errors
        # (after the stall counters are published to ``stats`` so its
        # snapshot is exact).
        policy = self.policy
        max_stall_cycles = policy.max_stall_cycles
        cycle_limit = policy.cycle_limit
        check_period = policy.check_period
        watchdog = Watchdog(cfg, policy, stall_source=stats.stall_cycles)
        watchdog.watch(mshr)
        watchdog.watch(writecache)
        watchdog.watch(fpu)
        stall_bound = min(max_stall_cycles, cycle_limit)
        poll_at = check_period - 1

        line_shift = cfg.line_bytes.bit_length() - 1
        page_shift = cfg.page_bytes.bit_length() - 1
        dcache_latency = cfg.dcache_latency
        # A memory record completing later than this after its issue is
        # still waiting on its data.
        hit_done = 1 + dcache_latency
        retire_width = cfg.retire_width
        rob_capacity = cfg.rob_entries
        redirecting = (
            _REDIRECTS_FOLDED if cfg.branch_folding else _REDIRECTS_UNFOLDED
        )
        precise = cfg.fpu_precise_exceptions

        # Per-record structure state the loop reads and updates in place
        # (the watchdog polls the same objects): MSHR busy-until times,
        # D-cache tags and fill-ready times, and the FPU instruction and
        # load queues for the IPU-side backpressure floors.  The loop
        # counts D-cache misses and write-cache load forwards; the access
        # and hit counts follow from the trace's load and store counts.
        mshr_free = mshr._free_at
        dtags = dcache._tags
        dready = dcache._ready
        dset_mask = dcache._index_mask
        fpu_iq = fpu._iq_releases
        fpu_lq = fpu._lq_releases
        # Whether the MSHR file, the FPU instruction queue or the FPU load
        # queue ever set a floor; each is set inside a branch the loop
        # takes anyway (the FPU tracks its reorder buffer itself).
        mshr_filled = iq_filled = lq_filled = False
        dmisses = forwards = 0
        # Write cache: hit, victim and page match come precomputed per
        # record (``wc`` below); each store only times its decision.
        time_store = writecache.time_store
        # Only telemetry events carry a record's pc.
        pcs = trace.field_column("pc") if probing else None

        # I-cache: set and hit/miss come precomputed per record (every
        # miss fills, so the tag state follows the address stream alone);
        # only each set's fill-arrival time is timing state.  A miss
        # reads its line index for the prefetch pool and the BIU.
        icache_lines = cfg.icache_lines
        iready = [0] * icache_lines
        ilines = trace.lines(line_shift)[0]

        # Scoreboard: availability time of each unified register, plus
        # whether the last writer was a load-class producer (for stall
        # attribution per Figure 6).  Slot NO_SOURCE, an absent source,
        # is never written.
        reg_ready = [0] * (NO_SOURCE + 1)
        reg_from_load = [False] * (NO_SOURCE + 1)

        # Reorder buffer: the retire times of the last rob_capacity
        # records, oldest (the head) first, seeded with zeros.
        rob = deque([0] * rob_capacity, maxlen=rob_capacity)
        rob_append = rob.append
        # Indices of the last rob_capacity memory records still waiting on
        # their data at completion: the ROB head, index - rob_capacity,
        # is one exactly when it is listed here.
        missing = deque(maxlen=rob_capacity)
        missing_append = missing.append
        # Retirement: at most retire_width records retire in any cycle.
        # ``retired_together`` counts the records retired in cycle
        # last_retire; seeding it at retire_width stands for the zeros
        # the window starts with.
        last_retire = 0
        retired_together = retire_width

        # Issue: ``closed`` is 1 when cycle last_issue has no issue slot
        # left (always, at single issue), so the in-order floor is
        # last_issue + closed.
        last_issue = -1
        closed = 1  # force the first instruction to cycle 0
        closes_alone = 1 if cfg.issue_width == 1 else 0
        dual_pairs = 0
        stall = [0] * len(_STALL_KINDS)  # indexed by the _C_* constants

        inflight: dict[int, int] = {}  # D-line -> fill arrival time
        # Pending front-end redirects: trace index at which the bubble
        # lands -> earliest fetch cycle for that instruction.  Two taken
        # branches can be in flight at once (a jump in a jump's delay
        # slot), so this must hold more than one entry.
        redirects: dict[int, int] = {}

        # The op codes the loop tests, as locals.
        (
            op_simple, op_fcond, op_fp_add, op_fp_cvt, op_fp_move,
            op_fp_load, op_fp_store, op_load,
        ) = (
            OP_SIMPLE, OP_FCOND, OP_FP_ADD, OP_FP_CVT, OP_FP_MOVE,
            OP_FP_LOAD, OP_FP_STORE, OP_LOAD,
        )

        # One op code per record (func/prepared.py's OP_* constants)
        # carries its kind, memory/FP class, taken and FP-condition
        # facts; ``pair_ok`` is the trace's half of the pairing rule.  An
        # absent source reads as NO_SOURCE.
        for index, (
            op, dst, s1, s2, iset, dline, imiss, pair_ok, wc,
        ) in enumerate(
            trace.timing_rows(
                line_shift, icache_lines, cfg.writecache_lines, page_shift
            )
        ):

            # ---------------------------------------------------- fetch side
            if imiss:
                iline = ilines[index]
                request_time = last_issue if last_issue > 0 else 0
                arrival = pool.lookup(iline, request_time, "I")
                if arrival is None:
                    pool.allocate(iline, request_time, stream="I")
                    arrival = biu.request(request_time, "ifetch")
                elif arrival < request_time:
                    arrival = request_time
                t_fetch = arrival + 1
                iready[iset] = t_fetch
                if probing:
                    tele.emit(
                        request_time,
                        "fetch",
                        EventKind.FETCH_STALL,
                        pc=pcs[index],
                        index=index,
                        arrival=t_fetch,
                    )
            else:
                t_fetch = iready[iset]
            if redirects:
                redirect_floor = redirects.pop(index, 0)
                if redirect_floor > t_fetch:
                    t_fetch = redirect_floor

            # ------------------------------------------------ in-order floor
            floor = last_issue + closed

            # ------------------------------------------------ hazard floors
            t_operand = reg_ready[s1]
            if reg_ready[s2] > t_operand:
                t_operand = reg_ready[s2]
            t_rob = rob[0]

            issue = floor
            if t_fetch > issue:
                issue = t_fetch
            if t_operand > issue:
                issue = t_operand
            if t_rob > issue:
                issue = t_rob

            # ``t_lsu`` is set on FP and memory records: the stall
            # attribution below reads it only on those.
            if op >= op_fcond:
                if op >= op_fp_move:
                    # One min per memory instruction, shared with the
                    # MSHR allocation below (nothing touches the file in
                    # between).
                    mshr_min = min(mshr_free)
                    t_lsu = mshr_min - 1
                    port_floor = dport._next_slot - 1
                    if port_floor >= t_lsu:
                        t_lsu = port_floor
                    elif t_lsu > issue:
                        mshr_filled = True
                    if t_lsu > issue:
                        issue = t_lsu
                    # The queue's head entry frees when it issues.
                    if op <= op_fp_store:
                        t_fpu = fpu_iq[0] - FPU_TRANSFER
                        if t_fpu > issue:
                            issue = t_fpu
                            iq_filled = True
                else:
                    t_lsu = 0
                    if op >= op_fp_add:
                        t_fpu = fpu_iq[0] - FPU_TRANSFER
                        if t_fpu > issue:
                            issue = t_fpu
                            iq_filled = True
                    else:
                        # bc1t/bc1f: wait for the FP condition flag.
                        t_fpu = fpu.cond_ready + 1
                        if t_fpu > issue:
                            issue = t_fpu

            # --------------------------------------------- stall attribution
            if issue > floor:
                if issue == t_fetch:
                    cause = _C_ICACHE
                elif issue == t_operand:
                    # The later source binds; the first when they tie.
                    source = s2 if reg_ready[s2] > reg_ready[s1] else s1
                    cause = _C_LOAD if reg_from_load[source] else _C_PAIRING
                elif issue == t_rob:
                    # The paper charges a full reorder buffer to the LSU
                    # when the entry blocking retirement is a memory
                    # instruction still waiting on its data ("most cycles
                    # are spent waiting for data from the LSU").
                    head = index - rob_capacity
                    cause = _C_LSU if head in missing else _C_ROB_FULL
                elif issue == t_lsu:
                    cause = _C_LSU
                else:
                    cause = _C_FPU
                stall[cause] += issue - floor
                if probing:
                    tele.emit(
                        floor,
                        "issue",
                        EventKind.STALL,
                        stall=_STALL_KINDS[cause].value,
                        cycles=issue - floor,
                        index=index,
                        pc=pcs[index],
                    )

            # ------------------------------------------------------ pairing
            # Issuing in cycle last_issue means its slot was open (closed
            # is 0), so only the trace's half of the rule can refuse.
            if issue == last_issue:
                if pair_ok:
                    dual_pairs += 1
                    closed = 1
                else:
                    issue += 1
                    last_issue = issue
                    stall[_C_PAIRING] += 1
                    if probing:
                        tele.emit(
                            issue - 1,
                            "issue",
                            EventKind.STALL,
                            stall=StallKind.PAIRING.value,
                            cycles=1,
                            index=index,
                            pc=pcs[index],
                        )
            else:
                last_issue = issue
                closed = closes_alone

            # ------------------------------------------------------ execute
            if op == op_simple:
                complete = issue + 1
                if dst >= 0:
                    reg_ready[dst] = complete
                    reg_from_load[dst] = False

            elif op >= op_fp_load:
                # Every load and store reserves the earliest-free MSHR
                # while it is active in the LSU (``mshr_min`` is still
                # that entry's busy-until time).  The access never waits
                # for it: the LSU floor holds ``issue >= mshr_min - 1``
                # and ``start_access(t) >= t``, so ``access >= mshr_min``
                # and an MSHR wait shows up as an LSU stall at issue.
                access = dport.start_access(issue + 1)
                slot = mshr_free.index(mshr_min)
                mshr_free[slot] = access
                if probing:
                    tele.emit(
                        access,
                        "mshr",
                        EventKind.MSHR_ALLOC,
                        slot=slot,
                        requested=access,
                        wait=0,
                    )

                if op == op_load or op == op_fp_load:
                    # The write cache is on chip and probed first; a
                    # forward from it never goes out to the external
                    # data cache.
                    dset = dline & dset_mask
                    if wc:
                        forwards += 1
                        data_ready = access + WC_FORWARD_LATENCY
                    elif dtags[dset] == dline:
                        ready_at = dready[dset]
                        data_ready = (
                            access if access > ready_at else ready_at
                        ) + dcache_latency
                    else:
                        dmisses += 1
                        arrival = inflight.get(dline)
                        if arrival is None:
                            parr = pool.lookup(dline, access, "D")
                            if parr is None:
                                pool.allocate(dline, access, stream="D")
                                arrival = biu.request(access, "dread")
                            else:
                                arrival = parr if parr > access else access
                            dtags[dset] = dline
                            dready[dset] = dport.occupy_for_fill(arrival)
                            inflight[dline] = arrival
                            if len(inflight) > INFLIGHT_BOUND:
                                # Evict only fills that have already
                                # arrived; wholesale clearing would forget
                                # genuinely pending lines and
                                # double-request them.
                                inflight = {
                                    fill_line: fill_at
                                    for fill_line, fill_at in inflight.items()
                                    if fill_at > access
                                }
                        data_ready = arrival + 1
                    if op == op_load:
                        release = complete = data_ready
                        if dst >= 0:
                            reg_ready[dst] = data_ready
                            reg_from_load[dst] = True
                    else:
                        # FP load: honour load-queue backpressure, hand to
                        # the FPU.
                        # A larger queue's head is an entry this one
                        # already trimmed: write times are not monotone,
                        # so those count too.
                        if fpu_lq[0] > data_ready:
                            data_ready = fpu_lq[0]
                            lq_filled = True
                        elif fpu.lq_trimmed_max > data_ready:
                            lq_filled = True
                        release = data_ready + 1
                        fpu.load(dst - 32, release, issue + FPU_TRANSFER)
                        complete = access + 1
                    if release > access:  # a release never shortens the hold
                        mshr_free[slot] = release
                    if probing:
                        tele.emit(
                            mshr_free[slot],
                            "mshr",
                            EventKind.MSHR_RELEASE,
                            slot=slot,
                        )

                else:  # store
                    mshr_free[slot] = access + dcache_latency
                    if probing:
                        tele.emit(
                            mshr_free[slot],
                            "mshr",
                            EventKind.MSHR_RELEASE,
                            slot=slot,
                        )
                    dset = dline & dset_mask
                    if dtags[dset] != dline:
                        # Write-validate allocation: the coalescing write
                        # cache assembles whole lines, so a store miss
                        # installs the line without a memory fetch when
                        # the line drains.
                        dmisses += 1
                        dtags[dset] = dline
                        dready[dset] = access + dcache_latency
                    pool.drop_line(dline)
                    if op == op_fp_store:
                        data_out = fpu.store(s2 - 32, issue + FPU_TRANSFER)
                        complete = time_store(wc, dline, access, data_out)
                    else:
                        complete = time_store(wc, dline, access)
                # Only a *missing* memory instruction at the ROB head
                # counts as an LSU wait; one completing at cache-hit speed
                # that still backs up retirement is a genuine
                # reorder-buffer-size stall.
                if complete > issue + hit_done:
                    missing_append(index)

            elif op < op_fp_add:  # branches and jumps
                complete = issue + 1
                if dst >= 0:  # jal/jalr write the link register
                    reg_ready[dst] = complete
                    reg_from_load[dst] = False
                if redirecting[op]:
                    # One fetch bubble: the target index is not in the
                    # NEXT field, so the front end redirects only after the
                    # branch/jump executes.  (In-order flow would have
                    # issued the post-delay-slot instruction at issue+2;
                    # the bubble pushes it to issue+3.)  A redirect already
                    # pending for that index (e.g. a second taken jump in
                    # the first one's shadow) keeps the later floor rather
                    # than being dropped.
                    target = index + 2
                    if issue + 3 > redirects.get(target, 0):
                        redirects[target] = issue + 3
                        if probing:
                            tele.emit(
                                issue,
                                "branch",
                                EventKind.REDIRECT,
                                pc=pcs[index],
                                index=target,
                                floor=issue + 3,
                            )

            elif op <= op_fp_cvt:  # FP arithmetic: the op code is the kind
                # FPU-local register ids; a compare's absent destination
                # is negative, an absent source the FPU's never-written
                # slot NO_SOURCE - 32.
                fp_done = fpu.arith(
                    op, dst - 32, s1 - 32, s2 - 32, issue + FPU_TRANSFER
                )
                if precise:
                    # Conservative mode: hold the IPU reorder-buffer entry
                    # until the FPU result (and its exception status) is
                    # known — the decoupling queues stop paying off.
                    complete = fp_done
                else:
                    complete = issue + 1  # transferred; imprecise exceptions

            else:  # OP_FP_MOVE
                access = dport.start_access(issue + 1)
                if dst >= 32:  # mtc1
                    fpu.mtc1(dst - 32, access + 1, issue + FPU_TRANSFER)
                    complete = access + 1
                else:  # mfc1
                    value_at = max(fpu.reg_ready[s1 - 32], issue) + 2
                    complete = value_at
                    if dst >= 0:
                        reg_ready[dst] = value_at
                        reg_from_load[dst] = True
                if complete > issue + hit_done:
                    missing_append(index)

            # ------------------------------------------------------- retire
            # Retire times never decrease, so the window floor (the retire
            # time retire_width records back, plus one) binds exactly when
            # those records all retired in cycle last_retire.
            if complete > last_retire:
                retire = complete
                retired_together = 1
            elif retired_together < retire_width:
                retire = last_retire
                retired_together += 1
            else:
                retire = last_retire + 1
                retired_together = 1
            rob_append(retire)

            if probing:
                tele.emit(
                    retire,
                    "rob",
                    EventKind.RETIRE,
                    index=index,
                    issue=issue,
                )

            if retire > stall_bound or index == poll_at:
                stats.stall_cycles.update(zip(_STALL_KINDS, stall))
                watchdog.check_progress(index, last_retire, retire)
                if index == poll_at:
                    poll_at += check_period
                    watchdog.check_structures(index, retire)
                stall_bound = min(retire + max_stall_cycles, cycle_limit)
            last_retire = retire

        # ------------------------------------------------------------ drain
        end = last_retire
        end = max(end, fpu.last_event, mshr.all_free_at)
        end = max(end, writecache.flush(end))

        record_count = len(trace)
        stats.instructions = record_count
        stats.cycles = end
        stats.stall_cycles.update(zip(_STALL_KINDS, stall))
        stats.icache_accesses = record_count
        stats.icache_hits = (
            record_count - trace.icache_misses(line_shift, icache_lines)[1]
        )
        pool_stats = pool.stats
        stats.iprefetch_lookups = pool_stats.i_lookups
        stats.iprefetch_hits = pool_stats.i_hits
        stats.dprefetch_lookups = pool_stats.d_lookups
        stats.dprefetch_hits = pool_stats.d_hits
        (
            stats.writecache_accesses,
            stats.writecache_hits,
            stats.store_instructions,
            stats.store_transactions,
        ) = trace.writecache_decisions(
            line_shift, cfg.writecache_lines, page_shift
        )[1]
        (
            stats.loads,
            stats.stores,
            stats.branches,
            stats.taken_branches,
            stats.fp_instructions,
        ) = trace.class_counts()
        # Every store and every load the write cache does not forward
        # goes to the D-cache; which of those miss depends on timing.
        stats.dcache_accesses = stats.loads + stats.stores - forwards
        stats.dcache_hits = stats.dcache_accesses - dmisses
        stats.dual_issued_pairs = dual_pairs
        stats.fpu_instructions = fpu.instructions
        stats.fpu_busy_cycles = fpu.issue_stall_cycles
        filled = (mshr_filled, iq_filled, lq_filled, fpu.rob_filled)
        return SimulationResult(
            config=self.config,
            stats=stats,
            unfilled=frozenset(
                name for name, hit in zip(CAPACITY_FIELDS, filled) if not hit
            ),
        )


def simulate_trace(
    trace: "list[TraceRecord] | PreparedTrace",
    config: MachineConfig,
    policy: "RobustnessPolicy | None" = None,
    telemetry: "EventBus | None" = None,
) -> SimulationResult:
    """Convenience wrapper: time ``trace`` on a machine built from ``config``.

    ``trace`` is normally the :class:`~repro.func.prepared.PreparedTrace`
    :func:`repro.workloads.registry.get_trace` returns; a plain record
    list is record-checked and prepared at this boundary.

    Eagerly validates the configuration and (a deterministic sample of)
    the trace before spending any simulation time, so impossible machine
    points and corrupt traces fail fast with a precise error instead of
    producing garbage numbers.  ``telemetry`` (an
    :class:`repro.telemetry.events.EventBus`) enables event probes for
    the run; None or a sink-less bus keeps every probe compiled down to
    a single falsy check.
    """
    from repro.robustness.validation import validate_trace
    from repro.telemetry import tracing

    trace = as_prepared(trace)
    validate_trace(trace)
    tracer = tracing.current_tracer()
    if tracer is None:
        return AuroraProcessor(config, policy, telemetry=telemetry).run(trace)
    # ``records`` counts trace records, not retired instructions: multi-op
    # records and batching make the two diverge (SimStats.instructions is
    # the retired count).
    with tracer.span(
        "simulate", "simulate", records=len(trace), config=config.label
    ):
        return AuroraProcessor(config, policy, telemetry=telemetry).run(trace)
