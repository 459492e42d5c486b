"""The decoupled floating-point unit (paper Section 3 and Sections 5.7-5.11).

The IPU transfers FP instructions into an *instruction queue* and keeps
running; the FPU consumes the queue at its own rate.  The IPU stalls only
when the queue is full or when it needs an FPU result (an ``mfc1`` value or
a compare condition for ``bc1t``/``bc1f``).  A *load queue* holds incoming
memory data until the FPU writes it to the register file; a *store queue*
holds outgoing results until the LSU drains them.

The FPU itself has a 32-entry register file (doubles in even/odd pairs),
a reorder buffer, a scoreboard, and four functional units — add,
multiply, divide (square root shares the divider), and convert — with
configurable latencies and pipelining, plus a configurable number of
result busses to the reorder buffer.

Three issue policies (Section 5.8):

* ``IN_ORDER_COMPLETION`` — no overlap at all: an instruction may not
  issue until its predecessor has completed,
* ``SINGLE_ISSUE`` — in-order issue, one per cycle, out-of-order
  completion across functional units,
* ``DUAL_ISSUE`` — up to two per cycle to any two *different* functional
  units, still in-order.

Like the integer core, the model is timestamp-based: each structure
tracks busy-until times and the engine processes the FP sub-sequence of
the trace in program order.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from repro.core.config import FPIssuePolicy, FPUConfig
from repro.isa.instructions import Kind
from repro.telemetry.events import EventKind


class FPUnit(Enum):
    ADD = "add"
    MUL = "mul"
    DIV = "div"
    CVT = "cvt"


#: Functional units in enum order; unit state is indexed by position,
#: which is an arithmetic record's kind minus ``Kind.FP_ADD``.
_UNITS = tuple(FPUnit)
_FIRST_UNIT_KIND = int(Kind.FP_ADD)  # FP_ADD, FP_MUL, FP_DIV, FP_CVT

#: Register-file slots: the 32 FP registers, then the FPU-local ids of
#: unified registers 64..66 (``fs``/``ft`` are unified ids minus 32), of
#: which 66 is :data:`repro.func.prepared.NO_SOURCE`.  Trace records
#: write only FP registers here, so an absent source (34, or -1 from a
#: direct caller) reads ready at cycle 0.
_RF_SLOTS = 35


class DecoupledFPU:
    """Timestamp engine for the decoupled FPU."""

    def __init__(self, config: FPUConfig) -> None:
        self.cfg = config
        self.reg_ready = [0] * _RF_SLOTS  # availability (forwarded)
        self.cond_ready = 0  # FP condition flag availability
        self._unit_free = [0] * len(_UNITS)
        self._unit_latency = [
            config.add_latency,
            config.mul_latency,
            config.div_latency,
            config.cvt_latency,
        ]
        self._unit_pipelined = [
            config.add_pipelined,
            config.mul_pipelined,
            False,  # iterative SRT divider, never pipelined
            config.cvt_pipelined,
        ]
        # In-order issue bookkeeping.
        self._last_issue = -1
        self._issued_this_cycle = 0
        self._units_this_cycle = 0  # bit ``1 << unit`` per unit issued
        self._prev_completion = 0  # for the in-order-completion policy
        # Queue/ROB occupancy as deques of release times, each seeded
        # with one 0 per entry: an entry never used yet is free from
        # cycle 0, so the head is the floor the structure sets, and every
        # append is followed by a trim back to capacity.
        self._iq_releases = deque([0] * config.instruction_queue)
        self._lq_releases = deque([0] * config.load_queue)
        self._sq_releases = deque([0] * config.store_queue)
        self._rob_retires = deque([0] * config.rob_entries)
        self._last_retire = 0
        #: Largest write time trimmed from the load queue, and whether the
        #: reorder buffer ever set an issue floor: the timing loop's
        #: certificate that a larger queue or buffer times identically.
        self.lq_trimmed_max = 0
        self.rob_filled = False
        # Register-file write bandwidth: the result busses are shared by
        # functional-unit completions and load-queue data drains.  The
        # dual-issue design pays for two busses; the single-issue and
        # fully-serialised machines have one (paper Section 5.8 lists the
        # extra busses among dual issue's hardware costs).
        self._bus_slots: dict[int, int] = {}
        # Config-fixed choices, resolved once instead of once per op.
        self._in_order = config.issue_policy is FPIssuePolicy.IN_ORDER_COMPLETION
        self._dual = config.issue_policy is FPIssuePolicy.DUAL_ISSUE
        self._write_ports = min(2 if self._dual else 1, config.result_buses)
        self._iq_capacity = config.instruction_queue
        self._lq_capacity = config.load_queue
        self._sq_capacity = config.store_queue
        self._rob_capacity = config.rob_entries
        self.instructions = 0
        self.issue_stall_cycles = 0
        self._last_write = 0  # latest decoupled load-queue write
        #: Optional :class:`repro.telemetry.events.EventBus`; falsy = off.
        self.telemetry = None

    @property
    def last_event(self) -> int:
        """The latest FPU retirement or load-queue register write."""
        return max(self._last_retire, self._last_write)

    # ------------------------------------------------------------- IPU side

    def dispatch_floor(self) -> int:
        """Earliest time the IPU may transfer the next FP instruction.

        The instruction queue has ``cfg.instruction_queue`` entries; entry
        *n* frees when instruction *n* issues into a functional unit.
        """
        return self._iq_releases[0]

    def load_data_floor(self) -> int:
        """Earliest time the LSU may deliver the next FP load's data
        (load-queue backpressure)."""
        return self._lq_releases[0]

    # ------------------------------------------------------------ dispatch
    # Each operation does its issue floor, width rules, result-bus slot
    # and in-order retirement through the FPU reorder buffer in one body.

    def arith(self, kind: int, fd: int, fs: int, ft: int, arrive: int) -> int:
        """Process an arithmetic/convert/compare op arriving at ``arrive``.

        ``fd`` is negative for compares (they set the condition flag
        instead).  ``fs``/``ft`` are FPU-local register numbers; an
        absent source is 34 or -1, a slot nothing writes.  Returns the
        completion time.
        """
        unit = kind - _FIRST_UNIT_KIND
        unit_bit = 1 << unit
        tele = self.telemetry
        if tele:
            tele.emit(arrive, "fpu", EventKind.FPQ_ENQUEUE, queue="iq")
        reg_ready = self.reg_ready
        floor = self._unit_free[unit]
        if arrive > floor:
            floor = arrive
        if reg_ready[fs] > floor:
            floor = reg_ready[fs]
        if reg_ready[ft] > floor:
            floor = reg_ready[ft]
        if self._prev_completion > floor:  # 0 unless fully serialised
            floor = self._prev_completion
        rob = self._rob_retires
        if rob[0] > floor:
            floor = rob[0]
            if floor > self._last_issue:
                self.rob_filled = True
        # In-order issue, one per cycle; dual issue pairs two units.
        last = self._last_issue
        if floor <= last:
            if (
                self._dual
                and self._issued_this_cycle < 2
                and not self._units_this_cycle & unit_bit
            ):
                floor = last
            else:
                floor = last + 1
        issue = floor
        if issue > arrive:
            self.issue_stall_cycles += issue - arrive
        # The result busses are shared with load-queue drains.
        completion = issue + self._unit_latency[unit]
        slots = self._bus_slots
        taken = slots.get(completion, 0)
        while taken >= self._write_ports:
            completion += 1
            taken = slots.get(completion, 0)
        slots[completion] = taken + 1
        if len(slots) > 4096:
            self._prune_bus_slots(completion - 64)
        if fd >= 0:
            reg_ready[fd] = completion
        else:
            self.cond_ready = completion
        self._unit_free[unit] = (
            issue + 1 if self._unit_pipelined[unit] else completion
        )
        if tele:
            tele.emit(issue, "fpu", EventKind.FPQ_ISSUE, unit=_UNITS[unit].value)
            tele.emit(issue, "fpu", EventKind.FPQ_DEQUEUE, queue="iq")
        if issue == last:
            self._issued_this_cycle += 1
            self._units_this_cycle |= unit_bit
        else:
            self._last_issue = issue
            self._issued_this_cycle = 1
            self._units_this_cycle = unit_bit
        iq = self._iq_releases
        iq.append(issue)
        if len(iq) > self._iq_capacity:
            iq.popleft()
        retire = self._last_retire
        if completion > retire:
            retire = self._last_retire = completion
        rob.append(retire)
        if len(rob) > self._rob_capacity:
            rob.popleft()
        if self._in_order:
            self._prev_completion = completion
        self.instructions += 1
        return completion

    def load(self, fd: int, data_arrival: int, arrive: int) -> int:
        """Process an FP load: data lands in the load queue and is written
        to the register file out-of-band.

        The load queue exists precisely so that incoming memory data does
        not contend with arithmetic issue (paper Section 3.1): data waits
        in the queue for the dedicated register-file write port, one write
        per cycle, regardless of what the issue logic is doing.  Back-
        pressure arises only when data arrives faster than it drains or
        the queue is full (the caller consults :meth:`load_data_floor`).

        Returns the register-file write time.
        """
        tele = self.telemetry
        if self._in_order:
            # The fully serialised policy has no decoupled write port:
            # the load's RF write is an instruction like any other.
            if tele:
                tele.emit(arrive, "fpu", EventKind.FPQ_ENQUEUE, queue="iq")
            issue = arrive if arrive > data_arrival else data_arrival
            if self._prev_completion > issue:
                issue = self._prev_completion
            rob = self._rob_retires
            if rob[0] > issue:
                issue = rob[0]
                if issue > self._last_issue:
                    self.rob_filled = True
            if issue <= self._last_issue:
                issue = self._last_issue + 1
            if issue > arrive:
                self.issue_stall_cycles += issue - arrive
            write_time = issue + 1
        else:
            write_time = data_arrival
            slots = self._bus_slots
            taken = slots.get(write_time, 0)
            while taken >= self._write_ports:
                write_time += 1
                taken = slots.get(write_time, 0)
            slots[write_time] = taken + 1
            if len(slots) > 4096:
                self._prune_bus_slots(write_time - 64)
        self.reg_ready[fd] = write_time
        lq = self._lq_releases
        lq.append(write_time)
        if len(lq) > self._lq_capacity:
            trimmed = lq.popleft()
            if trimmed > self.lq_trimmed_max:
                self.lq_trimmed_max = trimmed
        if tele:
            tele.emit(data_arrival, "fpu", EventKind.FPQ_ENQUEUE, queue="lq")
            tele.emit(write_time, "fpu", EventKind.FPQ_DEQUEUE, queue="lq")
        if self._in_order:
            if tele:
                tele.emit(issue, "fpu", EventKind.FPQ_ISSUE, unit=None)
                tele.emit(issue, "fpu", EventKind.FPQ_DEQUEUE, queue="iq")
            self._last_issue = issue
            self._prev_completion = write_time
            iq = self._iq_releases
            iq.append(issue)
            if len(iq) > self._iq_capacity:
                iq.popleft()
            retire = self._last_retire
            if write_time > retire:
                retire = self._last_retire = write_time
            rob.append(retire)
            if len(rob) > self._rob_capacity:
                rob.popleft()
        elif write_time > self._last_write:
            self._last_write = write_time
        self.instructions += 1
        return write_time

    def store(self, ft: int, arrive: int) -> int:
        """Process an FP store (or move-to-IPU): returns the time the data
        is available to the LSU (after the store queue).

        The whole point of the store queue (paper Section 3.1) is that a
        store *issues* without waiting for its data: it takes a store-queue
        entry and the data follows when the producing operation completes.
        Issue therefore stalls only when the store queue itself is full,
        never on the store's operand.
        """
        tele = self.telemetry
        if tele:
            tele.emit(arrive, "fpu", EventKind.FPQ_ENQUEUE, queue="iq")
        sq = self._sq_releases
        floor = arrive
        if sq[0] > floor:
            floor = sq[0]
        if self._prev_completion > floor:
            floor = self._prev_completion
        rob = self._rob_retires
        if rob[0] > floor:
            floor = rob[0]
            if floor > self._last_issue:
                self.rob_filled = True
        last = self._last_issue
        if floor <= last:
            if self._dual and self._issued_this_cycle < 2:
                floor = last
            else:
                floor = last + 1
        issue = floor
        if issue > arrive:
            self.issue_stall_cycles += issue - arrive
        operand_ready = self.reg_ready[ft]
        # Data leaves over the data-cache input busses once produced.
        data_out = max(issue, operand_ready) + 1
        sq.append(data_out)
        if len(sq) > self._sq_capacity:
            sq.popleft()
        if tele:
            tele.emit(issue, "fpu", EventKind.FPQ_ENQUEUE, queue="sq")
            tele.emit(data_out, "fpu", EventKind.FPQ_DEQUEUE, queue="sq")
            tele.emit(issue, "fpu", EventKind.FPQ_ISSUE, unit=None)
            tele.emit(issue, "fpu", EventKind.FPQ_DEQUEUE, queue="iq")
        if issue == last:
            self._issued_this_cycle += 1
        else:
            self._last_issue = issue
            self._issued_this_cycle = 1
            self._units_this_cycle = 0
        iq = self._iq_releases
        iq.append(issue)
        if len(iq) > self._iq_capacity:
            iq.popleft()
        retire = self._last_retire
        if data_out > retire:
            retire = self._last_retire = data_out
        rob.append(retire)
        if len(rob) > self._rob_capacity:
            rob.popleft()
        if self._in_order:
            self._prev_completion = data_out
        self.instructions += 1
        return data_out

    def _prune_bus_slots(self, horizon: int) -> None:
        """Forget result-bus cycles before ``horizon`` to bound memory.

        The survivors are picked by C-level iteration (``horizon <= key``
        per cycle), so the scan costs no interpreter work per entry."""
        slots = self._bus_slots
        live = list(filter(horizon.__le__, slots))
        self._bus_slots = dict(zip(live, map(slots.__getitem__, live)))

    def mtc1(self, fd: int, data_arrival: int, arrive: int) -> int:
        """Move from IPU: behaves like a load whose data comes from the IPU."""
        return self.load(fd, data_arrival, arrive)

    def reg_read_floor(self, fs: int) -> int:
        """When the IPU could read FP register ``fs`` (for mfc1)."""
        return self.reg_ready[fs]

    def assert_capacity(self) -> None:
        """Runtime invariant guard (polled by the watchdog).

        Queue and reorder-buffer occupancy may never exceed the
        configured capacity — the deques are trimmed on every append, so
        an over-full structure means the model's bookkeeping broke.
        """
        from repro.robustness.guards import GuardViolation

        cfg = self.cfg
        for name, queue, capacity in (
            ("instruction queue", self._iq_releases, cfg.instruction_queue),
            ("load queue", self._lq_releases, cfg.load_queue),
            ("store queue", self._sq_releases, cfg.store_queue),
            ("reorder buffer", self._rob_retires, cfg.rob_entries),
        ):
            if len(queue) > capacity:
                raise GuardViolation(
                    f"FPU {name} holds {len(queue)} entries; configured "
                    f"capacity is {capacity}"
                )
