"""The coalescing Write Cache (paper Section 2.3, "Write Cache").

Four (2/4/8 by model) fully-associative lines of eight words each.  Stores
that hit an allocated line coalesce — no new off-chip transaction; a miss
allocates a line, evicting the least-recently-used dirty line as one BIU
write transaction for the whole line.  Loads are looked up too (forwarding
from pending stores); Table 5's hit rate "includes both load and store
data accesses".

Write validation (the micro-TLB behaviour): the MMU is off chip, so a
store cannot retire until its address is known not to fault.  If the
store's *page* field matches any valid resident line's page, no fault is
possible and the store completes immediately; otherwise an MMU round trip
validates the page, and the line cannot be evicted (nor the store retired)
until the response arrives.

Floating-point stores: their data is not ready when the address arrives
(Section 2.3, "Floating Point Support") — the line holding an FP store
cannot be evicted before the FP data lands, which ``store``'s
``fp_data_at`` models.

Each access is decided, then timed.  The decision (hit or miss, the
slot, the LRU victim, the page match, forwarding) follows the order of
the addresses alone and lives in :class:`WriteCacheDirectory`; the
timing (MMU round trips, evictions over the BIU, when a line may leave)
lives in :class:`WriteCache`.  That split lets a prepared trace decide
a whole load/store stream once per geometry (docs/MODELING.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.biu import BusInterfaceUnit
from repro.telemetry.events import EventKind


#: Decision-code bits.  A store's code is ``slot << WC_SLOT_SHIFT``
#: plus flags: WC_HIT (coalesced into a resident line), WC_RESIDENT (on
#: a miss, a valid line's page matched, so no MMU round trip), WC_EVICT
#: (on a miss, the victim slot held a dirty line to write back).  A
#: load's code is WC_HIT when the write cache forwards it, else 0.
WC_HIT = 1
WC_RESIDENT = 2
WC_EVICT = 4
WC_SLOT_SHIFT = 3


class WriteCacheDirectory:
    """The write cache's placement rule: the one copy of it.

    Which slot a line occupies, hit or miss, the LRU victim and the page
    match depend on the order of the load and store addresses alone: the
    LRU clock counts accesses, no line drains on a timer, and the page
    match reads the array as it stands.  :class:`WriteCache` decides
    each access here and then times it; a prepared trace replays a whole
    load/store stream through :func:`replay_decisions` once per geometry
    and every configuration sharing that geometry reuses the codes.

    Per slot it holds the resident line (-1 when invalid), its page (-1
    when invalid), the mask of words written and the LRU stamp.  Every
    valid line is dirty: only a store allocates one.
    """

    __slots__ = ("lines", "pages", "masks", "used", "clock")

    def __init__(self, capacity: int) -> None:
        self.lines = [-1] * capacity
        self.pages = [-1] * capacity
        self.masks = [0] * capacity
        self.used = [-1] * capacity
        self.clock = 0

    def store(self, line: int, page: int, word_bit: int) -> int:
        """Decide a store to word ``word_bit`` of ``line``; returns the
        store's code."""
        lines = self.lines
        self.clock += 1
        # Invalid slots hold line -1 and line numbers come from
        # non-negative addresses, so membership alone is a hit test.
        if line in lines:
            slot = lines.index(line)
            self.masks[slot] |= word_bit
            self.used[slot] = self.clock
            return slot << WC_SLOT_SHIFT | WC_HIT
        # Miss: the victim is the least recently used slot (the first in
        # array order on a tie).  The page match runs before the victim
        # is replaced, so the victim's own page still validates; invalid
        # slots hold page -1, so they never match.
        used = self.used
        slot = used.index(min(used))
        code = slot << WC_SLOT_SHIFT
        if page in self.pages:
            code |= WC_RESIDENT
        if lines[slot] >= 0:
            code |= WC_EVICT
        lines[slot] = line
        self.pages[slot] = page
        self.masks[slot] = word_bit
        used[slot] = self.clock
        return code

    def load(self, line: int, word_bit: int) -> bool:
        """Whether a load of word ``word_bit`` of ``line`` forwards.

        A forward needs the word itself written: forwarding a line that
        only shares the load's line would return stale data.
        """
        lines = self.lines
        if line not in lines:
            return False
        slot = lines.index(line)
        if not self.masks[slot] & word_bit:
            return False
        self.clock += 1
        self.used[slot] = self.clock
        return True

    def flush(self) -> int:
        """Invalidate every slot; returns how many held a dirty line."""
        capacity = len(self.lines)
        dirty = capacity - self.lines.count(-1)
        self.lines = [-1] * capacity
        self.pages = [-1] * capacity
        self.masks = [0] * capacity
        return dirty


def replay_decisions(
    capacity: int,
    line_shift: int,
    page_shift: int,
    addresses: "list[int]",
    stores: "list[bool]",
) -> tuple[list[int], tuple[int, int, int, int]]:
    """Decide a whole load/store stream, in program order, on an empty
    write cache of ``capacity`` lines, then flush it.

    Returns one code per access (see :data:`WC_HIT`) and the totals a
    timed run of the same stream would count: (accesses, hits, store
    instructions, store transactions), the transactions including the
    end-of-run flush.
    """
    directory = WriteCacheDirectory(capacity)
    decide_store = directory.store
    decide_load = directory.load
    word_bits = ((1 << line_shift) >> 2) - 1
    codes: list[int] = []
    hits = evictions = 0
    for address, is_store in zip(addresses, stores):
        line = address >> line_shift
        word_bit = 1 << ((address >> 2) & word_bits)
        if is_store:
            code = decide_store(line, address >> page_shift, word_bit)
            if code & WC_EVICT:
                evictions += 1
        else:
            code = WC_HIT if decide_load(line, word_bit) else 0
        hits += code & WC_HIT
        codes.append(code)
    store_count = sum(stores)
    return codes, (
        len(codes), hits, store_count, evictions + directory.flush()
    )


@dataclass(slots=True)
class _WCLine:
    """Timing state of one slot; the directory holds its placement."""

    line: int = -1  # resident line number (byte address >> line shift)
    validated_at: int = 0  # store data may leave chip only after this
    data_ready_at: int = 0  # FP store data arrival (0 = ready)

    @property
    def valid(self) -> bool:
        return self.line >= 0


@dataclass
class WriteCacheStats:
    """Hit/traffic accounting for Table 5."""

    accesses: int = 0  # load + store lookups
    hits: int = 0
    store_instructions: int = 0
    store_transactions: int = 0  # line evictions sent over the BIU
    validation_misses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def traffic_ratio(self) -> float:
        """Store BIU transactions per store instruction (lower is better)."""
        if self.store_instructions == 0:
            return 0.0
        return self.store_transactions / self.store_instructions


class WriteCache:
    """Timestamp model of the coalescing write buffer.

    Each access is decided by the :class:`WriteCacheDirectory` and then
    timed: :meth:`store` is ``directory.store`` followed by
    :meth:`time_store`.  The scalar timing loop takes its decisions from
    the prepared trace instead (``PreparedTrace.writecache_decisions``)
    and calls only :meth:`time_store`, once per store; loads need no
    timing here at all.
    """

    def __init__(
        self,
        lines: int,
        line_bytes: int,
        biu: BusInterfaceUnit,
        page_bytes: int = 4096,
        write_validation: bool = True,
    ) -> None:
        if lines < 1:
            raise ValueError("write cache needs at least one line")
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._word_bits = (line_bytes >> 2) - 1  # word index within a line
        self._page_shift = page_bytes.bit_length() - 1
        self._biu = biu
        self.write_validation = write_validation
        self.capacity = lines
        self.directory = WriteCacheDirectory(lines)
        self._lines = [_WCLine() for _ in range(lines)]
        self.stats = WriteCacheStats()
        #: Optional :class:`repro.telemetry.events.EventBus`; falsy = off.
        self.telemetry = None

    # ------------------------------------------------------------------ API

    def store(self, address: int, time: int, fp_data_at: int = 0) -> int:
        """Process a store to ``address`` at ``time``.

        Returns the store's *completion* time — when it is known the store
        cannot fault and it can retire from the reorder buffer.  For FP
        stores, ``fp_data_at`` is when the data will arrive from the FPU;
        the line is held un-evictable until then.
        """
        stats = self.stats
        stats.accesses += 1
        stats.store_instructions += 1
        line_number = address >> self._line_shift
        code = self.directory.store(
            line_number,
            address >> self._page_shift,
            1 << ((address >> 2) & self._word_bits),
        )
        stats.hits += code & WC_HIT
        return self.time_store(code, line_number, time, fp_data_at)

    def time_store(
        self, code: int, line_number: int, time: int, fp_data_at: int = 0
    ) -> int:
        """Time a store the directory decided as ``code`` (see
        :data:`WC_HIT`); returns its completion time as :meth:`store`
        does.  Counts the BIU transactions it issues but not the access:
        a run that decides ahead takes those counts from the decisions.
        """
        entry = self._lines[code >> WC_SLOT_SHIFT]
        if code & WC_HIT:
            if fp_data_at > entry.data_ready_at:
                entry.data_ready_at = fp_data_at
            if self.telemetry:
                self.telemetry.emit(
                    time,
                    "writecache",
                    EventKind.WC_STORE,
                    line=line_number,
                    hit=True,
                    allocated=False,
                )
            validated_at = entry.validated_at
            return validated_at if validated_at > time + 1 else time + 1
        evict_done = self._evict(entry, time) if code & WC_EVICT else time
        validated_at = time + 1
        if self.write_validation and not code & WC_RESIDENT:
            # MMU round trip before the store may retire.
            validated_at = self._biu.request(time, "mmu")
            self.stats.validation_misses += 1
        entry.line = line_number
        entry.validated_at = validated_at
        entry.data_ready_at = fp_data_at
        if self.telemetry:
            self.telemetry.emit(
                time,
                "writecache",
                EventKind.WC_STORE,
                line=line_number,
                hit=False,
                allocated=True,
            )
        return max(time + 1, evict_done, validated_at)

    def load_lookup(self, address: int, time: int) -> bool:
        """Check whether a load can be serviced from the write cache.

        Counts toward the Table 5 hit rate.  A hit requires the word to
        actually have been written (forwarding whole-line misses that only
        share the line would return stale data).  A forward takes no
        timing state of the write cache's own.
        """
        self.stats.accesses += 1
        if self.directory.load(
            address >> self._line_shift,
            1 << ((address >> 2) & self._word_bits),
        ):
            self.stats.hits += 1
            return True
        return False

    def contains_line(self, line_number: int) -> bool:
        return any(entry.line == line_number for entry in self._lines)

    def flush(self, time: int) -> int:
        """Evict every dirty line (end-of-run drain). Returns drain time."""
        done = time
        for entry in self._lines:
            done = max(done, self._evict(entry, time))
            entry.line = -1
        self.directory.flush()
        return done

    def assert_capacity(self) -> None:
        """Runtime invariant guard (polled by the watchdog).

        The fully-associative array must hold exactly ``capacity`` lines,
        no line number may appear twice, and every word mask must fit the
        line's word count — violations mean state corruption.
        """
        from repro.robustness.guards import GuardViolation

        if len(self._lines) != self.capacity:
            raise GuardViolation(
                f"write cache holds {len(self._lines)} lines; "
                f"configured capacity is {self.capacity}"
            )
        full_mask = (1 << (self.line_bytes >> 2)) - 1
        seen: set[int] = set()
        for index, entry in enumerate(self._lines):
            if not entry.valid:
                continue
            if entry.line in seen:
                raise GuardViolation(
                    f"write cache line number {entry.line} is resident "
                    "twice (associative lookup corrupted)"
                )
            seen.add(entry.line)
            if entry.validated_at < 0 or entry.data_ready_at < 0:
                raise GuardViolation(
                    f"write cache entry {index} has corrupt timestamps "
                    f"(validated_at={entry.validated_at}, "
                    f"data_ready_at={entry.data_ready_at})"
                )
        for index, mask in enumerate(self.directory.masks):
            if mask & ~full_mask:
                raise GuardViolation(
                    f"write cache entry {index} word mask "
                    f"{mask:#x} exceeds the line's "
                    f"{self.line_bytes >> 2} words"
                )

    # ------------------------------------------------------------- internals

    def _evict(self, entry: _WCLine, time: int) -> int:
        """Write the victim line back over the BIU. Returns completion."""
        if entry.line < 0:
            return time
        # Cannot evict before validation completes or FP data arrives.
        ready = max(time, entry.validated_at, entry.data_ready_at)
        done = self._biu.request(ready, "write")
        self.stats.store_transactions += 1
        if self.telemetry:
            self.telemetry.emit(
                ready,
                "writecache",
                EventKind.WC_EVICT,
                line=entry.line,
                done=done,
            )
        return done
