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
cannot be evicted before the FP data lands, which `note_data_pending`
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.biu import BusInterfaceUnit
from repro.telemetry.events import EventKind


@dataclass(slots=True)
class _WCLine:
    line: int = -1  # line number (byte address >> line shift)
    page: int = -1
    word_mask: int = 0  # bitmask of words written
    dirty: bool = False
    validated_at: int = 0  # store data may leave chip only after this
    data_ready_at: int = 0  # FP store data arrival (0 = ready)
    last_used: int = -1

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
    """Timestamp model of the coalescing write buffer."""

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
        self._lines = [_WCLine() for _ in range(lines)]
        self._clock = 0
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
        lines = self._lines
        # Invalid entries hold line == -1 and line numbers are derived
        # from non-negative addresses, so equality alone is a hit test.
        for entry in lines:
            if entry.line == line_number:
                stats.hits += 1
                entry.word_mask |= 1 << ((address >> 2) & self._word_bits)
                entry.dirty = True
                self._clock += 1
                entry.last_used = self._clock
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
                return max(time + 1, entry.validated_at)

        # Miss: the victim is the least recently used line (the first in
        # array order on a tie).  Page match runs on the array before the
        # victim is replaced, so the victim's own page still validates;
        # a flushed entry keeps a stale page field, so validity is
        # checked too.
        page = address >> self._page_shift
        victim = lines[0]
        resident = False
        for entry in lines:
            if entry.last_used < victim.last_used:
                victim = entry
            if entry.page == page and entry.line >= 0:
                resident = True
        evict_done = self._evict(victim, time)
        validated_at = time + 1
        if self.write_validation and not resident:
            # MMU round trip before the store may retire.
            validated_at = self._biu.request(time, "mmu")
            stats.validation_misses += 1
        victim.line = line_number
        victim.page = page
        victim.word_mask = 1 << ((address >> 2) & self._word_bits)
        victim.dirty = True
        victim.validated_at = validated_at
        victim.data_ready_at = fp_data_at
        self._clock += 1
        victim.last_used = self._clock
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
        share the line would return stale data).
        """
        self.stats.accesses += 1
        line_number = address >> self._line_shift
        for entry in self._lines:
            if entry.line == line_number:
                if not entry.word_mask >> ((address >> 2) & self._word_bits) & 1:
                    return False
                self.stats.hits += 1
                self._clock += 1
                entry.last_used = self._clock
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
            entry.word_mask = 0
            entry.dirty = False
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
            if entry.word_mask & ~full_mask:
                raise GuardViolation(
                    f"write cache entry {index} word mask "
                    f"{entry.word_mask:#x} exceeds the line's "
                    f"{self.line_bytes >> 2} words"
                )
            if entry.validated_at < 0 or entry.data_ready_at < 0:
                raise GuardViolation(
                    f"write cache entry {index} has corrupt timestamps "
                    f"(validated_at={entry.validated_at}, "
                    f"data_ready_at={entry.data_ready_at})"
                )

    # ------------------------------------------------------------- internals

    def _evict(self, entry: _WCLine, time: int) -> int:
        """Write the victim line back over the BIU. Returns completion."""
        if not entry.valid or not entry.dirty:
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
