"""Primary cache tag models.

Both primary caches are direct-mapped (the external data cache explicitly
so — Section 2.3; the small on-chip instruction cache likewise, which is
what makes Jouppi stream buffers "an ideal solution", Section 2.2).  These
are *tag* models: they track which line lives in each set and when it is
usable, not data contents — the functional simulator owns the data.

:class:`PipelinedCachePort` models the external data cache's access port:
pipelined (a new access can start every cycle) with a fixed access latency,
and occupied for several cycles when a miss's line is streamed in over the
64-bit fill bus.
"""

from __future__ import annotations

from dataclasses import dataclass


class DirectMappedCache:
    """Direct-mapped tag store over byte addresses.

    ``lookup`` and ``fill`` work on full byte addresses; the cache derives
    line/index/tag internally.  ``ready_at`` records, per set, when the
    resident line's data is actually on chip (a set being filled is not
    usable until the fill completes).
    """

    def __init__(self, size_bytes: int, line_bytes: int) -> None:
        if size_bytes % line_bytes != 0:
            raise ValueError("cache size must be a multiple of the line size")
        self.line_bytes = line_bytes
        self.num_lines = size_bytes // line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._index_mask = self.num_lines - 1
        if self.num_lines & (self.num_lines - 1) != 0:
            raise ValueError("number of lines must be a power of two")
        self._tags: list[int] = [-1] * self.num_lines
        self._ready: list[int] = [0] * self.num_lines
        self.accesses = 0
        self.hits = 0

    def line_of(self, address: int) -> int:
        """Line number (address / line size) of a byte address."""
        return address >> self._line_shift

    def _split(self, address: int) -> tuple[int, int]:
        line = address >> self._line_shift
        return line & self._index_mask, line

    def lookup(self, address: int) -> bool:
        """Tag check, counting one reference. True on hit."""
        line = address >> self._line_shift
        self.accesses += 1
        if self._tags[line & self._index_mask] == line:
            self.hits += 1
            return True
        return False

    def probe(self, address: int) -> bool:
        """Tag check without counting a reference (for merging logic)."""
        index, line = self._split(address)
        return self._tags[index] == line

    def ready_time(self, address: int) -> int:
        """When the currently resident line in this set becomes usable."""
        return self._ready[(address >> self._line_shift) & self._index_mask]

    def fill(self, address: int, ready_at: int) -> int | None:
        """Install the line containing ``address``; data usable at ``ready_at``.

        Returns the evicted line number, or None if the set was empty.
        """
        index, line = self._split(address)
        evicted = self._tags[index]
        self._tags[index] = line
        self._ready[index] = ready_at
        return evicted if evicted != -1 else None

    def invalidate(self, address: int) -> None:
        index, line = self._split(address)
        if self._tags[index] == line:
            self._tags[index] = -1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.accesses else 0.0


@dataclass
class PipelinedCachePort:
    """Port/occupancy model for the pipelined external data cache.

    A new access can start each cycle, except while a miss's fill streams
    the line in over the fill busses (``fill_cycles``), during which the
    array is busy — the paper's "LSU ... is using the data busses to fill
    the cache" stall source.  Fills are scheduled for when their data
    *arrives* (the future), so they must not block accesses that start
    earlier; we keep a short list of pending fill windows and only push
    accesses that land inside one.
    """

    access_latency: int = 3
    fill_cycles: int = 2

    def __post_init__(self) -> None:
        self._next_slot = 0  # pipelined: one new access per cycle
        self._fill_windows: list[tuple[int, int]] = []  # (start, end)
        self._max_end = 0  # no window ends after this cycle

    def start_access(self, time: int) -> int:
        """Earliest cycle >= time the port can initiate an access."""
        start = time if time >= self._next_slot else self._next_slot
        if start < self._max_end:
            start = self._skip_fill_windows(start)
        self._next_slot = start + 1
        return start

    def occupy_for_fill(self, time: int) -> int:
        """Reserve the port for a line fill beginning at ``time``.

        Returns the cycle the fill completes.  Accesses already issued
        before ``time`` are unaffected (they were in flight); accesses
        landing inside the window are pushed past it.
        """
        start = self._skip_fill_windows(time)
        end = start + self.fill_cycles
        self._fill_windows.append((start, end))
        if end > self._max_end:
            self._max_end = end
        if len(self._fill_windows) > 32:
            horizon = min(start, self._next_slot)
            self._fill_windows = [
                w for w in self._fill_windows if w[1] > horizon - 64
            ]
        return end

    def _skip_fill_windows(self, time: int) -> int:
        # Every pending window ends at or before _max_end, so a time at
        # or past it cannot land inside any window.
        if time >= self._max_end:
            return time
        moved = True
        while moved:
            moved = False
            for start, end in self._fill_windows:
                if start <= time < end:
                    time = end
                    moved = True
        return time
