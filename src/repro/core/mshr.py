"""Miss Status Holding Registers (Kroft-style non-blocking cache support).

The paper (Section 2.3): "A number of Miss Status Holding Registers
(MSHRs) maintain the state of pending cache misses.  An MSHR is reserved
for each memory instruction active in the LSU pipeline, and if no MSHRs
are available, the processor stalls until one is free.  A machine with
only one MSHR cannot overlap memory operations, and must process each
load or store sequentially."

So *every* memory instruction — hit or miss — holds an MSHR while it is
active in the LSU: hits for the pipelined-cache access latency, misses
until their fill returns.  With one MSHR the LSU serialises completely,
which is exactly what produces the paper's "points labeled A" cliff in
Figure 8 and the dramatic small-model gain in Figure 7.

Secondary misses to a line already in flight merge: they wait on the same
fill but still occupy their own MSHR slot while active (each memory
instruction reserves one).
"""

from __future__ import annotations


class MSHRFile:
    """Fixed pool of MSHR entries tracked as busy-until timestamps.

    The timing loop applies :meth:`allocate` and
    :meth:`set_release` inline on ``_free_at`` (sharing one ``min`` per
    memory instruction with its LSU hazard floor) and emits their
    ``mshr`` telemetry events itself.
    """

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("MSHR file needs at least one entry")
        self._free_at: list[int] = [0] * entries
        self.entries = entries
        self.allocations = 0
        self.stall_cycles = 0

    def allocate(self, time: int) -> tuple[int, int]:
        """Reserve the earliest-free entry at or after ``time``.

        Returns ``(grant, index)``.  The entry is provisionally held until
        ``grant``; the caller must follow with :meth:`set_release` once the
        instruction's LSU-residency end time is known.
        """
        free_at = self._free_at
        index = free_at.index(min(free_at))
        grant = max(time, self._free_at[index])
        if grant > time:
            self.stall_cycles += grant - time
        self._free_at[index] = grant
        self.allocations += 1
        return grant, index

    def set_release(self, index: int, release: int) -> None:
        """Record when the entry at ``index`` frees."""
        if release > self._free_at[index]:
            self._free_at[index] = release

    @property
    def all_free_at(self) -> int:
        """Time when every entry is free (drain time)."""
        return max(self._free_at)

    def assert_capacity(self) -> None:
        """Runtime invariant guard (polled by the watchdog).

        The file must still hold exactly its configured number of entries
        and every busy-until timestamp must be a non-negative int — a
        violation means state corruption, not machine behaviour.
        """
        from repro.robustness.guards import GuardViolation

        if len(self._free_at) != self.entries:
            raise GuardViolation(
                f"MSHR file holds {len(self._free_at)} entries; "
                f"configured capacity is {self.entries}"
            )
        for index, free_at in enumerate(self._free_at):
            if not isinstance(free_at, int) or free_at < 0:
                raise GuardViolation(
                    f"MSHR entry {index} has corrupt busy-until "
                    f"timestamp {free_at!r}"
                )
