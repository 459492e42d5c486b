"""Bus Interface Unit and secondary-memory model.

The paper abstracts the memory system below the primary caches as an
*average* secondary latency (17 or 35 cycles) behind a split-transaction
bus (Section 2, "Bus Interface Unit").  We model exactly that abstraction:

* each line transaction occupies the transmit path for ``occupancy``
  cycles (a 32-byte line over the 32-bit double-data-rate IPU-MMU bus is
  four bus cycles),
* a transaction issued at time *t* is granted at ``max(t, bus_free)`` and
  its data arrives ``latency`` cycles after the grant,
* transmit and receive are independent (split transactions), so we only
  serialise on the transmit side; responses are assumed to use the
  receive queue without conflict, matching the collision-based protocol
  description.

The BIU also counts traffic by class, which Table 5's store-traffic
reduction figures and the prefetch studies report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.events import EventKind


#: The transaction classes :class:`BIUStats` counts, one field each.
TXN_KINDS = frozenset(("ifetch", "dread", "write", "prefetch", "mmu"))


@dataclass
class BIUStats:
    """Transaction counts by class."""

    ifetch: int = 0
    dread: int = 0
    write: int = 0
    prefetch: int = 0
    mmu: int = 0

    @property
    def total(self) -> int:
        return self.ifetch + self.dread + self.write + self.prefetch + self.mmu


@dataclass
class BusInterfaceUnit:
    """Timestamp model of the split-transaction processor-memory interface."""

    latency: int
    occupancy: int = 4
    stats: BIUStats = field(default_factory=BIUStats)
    _transmit_free: int = 0
    #: Optional :class:`repro.telemetry.events.EventBus`; falsy = off.
    telemetry: object | None = field(default=None, repr=False, compare=False)

    def request(self, time: int, kind: str) -> int:
        """Issue one line transaction; return the data-arrival time.

        ``kind`` is one of ``ifetch``, ``dread``, ``write``, ``prefetch``,
        ``mmu``.  Writes and MMU queries still get an arrival time — it is
        the completion (acknowledge) time the write cache or validation
        logic waits on.
        """
        if time < 0:
            raise ValueError(f"negative request time {time}")
        if kind not in TXN_KINDS:
            raise ValueError(f"unknown transaction kind {kind!r}")
        grant = time if time >= self._transmit_free else self._transmit_free
        self._transmit_free = grant + self.occupancy
        self.stats.__dict__[kind] += 1
        if self.telemetry:
            self.telemetry.emit(
                grant,
                "biu",
                EventKind.BIU_TXN,
                txn=kind,
                requested=time,
                arrival=grant + self.latency,
            )
        return grant + self.latency

    @property
    def transmit_free(self) -> int:
        """Time at which the transmit path next becomes idle."""
        return self._transmit_free
