"""Simulation statistics: CPI, stall breakdown, structure hit rates.

The paper's Figure 6 decomposes stall cycles into four IPU stall
conditions: instruction-cache stalls, load stalls (result of a load
referenced before the LSU returned it), reorder-buffer-full stalls, and
LSU stalls (LSU full / busy filling the cache).  :class:`StallKind` adds
two bookkeeping categories the integer breakdown of the paper does not
plot: PAIRING (cycles lost to dual-issue pairing restrictions — part of
base CPI in the paper's accounting) and FPU (decoupling-queue
backpressure and waits on FPU results, which only occur in FP codes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum


class InvariantError(AssertionError):
    """A :class:`SimStats` sanity relation does not hold.

    Subclasses :class:`AssertionError` for backward compatibility with
    callers that caught the old bare ``assert`` failures, but is raised
    explicitly so ``python -O`` cannot strip the checks.
    """


class StallKind(Enum):
    ICACHE = "icache"
    LOAD = "load"
    ROB_FULL = "rob_full"
    LSU = "lsu"
    PAIRING = "pairing"
    FPU = "fpu"

    @classmethod
    def paper_categories(cls) -> tuple["StallKind", ...]:
        """The four categories of Figure 6, in the paper's order."""
        return (cls.ICACHE, cls.LOAD, cls.ROB_FULL, cls.LSU)


@dataclass
class SimStats:
    """Everything one timing-simulation run measures."""

    instructions: int = 0
    cycles: int = 0
    stall_cycles: dict[StallKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in StallKind}
    )
    # primary caches (per-reference counting, Gee et al. methodology)
    icache_accesses: int = 0
    icache_hits: int = 0
    dcache_accesses: int = 0
    dcache_hits: int = 0
    # prefetch (Tables 3/4): hits among primary misses
    iprefetch_lookups: int = 0
    iprefetch_hits: int = 0
    dprefetch_lookups: int = 0
    dprefetch_hits: int = 0
    # write cache (Table 5)
    writecache_accesses: int = 0
    writecache_hits: int = 0
    store_instructions: int = 0
    store_transactions: int = 0
    # instruction classes
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    fp_instructions: int = 0
    dual_issued_pairs: int = 0
    # FPU-side
    fpu_instructions: int = 0
    fpu_busy_cycles: int = 0

    # ------------------------------------------------------------ derived

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def icache_hit_rate(self) -> float:
        return self.icache_hits / self.icache_accesses if self.icache_accesses else 0.0

    @property
    def dcache_hit_rate(self) -> float:
        return self.dcache_hits / self.dcache_accesses if self.dcache_accesses else 0.0

    @property
    def iprefetch_hit_rate(self) -> float:
        if not self.iprefetch_lookups:
            return 0.0
        return self.iprefetch_hits / self.iprefetch_lookups

    @property
    def dprefetch_hit_rate(self) -> float:
        if not self.dprefetch_lookups:
            return 0.0
        return self.dprefetch_hits / self.dprefetch_lookups

    @property
    def writecache_hit_rate(self) -> float:
        if not self.writecache_accesses:
            return 0.0
        return self.writecache_hits / self.writecache_accesses

    @property
    def store_traffic_ratio(self) -> float:
        """Store BIU transactions / store instructions (Section 5.5)."""
        if not self.store_instructions:
            return 0.0
        return self.store_transactions / self.store_instructions

    @property
    def dual_issue_rate(self) -> float:
        """Fraction of instructions issued as the second half of a pair."""
        if not self.instructions:
            return 0.0
        return 2 * self.dual_issued_pairs / self.instructions

    def copy(self) -> "SimStats":
        """An independent copy (the stall-cycle dict is not shared)."""
        return replace(self, stall_cycles=dict(self.stall_cycles))

    # -------------------------------------------------------- round-trip

    def to_dict(self) -> dict:
        """JSON-ready mapping with a *stable* field order.

        Fields appear in dataclass-definition order and stall cycles in
        :class:`StallKind` enum order, so two equal stats objects always
        serialize to byte-identical JSON — the serve memo store leans on
        that to compare a memoized response against a fresh simulation.
        """
        data: dict = {}
        for spec in fields(self):
            if spec.name == "stall_cycles":
                data["stall_cycles"] = {
                    kind.value: int(self.stall_cycles.get(kind, 0))
                    for kind in StallKind
                }
            else:
                data[spec.name] = getattr(self, spec.name)
        return data

    @classmethod
    def from_dict(cls, data: object) -> "SimStats":
        """Rebuild a :class:`SimStats` from :meth:`to_dict` output.

        Raises :class:`ValueError` naming the problem for anything that
        is not a faithful round-trip image (missing fields, unknown
        fields or stall kinds, non-integer counts) — the memo store
        treats that as a corrupt entry and recomputes.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"SimStats payload must be an object, "
                f"got {type(data).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown SimStats fields: {', '.join(unknown)}")
        kwargs: dict = {}
        for spec in fields(cls):
            if spec.name not in data:
                raise ValueError(f"missing SimStats field {spec.name!r}")
            value = data[spec.name]
            if spec.name == "stall_cycles":
                if not isinstance(value, dict):
                    raise ValueError(
                        f"stall_cycles must be an object, "
                        f"got {type(value).__name__}"
                    )
                stalls = {kind: 0 for kind in StallKind}
                for raw_kind, cycles in value.items():
                    try:
                        kind = StallKind(raw_kind)
                    except ValueError:
                        raise ValueError(
                            f"unknown stall kind {raw_kind!r}"
                        ) from None
                    if not isinstance(cycles, int) or isinstance(cycles, bool):
                        raise ValueError(
                            f"stall_cycles[{raw_kind!r}] must be an int, "
                            f"got {cycles!r}"
                        )
                    stalls[kind] = cycles
                kwargs["stall_cycles"] = stalls
            else:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(
                        f"SimStats field {spec.name!r} must be an int, "
                        f"got {value!r}"
                    )
                kwargs[spec.name] = value
        return cls(**kwargs)

    def stall_cpi(self, kind: StallKind) -> float:
        """Stall cycles per instruction for one category (Figure 6 bars)."""
        if not self.instructions:
            return 0.0
        return self.stall_cycles[kind] / self.instructions

    @property
    def total_stall_cycles(self) -> int:
        return sum(self.stall_cycles.values())

    def check_invariants(self) -> None:
        """Sanity relations every run must satisfy.

        Raises :class:`InvariantError` (not a bare ``assert``, which
        ``python -O`` strips to a no-op) so the checks hold in optimised
        runs too.
        """
        relations = (
            (self.cycles >= 0, f"negative cycles: {self.cycles}"),
            (
                self.instructions >= 0,
                f"negative instructions: {self.instructions}",
            ),
            (
                self.icache_hits <= self.icache_accesses,
                f"icache hits {self.icache_hits} > "
                f"accesses {self.icache_accesses}",
            ),
            (
                self.dcache_hits <= self.dcache_accesses,
                f"dcache hits {self.dcache_hits} > "
                f"accesses {self.dcache_accesses}",
            ),
            (
                self.writecache_hits <= self.writecache_accesses,
                f"writecache hits {self.writecache_hits} > "
                f"accesses {self.writecache_accesses}",
            ),
            (
                self.iprefetch_hits <= self.iprefetch_lookups,
                f"iprefetch hits {self.iprefetch_hits} > "
                f"lookups {self.iprefetch_lookups}",
            ),
            (
                self.dprefetch_hits <= self.dprefetch_lookups,
                f"dprefetch hits {self.dprefetch_hits} > "
                f"lookups {self.dprefetch_lookups}",
            ),
            (
                all(value >= 0 for value in self.stall_cycles.values()),
                f"negative stall cycles: {self.stall_cycles}",
            ),
            (
                self.total_stall_cycles <= max(self.cycles, 0) * 2,
                f"stall cycles {self.total_stall_cycles} exceed "
                f"2x total cycles {self.cycles}",
            ),
        )
        for holds, what in relations:
            if not holds:
                raise InvariantError(f"SimStats invariant violated: {what}")

    def summary(self) -> str:
        """Human-readable one-run report."""
        lines = [
            f"instructions      {self.instructions:>12,}",
            f"cycles            {self.cycles:>12,}",
            f"CPI               {self.cpi:>12.4f}",
            f"I-cache hit rate  {self.icache_hit_rate:>12.2%}",
            f"D-cache hit rate  {self.dcache_hit_rate:>12.2%}",
            f"I-prefetch hits   {self.iprefetch_hit_rate:>12.2%}",
            f"D-prefetch hits   {self.dprefetch_hit_rate:>12.2%}",
            f"write-cache hits  {self.writecache_hit_rate:>12.2%}",
            f"store traffic     {self.store_traffic_ratio:>12.2%}",
        ]
        for kind in StallKind:
            lines.append(
                f"stall[{kind.value:<9}] {self.stall_cpi(kind):>12.4f} CPI"
            )
        return "\n".join(lines)


def average_cpi(stats_list: list[SimStats]) -> float:
    """Arithmetic mean CPI across benchmark runs (the paper's averages)."""
    if not stats_list:
        return 0.0
    return sum(s.cpi for s in stats_list) / len(stats_list)
