"""Machine configurations: Table 1's three models plus free parameters.

The paper evaluates three machine models (Table 1)::

    Model     I$    D$     WriteCache  ROB  PrefetchBufs  MSHRs
    Small     1 KB  16 KB  2 lines     2    2             1
    Baseline  2 KB  32 KB  4 lines     6    4             2
    Large     4 KB  64 KB  8 lines     8    8             4

each in single- and dual-issue variants and with secondary-memory average
latencies of 17 and 35 cycles.  :class:`MachineConfig` captures those knobs
plus the ones the sensitivity studies sweep (prefetch on/off, MSHR count,
write-cache size, branch folding) and the FPU design space of Section 5.7+
(:class:`FPUConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum


class FPIssuePolicy(Enum):
    """The three FPU issue policies of paper Section 5.8."""

    IN_ORDER_COMPLETION = "in_order"  # no overlap between FP instructions
    SINGLE_ISSUE = "single"  # in-order issue, out-of-order completion
    DUAL_ISSUE = "dual"  # two per cycle, out-of-order completion


@dataclass(frozen=True)
class FPUConfig:
    """Decoupled-FPU resources (paper Sections 3 and 5.7-5.11).

    Defaults are the paper's final recommendation (Section 5.11): dual
    issue, 5-entry instruction queue, 2-entry load data queue, 6-entry
    reorder buffer, 3-cycle add, 5-cycle multiply, 19-cycle divide, 2
    result busses.  The multiply and divide units are iterative (not
    pipelined) in the implemented design; the add and convert units are
    pipelined.  ``*_pipelined=False`` makes a unit block until its current
    operation completes (the Section 5.10 ablation).
    """

    issue_policy: FPIssuePolicy = FPIssuePolicy.DUAL_ISSUE
    instruction_queue: int = 5
    load_queue: int = 2
    store_queue: int = 3
    rob_entries: int = 6
    add_latency: int = 3
    add_pipelined: bool = True
    mul_latency: int = 5
    mul_pipelined: bool = False
    div_latency: int = 19
    cvt_latency: int = 2
    cvt_pipelined: bool = True
    result_buses: int = 2

    #: Sanity ceilings: queue/ROB sizes past this are configuration
    #: garbage, not design points (the paper sweeps 1-9 entries).
    MAX_QUEUE = 4096
    MAX_LATENCY = 10_000
    MAX_BUSES = 8

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "FPUConfig":
        """Check every field; raises :class:`ConfigError` naming each
        offending field.  Returns ``self`` so calls chain."""
        problems = self._violations()
        if problems:
            raise ConfigError("invalid FPUConfig: " + "; ".join(problems))
        return self

    def _violations(self) -> list[str]:
        problems: list[str] = []
        if not isinstance(self.issue_policy, FPIssuePolicy):
            problems.append(
                f"issue_policy must be an FPIssuePolicy, "
                f"got {type(self.issue_policy).__name__}"
            )
        for name in ("instruction_queue", "load_queue", "store_queue",
                     "rob_entries"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                problems.append(
                    f"{name} must be an integer >= 1 (got {value!r})"
                )
            elif value > self.MAX_QUEUE:
                problems.append(
                    f"{name} of {value} exceeds the sanity ceiling "
                    f"{self.MAX_QUEUE}"
                )
        for name in ("add_latency", "mul_latency", "div_latency",
                     "cvt_latency"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                problems.append(
                    f"{name} must be an integer >= 1 (got {value!r})"
                )
            elif value > self.MAX_LATENCY:
                problems.append(
                    f"{name} of {value} exceeds the sanity ceiling "
                    f"{self.MAX_LATENCY}"
                )
        if not _is_int(self.result_buses) or self.result_buses < 1:
            problems.append(
                f"result_buses must be an integer >= 1 "
                f"(got {self.result_buses!r})"
            )
        elif self.result_buses > self.MAX_BUSES:
            problems.append(
                f"result_buses of {self.result_buses} exceeds the sanity "
                f"ceiling {self.MAX_BUSES}"
            )
        return problems

    def with_(self, **changes) -> "FPUConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class MachineConfig:
    """One Aurora III machine configuration.

    Sizes are bytes; latencies are cycles.  ``mem_latency`` is the *average*
    secondary-memory latency exactly as the paper abstracts it (17 for the
    medium clock rate, 35 for the fast one).  ``prefetch_line_depth`` is the
    number of line slots per stream buffer (the paper's buffers ramp from
    one line up to a full buffer; the depth makes the baseline pool ~20 % of
    the I-cache, matching Section 5.2's cost remark).
    """

    name: str = "baseline"
    issue_width: int = 2
    icache_bytes: int = 2 * 1024
    dcache_bytes: int = 32 * 1024
    line_bytes: int = 32
    writecache_lines: int = 4
    rob_entries: int = 6
    prefetch_buffers: int = 4
    prefetch_line_depth: int = 2
    mshr_entries: int = 2
    mem_latency: int = 17
    dcache_latency: int = 3
    bus_occupancy: int = 4  # cycles one line transfer holds a BIU bus
    retire_width: int = 2
    prefetch_enabled: bool = True
    branch_folding: bool = True
    write_validation: bool = True
    page_bytes: int = 4096
    split_prefetch_pool: bool = False  # ablation: dedicated I/D buffer halves
    #: Precise FP exceptions (paper Section 3.1's conservative mode): an
    #: FP instruction may not retire from the IPU's reorder buffer until
    #: the FPU has completed it and no exception is possible.
    fpu_precise_exceptions: bool = False
    fpu: FPUConfig = field(default_factory=FPUConfig)

    #: Sanity ceilings separating ambitious design points from garbage.
    MAX_CACHE_BYTES = 1 << 30
    MAX_STRUCTURE = 4096
    MAX_LATENCY = 1_000_000
    #: A full write-cache drain may take at most this many memory round
    #: trips; a write cache the BIU cannot drain within that bound stalls
    #: the machine indefinitely on every flush and is not a buildable point.
    MAX_DRAIN_ROUND_TRIPS = 16

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "MachineConfig":
        """Check every field and cross-field constraint.

        Collects *all* violations and raises one :class:`ConfigError`
        whose message names each offending field, instead of today's
        garbage-in/garbage-out.  Returns ``self`` so calls chain::

            result = simulate_trace(trace, config.validate())
        """
        problems = self._violations()
        if problems:
            raise ConfigError("invalid MachineConfig: " + "; ".join(problems))
        return self

    def _violations(self) -> list[str]:
        problems: list[str] = []
        if not _is_int(self.issue_width) or self.issue_width not in (1, 2):
            problems.append(
                f"issue_width must be 1 or 2 (got {self.issue_width!r})"
            )
        if not _is_power_of_two(self.line_bytes) or self.line_bytes < 4:
            problems.append(
                f"line_bytes must be a power of two >= 4 "
                f"(got {self.line_bytes!r})"
            )
            return problems  # cache/page rules below divide by line_bytes
        for name in ("icache_bytes", "dcache_bytes"):
            value = getattr(self, name)
            if (
                not _is_power_of_two(value)
                or value < self.line_bytes
            ):
                problems.append(
                    f"{name} must be a power of two and a multiple of "
                    f"line_bytes={self.line_bytes} (got {value!r})"
                )
            elif value > self.MAX_CACHE_BYTES:
                problems.append(
                    f"{name} of {value} exceeds the sanity ceiling "
                    f"{self.MAX_CACHE_BYTES}"
                )
        if not _is_power_of_two(self.page_bytes) or self.page_bytes < self.line_bytes:
            problems.append(
                f"page_bytes must be a power of two >= line_bytes="
                f"{self.line_bytes} (got {self.page_bytes!r})"
            )
        for name in ("writecache_lines", "rob_entries", "mshr_entries",
                     "prefetch_buffers", "prefetch_line_depth",
                     "retire_width"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                problems.append(
                    f"{name} must be an integer >= 1 (got {value!r})"
                )
            elif value > self.MAX_STRUCTURE:
                problems.append(
                    f"{name} of {value} exceeds the sanity ceiling "
                    f"{self.MAX_STRUCTURE}"
                )
        for name in ("mem_latency", "dcache_latency", "bus_occupancy"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                problems.append(
                    f"{name} must be an integer >= 1 (got {value!r})"
                )
            elif value > self.MAX_LATENCY:
                problems.append(
                    f"{name} of {value} exceeds the sanity ceiling "
                    f"{self.MAX_LATENCY}"
                )
        if not problems:
            # Cross-field rules only once the individual fields are sane.
            drain = self.writecache_lines * self.bus_occupancy
            budget = self.MAX_DRAIN_ROUND_TRIPS * self.mem_latency
            if drain > budget:
                problems.append(
                    f"writecache_lines: a full drain needs "
                    f"{self.writecache_lines} lines x {self.bus_occupancy} "
                    f"bus cycles = {drain} cycles, more than the BIU can "
                    f"drain in {self.MAX_DRAIN_ROUND_TRIPS} memory round "
                    f"trips ({budget} cycles)"
                )
            if self.split_prefetch_pool and self.prefetch_buffers < 2:
                problems.append(
                    "prefetch_buffers: split_prefetch_pool needs at least "
                    f"2 buffers (got {self.prefetch_buffers})"
                )
        if not isinstance(self.fpu, FPUConfig):
            problems.append(
                f"fpu must be an FPUConfig (got {type(self.fpu).__name__})"
            )
        else:
            problems.extend(
                f"fpu.{problem}" for problem in self.fpu._violations()
            )
        return problems

    # ------------------------------------------------------------- variants

    def with_(self, **changes) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def single_issue(self) -> "MachineConfig":
        return self.with_(issue_width=1)

    def dual_issue(self) -> "MachineConfig":
        return self.with_(issue_width=2)

    def with_latency(self, cycles: int) -> "MachineConfig":
        return self.with_(mem_latency=cycles)

    def without_prefetch(self) -> "MachineConfig":
        return self.with_(prefetch_enabled=False)

    def with_mshrs(self, count: int) -> "MachineConfig":
        return self.with_(mshr_entries=count)

    @property
    def label(self) -> str:
        issue = "dual" if self.issue_width == 2 else "single"
        return f"{self.name}/{issue}/L{self.mem_latency}"

    @property
    def icache_lines(self) -> int:
        return self.icache_bytes // self.line_bytes

    @property
    def dcache_lines(self) -> int:
        return self.dcache_bytes // self.line_bytes


class ConfigError(ValueError):
    """Raised for invalid machine configurations."""


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` would pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_power_of_two(value) -> bool:
    return _is_int(value) and value > 0 and value & (value - 1) == 0


def small_model(**overrides) -> MachineConfig:
    """Table 1 'Small': 1 KB I$, 16 KB D$, 2-line WC, 2 ROB, 2 PF, 1 MSHR."""
    base = MachineConfig(
        name="small",
        icache_bytes=1 * 1024,
        dcache_bytes=16 * 1024,
        writecache_lines=2,
        rob_entries=2,
        prefetch_buffers=2,
        mshr_entries=1,
    )
    return base.with_(**overrides) if overrides else base


def baseline_model(**overrides) -> MachineConfig:
    """Table 1 'Baseline': 2 KB I$, 32 KB D$, 4-line WC, 6 ROB, 4 PF, 2 MSHR."""
    base = MachineConfig(name="baseline")
    return base.with_(**overrides) if overrides else base


def large_model(**overrides) -> MachineConfig:
    """Table 1 'Large': 4 KB I$, 64 KB D$, 8-line WC, 8 ROB, 8 PF, 4 MSHR."""
    base = MachineConfig(
        name="large",
        icache_bytes=4 * 1024,
        dcache_bytes=64 * 1024,
        writecache_lines=8,
        rob_entries=8,
        prefetch_buffers=8,
        mshr_entries=4,
    )
    return base.with_(**overrides) if overrides else base


def recommended_model(**overrides) -> MachineConfig:
    """Section 5.6 'point E': large I$ with baseline-sized everything else.

    4 KB I-cache, 4-entry write cache, 6-entry reorder buffer, 4 MSHRs.
    """
    base = MachineConfig(
        name="recommended",
        icache_bytes=4 * 1024,
        dcache_bytes=64 * 1024,
        writecache_lines=4,
        rob_entries=6,
        prefetch_buffers=4,
        mshr_entries=4,
    )
    return base.with_(**overrides) if overrides else base


SMALL = small_model()
BASELINE = baseline_model()
LARGE = large_model()
RECOMMENDED = recommended_model()

#: The three Table 1 models in paper order.
TABLE1_MODELS: tuple[MachineConfig, ...] = (SMALL, BASELINE, LARGE)
