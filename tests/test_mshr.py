"""Tests for the MSHR file and the rule the timing loop applies to it.

The loop reserves an entry inline on ``MSHRFile._free_at``; these tests
read the rule back from its ``mshr`` telemetry events.
"""

import pytest

from repro.core.config import BASELINE
from repro.core.mshr import MSHRFile
from repro.core.processor import simulate_trace
from repro.core.stats import StallKind
from repro.func.trace import NO_REG
from repro.isa.instructions import Kind
from repro.isa.program import TEXT_BASE
from repro.telemetry.events import EventBus, EventKind, RingBufferSink

MACHINE = BASELINE.single_issue().with_(prefetch_enabled=False)
LINE_A = 0x1000_0000
LINE_B = LINE_A + 0x1000
LINE_C = LINE_A + 0x2000


def _load(slot, dst, addr):
    return (TEXT_BASE + 4 * slot, int(Kind.LOAD), dst, NO_REG, NO_REG, addr)


def _run(trace, mshrs):
    """(stats, [(alloc cycle, slot, release cycle)], issue cycles)."""
    sink = RingBufferSink()
    stats = simulate_trace(
        trace, MACHINE.with_(mshr_entries=mshrs), telemetry=EventBus(sink)
    ).stats
    holds, issues = [], []
    for event in sink:
        if event.kind is EventKind.MSHR_ALLOC:
            holds.append([event.cycle, event.fields["slot"], None])
        elif event.kind is EventKind.MSHR_RELEASE:
            assert holds[-1][1] == event.fields["slot"]
            holds[-1][2] = event.cycle
        elif event.kind is EventKind.RETIRE:
            issues.append(event.fields["issue"])
    return stats, [tuple(hold) for hold in holds], issues


#: Independent loads: three misses to distinct lines and three hits.
STREAM = [
    _load(0, 8, LINE_A),
    _load(1, 9, LINE_B),
    _load(2, 10, LINE_A + 4),
    _load(3, 11, LINE_C),
    _load(4, 12, LINE_B + 4),
    _load(5, 13, LINE_A + 8),
]


class TestMSHRFile:
    def test_needs_one_entry(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    def test_immediate_grant_when_free(self):
        stats, holds, issues = _run([_load(0, 8, LINE_A)], mshrs=2)
        (alloc, _slot, _release), = holds
        assert alloc == issues[0] + 1  # address generation only
        assert stats.stall_cycles[StallKind.LSU] == 0

    def test_single_entry_serialises(self):
        stats, holds, _ = _run(STREAM, mshrs=1)
        assert len(holds) == len(STREAM)
        for (_, _, release), (alloc, _, _) in zip(holds, holds[1:]):
            assert alloc >= release
        assert stats.stall_cycles[StallKind.LSU] > 0

    def test_two_entries_overlap(self):
        _, holds, _ = _run(STREAM[:2], mshrs=2)
        (first, slot_a, release), (second, slot_b, _) = holds
        assert slot_a != slot_b
        assert first < second < release

    def test_all_free_at(self):
        mshr = MSHRFile(2)
        assert mshr.all_free_at == 0
        mshr._free_at[:] = [15, 40]  # busy-until times, as the loop writes
        assert mshr.all_free_at == 40

    def test_more_entries_never_later_grants(self):
        """With the same load stream, a bigger file grants no later."""
        grants = {}
        cycles = {}
        for entries in (1, 2, 4):
            stats, holds, _ = _run(STREAM, mshrs=entries)
            grants[entries] = [alloc for alloc, _, _ in holds]
            cycles[entries] = stats.cycles
        for smaller, larger in ((1, 2), (2, 4)):
            assert all(
                a >= b for a, b in zip(grants[smaller], grants[larger])
            )
            assert cycles[smaller] >= cycles[larger]
        assert cycles[1] > cycles[4]
