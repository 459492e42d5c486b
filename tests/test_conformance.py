"""Conformance rows: micro-traces whose cycles are derived by hand.

Each row's expected ``cycles`` and per-``StallKind`` split come from the
rules in docs/MODELING.md and the paper's parameters (PAPER.md), worked
out in the comment beside the row, never from a run of the simulator.
A row that disagrees with the loop is either a wrong derivation (fix
the prose) or a model bug (pin it as a strict xfail, as
``test_processor.py::TestConflictReMiss`` is).

Machine for every row: the baseline (17-cycle secondary latency, a
3-cycle pipelined D-cache, 4-cycle BIU bus occupancy, a 6-entry ROB
retiring 2 per cycle) at single issue with the stream buffers off, so
each row has exactly one I-cache miss and no prefetch traffic.  All
records sit in the first 32-byte I-cache line at ``TEXT_BASE``.

Rules the derivations use (docs/MODELING.md):

* fetch: a cold I-cache line is requested from the BIU at cycle 0,
  arrives at 0 + 17 and is usable one cycle later, at 18;
* issue = max(in-order floor, fetch, operands, ROB, LSU floor); at
  single issue the in-order floor is the previous issue + 1, and the
  gap above it is charged to the binding constraint;
* LSU: the access starts the cycle after issue (address generation) on
  a port that starts one access per cycle, and not inside a fill's
  2-cycle window, which opens when the fill's data arrives;
* a D-cache hit has its data 3 cycles after the access starts; a miss
  is granted the BIU bus at the access (held 4 cycles), arrives 17
  later, and its data is usable one cycle after arrival;
* MSHRs: every memory instruction holds one from its access until its
  data is back (a hit: access + 3; a miss: arrival + 1), and a memory
  instruction cannot issue later than one cycle before its access, so
  a wait for an MSHR is an LSU stall at issue: issue >= free - 1;
* retire is in order; a run ends at its last retire (no stores, so no
  write-cache drain).
"""

import pytest

from repro.core.config import BASELINE
from repro.core.processor import simulate_trace
from repro.core.stats import StallKind
from repro.func.trace import NO_REG
from repro.isa.instructions import Kind
from repro.isa.program import TEXT_BASE

MACHINE = BASELINE.single_issue().with_(prefetch_enabled=False)

#: Two data lines in different D-cache sets.
LINE_A = 0x1000_0000
LINE_B = LINE_A + 0x1000


def _load(slot, dst, addr):
    return (TEXT_BASE + 4 * slot, int(Kind.LOAD), dst, NO_REG, NO_REG, addr)


def _alu(slot, dst, src):
    return (TEXT_BASE + 4 * slot, int(Kind.ALU), dst, src, NO_REG, 0)


def _run(trace, mshrs):
    return simulate_trace(trace, MACHINE.with_(mshr_entries=mshrs)).stats


def _stalls(**cycles):
    split = {kind: 0 for kind in StallKind}
    for name, count in cycles.items():
        split[StallKind[name]] = count
    return split


#: A miss that warms LINE_A, a use that waits for it, then two
#: independent loads that hit LINE_A.
#:
#: r0  load r8, A      fetch 18 (ICACHE 18), issue 18, access 19; miss:
#:                     bus 19, arrival 36, data 37; fill window [36, 38).
#:                     MSHR held to 37.  Retires 37.
#: r1  alu  r9, r8     floor 19, operand 37: issue 37 (LOAD 18).
#:                     Retires 38.
#: r2  load r10, A+4   floor 38; LSU floor 37 - 1 = 36: issue 38.
#:                     Access 39 (past the window), hit: data 42.
#:                     Retires 42.
#: r3  load r11, A+8   floor 39.  Then:
#:   one MSHR:   it frees at r2's data, 42, so issue 41 (LSU 2);
#:               access 42, data 45.  Retires 45: cycles 45.
#:   two MSHRs:  the free entry has been free since 37; the port floor
#:               is r2's access, 39, so issue 39 (no stall); access 40,
#:               data 43.  Retires 43: cycles 43.
TWO_HITS = [
    _load(0, 8, LINE_A),
    _alu(1, 9, 8),
    _load(2, 10, LINE_A + 4),
    _load(3, 11, LINE_A + 8),
]

#: A miss to LINE_A and an independent miss to LINE_B.
#:
#: r0  load r8, A      as above: issue 18 (ICACHE 18), access 19, bus
#:                     19-23, arrival 36, data 37, window [36, 38).
#:                     Retires 37.
#: r1  load r9, B      floor 19.  Then:
#:   one MSHR:   r0 holds it until its data, 37, so issue 36 (LSU 17);
#:               access wants 37, inside the window: 38.  Bus 38,
#:               arrival 55, data 56.  Retires 56: cycles 56.
#:   two MSHRs:  issue 19 (no stall), access 20.  The bus is busy until
#:               23: arrival 40, data 41.  Retires 41: cycles 41.
TWO_MISSES = [
    _load(0, 8, LINE_A),
    _load(1, 9, LINE_B),
]


class TestMshrRows:
    def test_one_mshr_serialises_two_hits(self):
        stats = _run(TWO_HITS, mshrs=1)
        assert stats.cycles == 45
        assert stats.stall_cycles == _stalls(ICACHE=18, LOAD=18, LSU=2)

    def test_two_mshrs_overlap_two_hits(self):
        stats = _run(TWO_HITS, mshrs=2)
        assert stats.cycles == 43
        assert stats.stall_cycles == _stalls(ICACHE=18, LOAD=18)

    def test_miss_holds_its_mshr_until_the_fill_returns(self):
        stats = _run(TWO_MISSES, mshrs=1)
        assert stats.cycles == 56
        assert stats.stall_cycles == _stalls(ICACHE=18, LSU=17)

    def test_second_mshr_overlaps_two_misses(self):
        stats = _run(TWO_MISSES, mshrs=2)
        assert stats.cycles == 41
        assert stats.stall_cycles == _stalls(ICACHE=18)

    @pytest.mark.parametrize(
        "trace, accesses, misses", [(TWO_HITS, 3, 1), (TWO_MISSES, 2, 2)]
    )
    def test_rows_hit_and_miss_as_derived(self, trace, accesses, misses):
        stats = _run(trace, mshrs=1)
        assert stats.dcache_accesses == accesses
        assert stats.dcache_accesses - stats.dcache_hits == misses
