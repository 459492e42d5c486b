"""Unit tests for the coalescing write cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.biu import BusInterfaceUnit
from repro.core.writecache import (
    WC_EVICT,
    WC_HIT,
    WC_RESIDENT,
    WC_SLOT_SHIFT,
    WriteCache,
)
from repro.func.prepared import prepare_trace
from repro.func.trace import NO_REG
from repro.isa.instructions import Kind


def make_wc(lines=4, latency=17, validation=True):
    biu = BusInterfaceUnit(latency=latency, occupancy=4)
    return WriteCache(lines, 32, biu, write_validation=validation), biu


class TestCoalescing:
    def test_needs_one_line(self):
        biu = BusInterfaceUnit(latency=17)
        with pytest.raises(ValueError):
            WriteCache(0, 32, biu)

    def test_same_line_stores_coalesce(self):
        wc, biu = make_wc()
        wc.store(0x1000, 0)
        wc.store(0x1004, 1)
        wc.store(0x1000, 2)  # overwrite
        assert wc.stats.hits == 2
        assert wc.stats.store_transactions == 0  # nothing evicted yet

    def test_eviction_on_capacity(self):
        wc, biu = make_wc(lines=2)
        wc.store(0x1000, 0)
        wc.store(0x2000, 1)
        wc.store(0x3000, 2)  # evicts LRU (0x1000 line)
        assert wc.stats.store_transactions == 1
        assert biu.stats.write == 1
        assert not wc.contains_line(0x1000 >> 5)
        assert wc.contains_line(0x3000 >> 5)

    def test_lru_refresh_on_hit(self):
        wc, _ = make_wc(lines=2)
        wc.store(0x1000, 0)
        wc.store(0x2000, 1)
        wc.store(0x1004, 2)  # refresh line 0x1000
        wc.store(0x3000, 3)  # should evict 0x2000, not 0x1000
        assert wc.contains_line(0x1000 >> 5)
        assert not wc.contains_line(0x2000 >> 5)

    def test_never_used_lines_fill_in_array_order(self):
        wc, _ = make_wc(lines=4)
        wc.store(0x3000, 0)
        wc.store(0x1000, 1)
        assert [entry.line for entry in wc._lines] == [
            0x3000 >> 5, 0x1000 >> 5, -1, -1
        ]

    def test_flush_writes_all_dirty(self):
        wc, biu = make_wc(lines=4)
        for i in range(3):
            wc.store(0x1000 + 0x100 * i, i)
        done = wc.flush(10)
        assert wc.stats.store_transactions == 3
        assert done >= 10
        # flushed lines are gone
        assert not wc.contains_line(0x1000 >> 5)

    def test_traffic_ratio(self):
        wc, _ = make_wc(lines=2)
        # eight sequential words: one line, one eventual transaction
        for i in range(8):
            wc.store(0x1000 + 4 * i, i)
        wc.flush(100)
        assert wc.stats.store_instructions == 8
        assert wc.stats.store_transactions == 1
        assert wc.stats.traffic_ratio == pytest.approx(1 / 8)


class TestLoadForwarding:
    def test_load_hit_requires_written_word(self):
        wc, _ = make_wc()
        wc.store(0x1000, 0)
        assert wc.load_lookup(0x1000, 1)  # written word forwards
        assert not wc.load_lookup(0x1004, 2)  # same line, unwritten word
        assert not wc.load_lookup(0x2000, 3)  # absent line

    def test_hit_rate_includes_loads_and_stores(self):
        wc, _ = make_wc()
        wc.store(0x1000, 0)  # miss (allocate)
        wc.store(0x1004, 1)  # hit
        wc.load_lookup(0x1000, 2)  # hit
        wc.load_lookup(0x3000, 3)  # miss
        assert wc.stats.accesses == 4
        assert wc.stats.hits == 2
        assert wc.stats.hit_rate == pytest.approx(0.5)


class TestWriteValidation:
    def test_first_store_to_new_page_validates(self):
        wc, biu = make_wc()
        done = wc.store(0x1000, 0)
        assert wc.stats.validation_misses == 1
        assert biu.stats.mmu == 1
        assert done >= 17  # waited for the MMU round trip

    def test_same_page_match_is_fast(self):
        wc, biu = make_wc()
        wc.store(0x1000, 0)
        done = wc.store(0x1200, 30)  # different line, same 4 KB page
        assert wc.stats.validation_misses == 1  # no second MMU query
        assert done == 31

    def test_validation_disabled(self):
        wc, biu = make_wc(validation=False)
        done = wc.store(0x1000, 0)
        assert biu.stats.mmu == 0
        assert done == 1

    def test_victims_own_page_validates_the_miss(self):
        # The page match sees the array before the victim is replaced.
        wc, biu = make_wc(lines=1)
        wc.store(0x1000, 0)
        done = wc.store(0x1200, 30)  # evicts 0x1000's line, same page
        assert biu.stats.mmu == 1
        assert done >= 31

    def test_flushed_line_page_does_not_validate(self):
        wc, biu = make_wc(lines=1)
        wc.store(0x1000, 0)
        wc.flush(10)  # the entry keeps its stale page field
        wc.store(0x1200, 50)
        assert biu.stats.mmu == 2

    def test_micro_tlb_capacity(self):
        """Four lines = four page slots; a fifth page re-validates."""
        wc, biu = make_wc(lines=4)
        for page in range(4):
            wc.store(0x10_000 * page, page)
        assert biu.stats.mmu == 4
        wc.store(0x50_000, 10)  # fifth distinct page
        assert biu.stats.mmu == 5


class TestFpStoreSync:
    def test_line_waits_for_fp_data_before_eviction(self):
        wc, biu = make_wc(lines=1)
        wc.store(0x1000, 0, fp_data_at=100)  # FP store, data arrives late
        done = wc.store(0x2000, 5)  # forces eviction of the FP line
        # the eviction cannot have gone out before the data existed
        assert done >= 100

    def test_fp_data_time_updates_on_coalesce(self):
        wc, _ = make_wc(lines=1)
        wc.store(0x1000, 0, fp_data_at=50)
        wc.store(0x1004, 1, fp_data_at=90)
        done = wc.store(0x2000, 5)
        assert done >= 90


# ------------------------------------------------- per-trace decision memo


def _memo_stream(ops):
    """Trace records for a stream of (kind, word) ops; ALU filler too."""
    records = []
    for index, (kind, word) in enumerate(ops):
        pc = 0x400000 + 4 * index
        address = 4 * word
        if kind == "alu":
            records.append((pc, int(Kind.ALU), 8, 9, NO_REG, 0))
        elif kind in ("load", "fp_load"):
            code = Kind.LOAD if kind == "load" else Kind.FP_LOAD
            dst = 8 if kind == "load" else 34
            records.append((pc, int(code), dst, 29, NO_REG, address))
        else:
            code = Kind.STORE if kind == "store" else Kind.FP_STORE
            src = 8 if kind == "store" else 34
            records.append((pc, int(code), NO_REG, 29, src, address))
    return records


class TestDecisionMemo:
    """``PreparedTrace.writecache_decisions`` against a live WriteCache."""

    @given(
        lines=st.integers(1, 16),
        line_shift=st.integers(4, 7),
        page_extra=st.integers(0, 12),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ("alu", "load", "store", "fp_load", "fp_store")
                ),
                st.integers(0, 1 << 12),
            ),
            max_size=200,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_memo_matches_write_cache(
        self, lines, line_shift, page_extra, ops
    ):
        page_shift = line_shift + page_extra
        trace = prepare_trace(_memo_stream(ops))
        codes, totals = trace.writecache_decisions(
            line_shift, lines, page_shift
        )
        assert len(codes) == len(ops)

        biu = BusInterfaceUnit(latency=17, occupancy=4)
        wc = WriteCache(
            lines, 1 << line_shift, biu, page_bytes=1 << page_shift
        )
        for time, ((kind, word), code) in enumerate(zip(ops, codes)):
            address = 4 * word
            if kind == "alu":
                assert code == 0
            elif kind.endswith("load"):
                assert code == (WC_HIT if wc.load_lookup(address, time) else 0)
            else:
                hits = wc.stats.hits
                mmu, writes = biu.stats.mmu, biu.stats.write
                wc.store(address, time)
                line = address >> line_shift
                assert wc._lines[code >> WC_SLOT_SHIFT].line == line
                hit = wc.stats.hits - hits
                assert bool(code & WC_HIT) == bool(hit)
                if hit:
                    assert code & (WC_RESIDENT | WC_EVICT) == 0
                else:
                    # An MMU round trip means no resident page matched.
                    assert bool(code & WC_RESIDENT) == (biu.stats.mmu == mmu)
                assert bool(code & WC_EVICT) == (biu.stats.write > writes)
        wc.flush(10 * len(ops) + 1000)
        stats = wc.stats
        assert totals == (
            stats.accesses,
            stats.hits,
            stats.store_instructions,
            stats.store_transactions,
        )

    def test_memo_is_computed_once_per_geometry(self):
        trace = prepare_trace(
            _memo_stream([("store", 0), ("load", 0), ("load", 1)])
        )
        first = trace.writecache_decisions(5, 4, 12)
        assert trace.writecache_decisions(5, 4, 12) is first
        assert trace.writecache_decisions(5, 2, 12) is not first
        assert list(first[0]) == [0, 1, 0]  # slot 0 miss, then a forward
        assert first[1] == (3, 1, 1, 1)
