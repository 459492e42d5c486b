"""Unit tests for the MSHR file."""

import pytest

from repro.core.mshr import MSHRFile


class TestMSHRFile:
    def test_needs_one_entry(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    def test_immediate_grant_when_free(self):
        mshr = MSHRFile(2)
        grant, slot = mshr.allocate(10)
        assert grant == 10
        assert mshr.allocations == 1

    def test_single_entry_serialises(self):
        mshr = MSHRFile(1)
        grant, slot = mshr.allocate(0)
        mshr.set_release(slot, 20)
        grant2, _ = mshr.allocate(5)
        assert grant2 == 20
        assert mshr.stall_cycles == 15

    def test_two_entries_overlap(self):
        mshr = MSHRFile(2)
        g1, s1 = mshr.allocate(0)
        mshr.set_release(s1, 20)
        g2, s2 = mshr.allocate(1)
        assert g2 == 1  # second entry available
        mshr.set_release(s2, 25)
        g3, _ = mshr.allocate(2)
        assert g3 == 20  # back to waiting on the earliest release

    def test_set_release_never_shrinks(self):
        mshr = MSHRFile(1)
        _, slot = mshr.allocate(0)
        mshr.set_release(slot, 30)
        mshr.set_release(slot, 10)  # ignored
        assert mshr.all_free_at == 30

    def test_all_free_at(self):
        mshr = MSHRFile(2)
        _, s1 = mshr.allocate(0)
        mshr.set_release(s1, 15)
        _, s2 = mshr.allocate(0)
        mshr.set_release(s2, 40)
        assert mshr.all_free_at == 40

    def test_more_entries_never_later_grants(self):
        """With the same request stream, a bigger file grants no later."""
        stream = [(0, 17), (1, 17), (2, 17), (3, 3), (4, 17), (5, 3)]
        grants = {}
        for entries in (1, 2, 4):
            mshr = MSHRFile(entries)
            total = 0
            for t, hold in stream:
                grant, slot = mshr.allocate(t)
                mshr.set_release(slot, grant + hold)
                total += grant
            grants[entries] = total
        assert grants[1] >= grants[2] >= grants[4]
