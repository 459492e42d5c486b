"""Unit tests for the bus interface unit."""

import pytest

from repro.core.biu import BusInterfaceUnit


class TestBIU:
    def test_basic_latency(self):
        biu = BusInterfaceUnit(latency=17, occupancy=4)
        assert biu.request(0, "dread") == 17

    def test_transmit_serialisation(self):
        biu = BusInterfaceUnit(latency=17, occupancy=4)
        assert biu.request(0, "dread") == 17
        # second transaction waits for the transmit path
        assert biu.request(0, "dread") == 4 + 17
        assert biu.request(0, "dread") == 8 + 17

    def test_idle_bus_takes_request_time(self):
        biu = BusInterfaceUnit(latency=17, occupancy=4)
        biu.request(0, "dread")
        assert biu.request(100, "dread") == 117

    def test_counts_by_kind(self):
        biu = BusInterfaceUnit(latency=17)
        biu.request(0, "ifetch")
        biu.request(0, "dread")
        biu.request(0, "write")
        biu.request(0, "prefetch")
        biu.request(0, "mmu")
        assert biu.stats.ifetch == 1
        assert biu.stats.dread == 1
        assert biu.stats.write == 1
        assert biu.stats.prefetch == 1
        assert biu.stats.mmu == 1
        assert biu.stats.total == 5

    def test_unknown_kind_raises(self):
        # "total" is a BIUStats property, not a transaction class; a
        # rejected request must leave the transmit path untouched.
        biu = BusInterfaceUnit(latency=17, occupancy=4)
        biu.request(10, "dread")
        for kind in ("teleport", "total"):
            with pytest.raises(ValueError, match="unknown transaction kind"):
                biu.request(0, kind)
            assert biu.transmit_free == 14
        assert biu.stats.total == 1

    def test_negative_time_raises(self):
        with pytest.raises(ValueError):
            BusInterfaceUnit(latency=17).request(-1, "dread")
