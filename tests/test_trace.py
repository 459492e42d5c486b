"""Unit tests for trace infrastructure (stats, persistence, encodings)."""

import numpy as np
import pytest

from repro.func.trace import (
    FP_REG_BASE,
    HI_REG,
    NO_REG,
    compute_stats,
    is_fp_kind,
    is_memory_kind,
    load_trace_array,
    records_array,
    save_trace_array,
)
from repro.isa.instructions import Kind


def rec(pc, kind, dst=NO_REG, s1=NO_REG, s2=NO_REG, addr=0):
    return (pc, int(kind), dst, s1, s2, addr)


class TestComputeStats:
    def test_mix_counting(self):
        trace = [
            rec(0x400000, Kind.ALU, dst=8),
            rec(0x400004, Kind.LOAD, dst=9, addr=0x1000),
            rec(0x400008, Kind.STORE, s2=9, addr=0x1004),
            rec(0x40000C, Kind.BRANCH, s1=8, addr=0x400000),
            rec(0x400010, Kind.NOP),
        ]
        stats = compute_stats(trace)
        assert stats.total == 5
        assert stats.by_kind[Kind.ALU] == 1
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.taken_branches == 1
        assert stats.fraction(Kind.NOP) == pytest.approx(0.2)

    def test_footprints(self):
        trace = [
            rec(0x400000, Kind.ALU),
            rec(0x400020, Kind.ALU),  # second code line
            rec(0x400024, Kind.LOAD, addr=0x1000),
            rec(0x400028, Kind.LOAD, addr=0x1004),  # same data line
            rec(0x40002C, Kind.LOAD, addr=0x2000),
        ]
        stats = compute_stats(trace)
        assert stats.unique_code_lines == 2
        assert stats.unique_data_lines == 2
        assert stats.code_footprint_bytes == 64
        assert stats.data_footprint_bytes == 64

    def test_fp_counting(self):
        trace = [
            rec(0x400000, Kind.FP_ADD, dst=FP_REG_BASE + 2),
            rec(0x400004, Kind.FP_LOAD, dst=FP_REG_BASE + 4, addr=0x1000),
        ]
        stats = compute_stats(trace)
        assert stats.fp_ops == 2
        assert stats.loads == 1

    def test_empty_trace(self):
        stats = compute_stats([])
        assert stats.total == 0
        assert stats.fraction(Kind.ALU) == 0.0

    def test_fp_move_not_a_data_line(self):
        trace = [rec(0x400000, Kind.FP_MOVE, dst=FP_REG_BASE)]
        stats = compute_stats(trace)
        assert stats.unique_data_lines == 0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = [
            rec(0x400000, Kind.ALU, dst=8, s1=9, s2=10),
            rec(0x400004, Kind.LOAD, dst=11, s1=29, addr=0x7FFFFF00),
        ]
        path = str(tmp_path / "trace.npy")
        save_trace_array(path, records_array(trace))
        loaded = load_trace_array(path)
        assert [tuple(int(v) for v in row) for row in loaded] == trace

    def test_empty_roundtrip(self, tmp_path):
        path = str(tmp_path / "empty.npy")
        save_trace_array(path, records_array([]))
        assert load_trace_array(path).shape == (0, 6)


class TestRecordsArray:
    def test_matches_row_by_row_conversion(self):
        trace = [
            rec(0x400000, Kind.ALU, dst=8, s1=9, s2=10),
            rec(0x400004, Kind.LOAD, dst=11, s1=29, addr=0xFFFF_FFFC),
            rec(0x400008, Kind.BRANCH, s1=8, addr=0x400000),
        ]
        array = records_array(trace)
        assert array.dtype == np.int64 and array.shape == (3, 6)
        assert np.array_equal(array, np.array(trace, dtype=np.int64))

    def test_empty(self):
        assert records_array([]).shape == (0, 6)

    @pytest.mark.parametrize(
        "trace", [[(1, 2, 3, 4, 5)], [(1, 2, 3, 4, 5, 6, 7)], [rec(0, Kind.ALU), (1, 2)]]
    )
    def test_wrong_field_count_raises(self, trace):
        with pytest.raises(ValueError):
            records_array(trace)


class TestKindHelpers:
    def test_memory_kinds(self):
        for kind in (Kind.LOAD, Kind.STORE, Kind.FP_LOAD, Kind.FP_STORE,
                     Kind.FP_MOVE):
            assert is_memory_kind(int(kind))
        assert not is_memory_kind(int(Kind.ALU))

    def test_fp_kinds(self):
        assert is_fp_kind(int(Kind.FP_MUL))
        assert not is_fp_kind(int(Kind.BRANCH))

    def test_unified_register_space_constants(self):
        assert FP_REG_BASE == 32
        assert HI_REG == 64
        assert NO_REG == -1
