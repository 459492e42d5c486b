"""PreparedTrace: semantics preservation, stats regression, protocol.

The contract under test is the one docs/MODELING.md states: columnar
preparation is *semantics-preserving*.  A prepared trace must behave like
the record list it came from (sequence protocol), the public entry points
must produce byte-identical SimStats whether handed the prepared trace or
the plain record list (which they prepare at the boundary), and the
vectorized ``compute_stats`` must exactly match a record-loop oracle —
across every workload in both suites.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.core.biu import BusInterfaceUnit
from repro.core.caches import DirectMappedCache
from repro.core.config import (
    MachineConfig,
    baseline_model,
    large_model,
    small_model,
)
from repro.core.kernel import simulate_many
from repro.core.processor import AuroraProcessor, simulate_trace
from repro.core.writecache import (
    WC_EVICT,
    WC_HIT,
    WC_RESIDENT,
    WC_SLOT_SHIFT,
    WriteCache,
)
from repro.experiments.common import scaled_trace
from repro.func.prepared import (
    OP_BRANCH,
    OP_FCOND,
    OP_FCOND_TAKEN,
    OP_FP_LOAD,
    OP_FP_MOVE,
    OP_FP_STORE,
    OP_LOAD,
    OP_SIMPLE,
    OP_STORE,
    OP_TAKEN,
    OP_TAKEN_REG,
    NO_SOURCE,
    PreparedTrace,
    compute_stats_prepared,
    prepare_snapshot,
    prepare_trace,
)
from repro.func.trace import (
    _CONTROL_KINDS,
    _MEMORY_KINDS,
    NO_REG,
    TraceStats,
    compute_stats,
)
from repro.isa.instructions import Kind
from repro.robustness.validation import TraceValidationError
from repro.workloads import registry
from repro.workloads.registry import FP_SUITE, INTEGER_SUITE

#: The acceptance factor: small enough to keep the sweep quick, large
#: enough that every workload still exercises its interesting paths.
FACTOR = 0.05
ALL_NAMES = INTEGER_SUITE + FP_SUITE


def _tiny_records():
    alu, load, branch = int(Kind.ALU), int(Kind.LOAD), int(Kind.BRANCH)
    return [
        (4096, alu, 8, 9, 10, 0),
        (4100, load, 11, 8, -1, 8192),
        (4104, branch, -1, 11, 8, 4096),  # taken
        (4108, branch, -1, 11, 8, 0),  # not taken
    ]


# ------------------------------------------------------- timing identity


@pytest.mark.parametrize("name", ALL_NAMES)
def test_simstats_identical_on_both_representations(name):
    """Acceptance: prepared-path SimStats == tuple-path SimStats."""
    prepared = scaled_trace(name, FACTOR)
    assert isinstance(prepared, PreparedTrace)
    records = prepared.to_records()
    config = baseline_model()
    assert (
        simulate_trace(prepared, config).stats
        == simulate_trace(records, config).stats
    )


@pytest.mark.parametrize(
    "make_config", [small_model, baseline_model, large_model]
)
def test_simstats_identical_across_configs(make_config):
    """One trace, several machine shapes: identity holds per config."""
    prepared = scaled_trace("espresso", FACTOR)
    records = prepared.to_records()
    config = make_config()
    assert (
        simulate_trace(prepared, config).stats
        == simulate_trace(records, config).stats
    )


def test_simstats_identical_on_synthetic_traces(counting_trace, streaming_trace):
    config = baseline_model()
    for records in (counting_trace, streaming_trace):
        prepared = prepare_trace(records)
        assert (
            simulate_trace(prepared, config).stats
            == simulate_trace(records, config).stats
        )


# ----------------------------------------------------- stats regression


def _loop_compute_stats(trace, line_size: int = 32) -> TraceStats:
    """Record-loop oracle for the vectorized compute_stats."""
    stats = TraceStats(line_size=line_size)
    by_kind: dict[int, int] = {}
    code_lines: set[int] = set()
    data_lines: set[int] = set()
    shift = line_size.bit_length() - 1
    taken = 0
    for pc, kind, _dst, _s1, _s2, addr in trace:
        by_kind[kind] = by_kind.get(kind, 0) + 1
        code_lines.add(pc >> shift)
        if kind in _MEMORY_KINDS and kind != int(Kind.FP_MOVE):
            data_lines.add(addr >> shift)
        elif kind in _CONTROL_KINDS and addr:
            taken += 1
    stats.total = len(trace)
    stats.by_kind = {Kind(k): v for k, v in by_kind.items()}
    stats.taken_branches = taken
    stats.unique_code_lines = len(code_lines)
    stats.unique_data_lines = len(data_lines)
    return stats


@pytest.mark.parametrize("name", ALL_NAMES)
def test_compute_stats_vectorized_matches_loop(name):
    """Satellite: vectorized compute_stats == the record-loop oracle."""
    prepared = scaled_trace(name, FACTOR)
    records = prepared.to_records()
    assert compute_stats(prepared) == _loop_compute_stats(records)
    assert compute_stats(records) == _loop_compute_stats(records)


# ------------------------------------------------ hoisted per-trace columns


def _replay_icache(trace, size_bytes, line_bytes):
    """Reference: replay the pcs through a DirectMappedCache that fills
    on every miss, as the timing loop used to per record.  Returns the
    miss flags, the miss count and the set each pc indexed."""
    cache = DirectMappedCache(size_bytes, line_bytes)
    flags = bytearray()
    sets = []
    for pc in trace.pc.tolist():
        hit = cache.lookup(pc)
        if not hit:
            cache.fill(pc, 0)
        flags.append(0 if hit else 1)
        sets.append(cache._split(pc)[0])
    return bytes(flags), cache.accesses - cache.hits, sets


#: (I-cache bytes, line bytes): the three models' I-caches and a 1-line
#: cache at each line size, plus the largest size config.validate()
#: accepts (at 64-byte lines only: the reference cache allocates two
#: Python lists of one slot per line).
ICACHE_GEOMETRIES = [
    (size_bytes, line_bytes)
    for line_bytes in (16, 32, 64)
    for size_bytes in (
        small_model().icache_bytes,
        baseline_model().icache_bytes,
        large_model().icache_bytes,
        line_bytes,
    )
] + [(MachineConfig.MAX_CACHE_BYTES, 64)]


@pytest.mark.parametrize("size_bytes, line_bytes", ICACHE_GEOMETRIES)
@pytest.mark.parametrize("suite", ["espresso_trace_small", "fp_trace_small"])
def test_icache_misses_match_replay(suite, size_bytes, line_bytes, request):
    trace = request.getfixturevalue(suite)
    shift = line_bytes.bit_length() - 1
    lines = size_bytes // line_bytes
    flags, misses = trace.icache_misses(shift, lines)
    want_flags, want_misses, want_sets = _replay_icache(
        trace, size_bytes, line_bytes
    )
    assert (flags, misses) == (want_flags, want_misses)
    assert misses == sum(flags)
    assert list(trace.icache_sets(shift, lines)) == want_sets


def _replay_writecache(trace, line_bytes, lines, page_bytes):
    """Reference: each record's write-cache decision code and the
    totals, read off a live WriteCache fed the loads and stores."""
    biu = BusInterfaceUnit(latency=17, occupancy=4)
    wc = WriteCache(lines, line_bytes, biu, page_bytes=page_bytes)
    line_shift = line_bytes.bit_length() - 1
    loads = (int(Kind.LOAD), int(Kind.FP_LOAD))
    stores = (int(Kind.STORE), int(Kind.FP_STORE))
    codes = []
    time = 0
    for kind, address in zip(trace.kind.tolist(), trace.addr.tolist()):
        time += 1
        if kind in loads:
            codes.append(WC_HIT if wc.load_lookup(address, time) else 0)
        elif kind in stores:
            hits, mmu, writes = wc.stats.hits, biu.stats.mmu, biu.stats.write
            time = wc.store(address, time)
            line = address >> line_shift
            (slot,) = [
                k for k, entry in enumerate(wc._lines) if entry.line == line
            ]
            code = slot << WC_SLOT_SHIFT
            if wc.stats.hits > hits:
                code |= WC_HIT
            elif biu.stats.mmu == mmu:
                code |= WC_RESIDENT
            if biu.stats.write > writes:
                code |= WC_EVICT
            codes.append(code)
        else:
            codes.append(0)
    wc.flush(time)
    stats = wc.stats
    return codes, (
        stats.accesses,
        stats.hits,
        stats.store_instructions,
        stats.store_transactions,
    )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_writecache_decisions_match_live_write_cache(name):
    trace = scaled_trace(name, FACTOR)
    for model in (small_model(), baseline_model(), large_model()):
        line_bytes, lines = model.line_bytes, model.writecache_lines
        codes, totals = trace.writecache_decisions(
            line_bytes.bit_length() - 1,
            lines,
            model.page_bytes.bit_length() - 1,
        )
        assert (list(codes), totals) == _replay_writecache(
            trace, line_bytes, lines, model.page_bytes
        )


def test_icache_misses_empty_trace():
    assert prepare_trace([]).icache_misses(5, 64) == (b"", 0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_class_counts_match_compute_stats(name):
    prepared = scaled_trace(name, FACTOR)
    by_kind = compute_stats_prepared(prepared).by_kind
    count = lambda *kinds: sum(by_kind.get(kind, 0) for kind in kinds)
    assert prepared.class_counts() == (
        count(Kind.LOAD, Kind.FP_LOAD),
        count(Kind.STORE, Kind.FP_STORE),
        count(Kind.BRANCH, Kind.JUMP),
        compute_stats_prepared(prepared).taken_branches,
        count(
            Kind.FP_ADD, Kind.FP_MUL, Kind.FP_DIV, Kind.FP_CVT,
            Kind.FP_LOAD, Kind.FP_STORE, Kind.FP_MOVE,
        ),
    )


def _reference_op(record):
    """The op code of one record, from its fields alone."""
    pc, kind, dst, src1, src2, addr = record
    fixed = {
        Kind.FP_MOVE: OP_FP_MOVE, Kind.FP_LOAD: OP_FP_LOAD,
        Kind.FP_STORE: OP_FP_STORE, Kind.LOAD: OP_LOAD, Kind.STORE: OP_STORE,
    }
    if kind in fixed:
        return fixed[kind]
    if Kind.FP_ADD <= kind <= Kind.FP_CVT:
        return kind
    if kind not in (Kind.BRANCH, Kind.JUMP):
        return OP_SIMPLE
    fcond = kind == Kind.BRANCH and src1 < 0 and src2 < 0
    if addr == 0:
        return OP_FCOND if fcond else OP_BRANCH
    if fcond:
        return OP_FCOND_TAKEN
    return OP_TAKEN_REG if kind == Kind.JUMP and src1 >= 0 else OP_TAKEN


@pytest.mark.parametrize("name", ALL_NAMES)
def test_op_codes_and_pair_flags_match_records(name):
    trace = scaled_trace(name, FACTOR)
    records = trace.to_records()
    assert list(trace.op_codes()) == [_reference_op(r) for r in records]
    prev_pc, prev_mem = -8, False
    expected = []
    for pc, kind, *_ in records:
        mem = kind in _MEMORY_KINDS
        expected.append(
            int(pc == prev_pc + 4 and prev_pc & 7 == 0
                and not (mem and prev_mem))
        )
        prev_pc, prev_mem = pc, mem
    assert list(trace.pair_flags()) == expected


#: I-cache sizes in lines: below, at and past the golden set's 64, and
#: past the 16-bit set-index width.
TIMING_ICACHE_LINES = (32, 128, 512, 131_072)


def _zipped_columns(rows):
    """The buffers a ``timing_rows`` zip iterates, in tuple order."""
    return [
        iterator.__reduce__()[1][0] for iterator in rows.__reduce__()[1]
    ]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_timing_rows_match_int64_reference(name):
    trace = scaled_trace(name, FACTOR)
    shift, wc_lines, page_shift = 5, 4, 12
    pc, _, dst, src1, src2, addr = trace.array.T.tolist()
    # The loop reads an absent source (NO_REG) as NO_SOURCE.
    src1, src2 = (
        [NO_SOURCE if value == NO_REG else value for value in column]
        for column in (src1, src2)
    )
    for lines in TIMING_ICACHE_LINES:
        sets = [(value >> shift) & (lines - 1) for value in pc]
        assert list(trace.icache_sets(shift, lines)) == sets
        reference = zip(
            trace.op_codes(),
            dst,
            src1,
            src2,
            sets,
            [value >> shift for value in addr],
            trace.icache_misses(shift, lines)[0],
            trace.pair_flags(),
            trace.writecache_decisions(shift, wc_lines, page_shift)[0],
        )
        rows = trace.timing_rows(shift, lines, wc_lines, page_shift)
        assert list(rows) == list(reference)
    assert list(trace.lines(shift)[0]) == [value >> shift for value in pc]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_no_record_writes_an_absent_source_slot(name):
    """Slot NO_SOURCE of the scoreboard and slot NO_SOURCE - 32 (34) of
    the FPU register file stand for an absent source, so no record may
    write either: no ``dst`` is NO_SOURCE, and every FPU register write
    (an FP load, an ``mtc1``, FP arithmetic with a destination) lands
    on one of the 32 FP registers.  FP arithmetic reads its sources at
    unified id - 32, so those are FP registers or absent."""
    trace = scaled_trace(name, FACTOR)
    kind, dst = trace.kind, trace.dst
    assert NO_SOURCE - 32 == 34
    assert not (dst == NO_SOURCE).any()
    arith = (kind >= Kind.FP_ADD) & (kind <= Kind.FP_CVT)
    fpu_writes = (
        (kind == Kind.FP_LOAD)
        | ((kind == Kind.FP_MOVE) & (dst >= 32))
        | (arith & (dst >= 0))
    )
    assert ((dst[fpu_writes] >= 32) & (dst[fpu_writes] < 64)).all()
    for column in (trace.src1, trace.src2):
        sources = column[arith]
        assert (
            (sources == NO_REG) | ((sources >= 32) & (sources < 64))
        ).all()
    sources = trace.sources()
    assert NO_REG not in sources[0] and NO_REG not in sources[1]


def test_timing_rows_columns_are_compact():
    trace = scaled_trace("espresso", FACTOR)
    config = baseline_model()
    shift = config.line_bytes.bit_length() - 1
    columns = _zipped_columns(
        trace.timing_rows(
            shift,
            config.icache_lines,
            config.writecache_lines,
            config.page_bytes.bit_length() - 1,
        )
    )
    assert len(columns) == 9
    assert all(isinstance(column, (bytes, array)) for column in columns)
    total = sum(memoryview(column).nbytes for column in columns)
    assert total <= 24 * len(trace)


def test_icache_sets_widen_past_sixteen_bits():
    trace = scaled_trace("espresso", FACTOR)
    assert trace.icache_sets(5, 1 << 16).typecode == "H"
    assert trace.icache_sets(5, 1 << 17).typecode == "I"


def test_register_column_rejects_values_past_a_byte():
    trace = PreparedTrace(np.array([[4096, int(Kind.ALU), 200, -1, -1, 0]]))
    with pytest.raises(OverflowError):
        trace.field_column("dst")


def test_op_codes_cover_every_control_shape():
    records = [
        (0x400000, int(Kind.BRANCH), -1, 8, 9, 0),  # not taken
        (0x400004, int(Kind.BRANCH), -1, 8, 9, 0x400100),  # taken
        (0x400008, int(Kind.JUMP), 31, -1, -1, 0x400200),  # jal
        (0x40000C, int(Kind.JUMP), -1, 31, -1, 0x400300),  # jr
        (0x400010, int(Kind.BRANCH), -1, -1, -1, 0),  # bc1f, not taken
        (0x400014, int(Kind.BRANCH), -1, -1, -1, 0x400400),  # bc1t, taken
    ]
    assert list(prepare_trace(records).op_codes()) == [
        OP_BRANCH, OP_TAKEN, OP_TAKEN, OP_TAKEN_REG, OP_FCOND, OP_FCOND_TAKEN,
    ]


def test_compute_stats_dispatches_to_vectorized(monkeypatch):
    prepared = prepare_trace(_tiny_records())
    seen = {}

    def spy(trace, line_size=32):
        seen["called"] = True
        return compute_stats_prepared(trace, line_size)

    monkeypatch.setattr(
        "repro.func.prepared.compute_stats_prepared", spy
    )
    compute_stats(prepared)
    assert seen.get("called")


def test_compute_stats_empty_and_nondefault_line_size():
    assert compute_stats(prepare_trace([])) == compute_stats([])
    records = _tiny_records()
    assert compute_stats(prepare_trace(records), line_size=64) == compute_stats(
        records, line_size=64
    )


@pytest.mark.parametrize("line_size", [0, -32, 48])
@pytest.mark.parametrize("form", ["list", "prepared"])
def test_compute_stats_rejects_non_power_of_two_line_size(line_size, form):
    records = _tiny_records()
    trace = records if form == "list" else prepare_trace(records)
    with pytest.raises(ValueError, match=f"line_size.*{line_size}"):
        compute_stats(trace, line_size=line_size)


@pytest.mark.parametrize(
    "entry",
    [
        lambda trace: simulate_trace(trace, baseline_model()),
        lambda trace: AuroraProcessor(baseline_model()).run(trace),
        lambda trace: simulate_many(trace, [baseline_model()]),
        compute_stats,
    ],
    ids=["simulate_trace", "run", "simulate_many", "compute_stats"],
)
def test_entry_points_name_bad_list_record(entry):
    """Plain lists are record-checked before they are prepared."""
    records = _tiny_records()
    records[2] = (4104, int(Kind.BRANCH), -1, 11)
    with pytest.raises(TraceValidationError, match="record 2"):
        entry(records)


def test_compute_stats_counts_on_tiny_trace():
    stats = compute_stats(prepare_trace(_tiny_records()))
    assert stats.total == 4
    assert stats.by_kind[Kind.BRANCH] == 2
    assert stats.taken_branches == 1
    assert stats.unique_data_lines == 1


# ----------------------------------------------------- sequence protocol


class TestSequenceProtocol:
    def test_len_index_slice_iter(self):
        records = _tiny_records()
        prepared = prepare_trace(records)
        assert len(prepared) == len(records)
        assert prepared[0] == records[0]
        assert prepared[-1] == records[-1]
        assert prepared[1:3] == records[1:3]
        assert list(prepared) == records
        # indexing yields plain-int tuples (validation does isinstance int)
        assert all(type(v) is int for v in prepared[2])

    def test_equality_both_ways(self):
        records = _tiny_records()
        prepared = prepare_trace(records)
        assert prepared == records
        assert prepared == prepare_trace(records)
        assert prepared != records[:-1]
        assert prepared != prepare_trace(records[:-1])

    def test_unhashable_like_list(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(prepare_trace(_tiny_records()))

    def test_validate_trace_accepts_prepared(self):
        from repro.robustness.validation import validate_trace

        validate_trace(prepare_trace(_tiny_records()))

    def test_validate_trace_rejects_bad_prepared_like_records(self):
        """The vectorized fast path raises the same message, same index,
        as the record-loop path would on the equivalent list."""
        from repro.robustness.validation import (
            TraceValidationError,
            validate_trace,
        )

        for mutate in (
            lambda r: r.__setitem__(2, (-4, *r[2][1:])),          # pc < 0
            lambda r: r.__setitem__(2, (6, *r[2][1:])),           # unaligned
            lambda r: r.__setitem__(1, (*r[1][:1], 999, *r[1][2:])),  # kind
            lambda r: r.__setitem__(3, (*r[3][:2], 4096, *r[3][3:])),  # reg
            lambda r: r.__setitem__(0, (*r[0][:5], -8)),          # addr < 0
        ):
            records = _tiny_records()
            mutate(records)
            with pytest.raises(TraceValidationError) as loop_err:
                validate_trace(records)
            with pytest.raises(TraceValidationError) as fast_err:
                validate_trace(prepare_trace(records))
            assert str(fast_err.value) == str(loop_err.value)

    def test_validate_trace_memoizes_on_prepared(self):
        from repro.robustness.validation import validate_trace

        prepared = prepare_trace(_tiny_records())
        assert not prepared.validated
        validate_trace(prepared)
        assert prepared.validated
        validate_trace(prepared)  # second call is the memoized no-op

    def test_rejects_bad_shape_and_dtype(self):
        with pytest.raises(ValueError, match="shape"):
            PreparedTrace(np.zeros((3, 5), dtype=np.int64))
        with pytest.raises(ValueError, match="integral"):
            PreparedTrace(np.zeros((3, 6)))


# ------------------------------------------------------------ preparation


class TestPrepare:
    def test_idempotent(self):
        prepared = prepare_trace(_tiny_records())
        assert prepare_trace(prepared) is prepared

    def test_round_trip(self):
        records = _tiny_records()
        assert prepare_trace(records).to_records() == records

    def test_snapshot_advances(self):
        count0, seconds0 = prepare_snapshot()
        prepare_trace(_tiny_records())
        count1, seconds1 = prepare_snapshot()
        assert count1 == count0 + 1
        assert seconds1 >= seconds0

    def test_derived_masks(self):
        prepared = prepare_trace(_tiny_records())
        assert prepared.mem_mask.tolist() == [False, True, False, False]
        assert prepared.branch_taken_mask.tolist() == [
            False, False, True, False,
        ]

    def test_rows_match_records(self):
        records = _tiny_records()
        prepared = prepare_trace(records)
        rows = list(prepared.rows(5))
        assert [row[:6] for row in rows] == records
        for (pc, kind, *_rest, addr), row in zip(records, rows):
            assert row[8] == pc >> 5 and row[9] == addr >> 5


# ------------------------------------------------------- registry wiring


class TestRegistryTracePath:
    def test_default_returns_prepared(self):
        assert isinstance(registry.get_trace("sc", 7), PreparedTrace)
