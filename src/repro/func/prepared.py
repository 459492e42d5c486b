"""Columnar prepared traces: derive per-record facts once, sweep many configs.

Every paper result is a sweep — Figure 8 alone times dozens of machine
configurations over the *same* dynamic traces — so the timing models
consume one trace representation, :class:`PreparedTrace`:

* the six record fields held as numpy ``int64`` columns (one ``(n, 6)``
  array, possibly memory-mapped straight out of the trace cache),
* derived columns computed **once per trace**: memory/FP-dispatch kind
  masks, the branch-taken mask, and per-``line_shift`` I-line / D-line
  indices,
* lazy per-trace memos of everything a timing run decides without
  timing: one op code per record (:meth:`PreparedTrace.op_codes`), the
  dual-issue pairing flags, the I-cache set indices and hit/miss flags
  and the write cache's decisions per geometry,
* the record fields and line indices a timing run reads, copied out of
  the numpy columns the first time one asks for them.

Every column the timing loop reads is a fixed-width ``bytes`` or
:class:`array.array` buffer at the narrowest width its values need (1
byte per register id, 2 per I-cache set index up to 65,536 sets), never
a list of Python ints: the loop iterates a ``zip`` of them (C-level
iteration, no per-config tuple unpacking and no per-record kind tests),
at 18 bytes per record for the baseline geometry where a list costs an
8-byte pointer per value plus, for a value past 256, its own int object.

A :class:`PreparedTrace` behaves like the ``list[TraceRecord]`` it was
built from (``len``, indexing, iteration, equality all yield the same
records).  The public entry points still accept plain record lists and
convert them with :func:`as_prepared` (see docs/MODELING.md).
"""

from __future__ import annotations

import collections.abc
import time
from array import array
from typing import Iterator, Sequence

import numpy as np

from repro.func.trace import (
    NUM_UNIFIED_REGS,
    TraceRecord,
    TraceStats,
    _CONTROL_KINDS,
    _FP_KINDS,
    _MEMORY_KINDS,
    records_array,
)
from repro.isa.instructions import Kind

_MEM_KIND_LIST = sorted(_MEMORY_KINDS)
#: Kinds the IPU hands to the decoupled FPU — identical to the trace
#: module's FP class (arithmetic + FP loads/stores/moves).
_FP_DISPATCH_KIND_LIST = sorted(_FP_KINDS)
_CONTROL_KIND_LIST = sorted(_CONTROL_KINDS)
_FP_MOVE = int(Kind.FP_MOVE)
_FIELDS = ("pc", "kind", "dst", "src1", "src2", "addr")
#: ``array`` type code of each record field's column: register ids are
#: -1..65 and kinds below 128, so both fit a signed byte.
_FIELD_TYPECODES = {
    "pc": "q", "kind": "b", "dst": "b", "src1": "b", "src2": "b", "addr": "q",
}
#: The register id :meth:`PreparedTrace.timing_rows` gives an absent
#: source: one past the unified space, so no record writes it and a
#: scoreboard that reserves the slot finds it ready at cycle 0.
NO_SOURCE = NUM_UNIFIED_REGS

#: Per-record op codes (:meth:`PreparedTrace.op_codes`): the record's
#: kind folded with the trace facts the timing loop branches on, ordered
#: so one comparison answers each class question — FP-condition or
#: later: ``op >= OP_FCOND``; dispatched to the FPU: ``OP_FP_ADD <= op
#: <= OP_FP_STORE``; memory: ``op >= OP_FP_MOVE``; holds an MSHR:
#: ``op >= OP_FP_LOAD``.  The FP arithmetic codes equal their kinds.
OP_SIMPLE = 0  # ALU, NOP, HALT
OP_BRANCH = 1  # branch or jump, not taken
OP_TAKEN = 2  # taken branch or immediate jump
OP_TAKEN_REG = 3  # taken register jump (jr/jalr)
OP_FCOND = 4  # bc1t/bc1f, not taken: waits on the FP condition flag
OP_FCOND_TAKEN = 5  # bc1t/bc1f, taken
OP_FP_ADD = int(Kind.FP_ADD)
OP_FP_CVT = int(Kind.FP_CVT)
OP_FP_MOVE = 10  # mtc1/mfc1: memory class, no MSHR
OP_FP_LOAD = 11
OP_FP_STORE = 12
OP_LOAD = 13
OP_STORE = 14

#: Each kind's op code before the taken/register/FP-condition folds;
#: ALU, NOP and HALT are OP_SIMPLE.
_OP_OF_KIND = np.array(
    [
        {
            Kind.BRANCH: OP_BRANCH, Kind.JUMP: OP_BRANCH,
            Kind.FP_MOVE: OP_FP_MOVE, Kind.FP_LOAD: OP_FP_LOAD,
            Kind.FP_STORE: OP_FP_STORE, Kind.LOAD: OP_LOAD,
            Kind.STORE: OP_STORE,
        }.get(kind, kind if OP_FP_ADD <= kind <= OP_FP_CVT else OP_SIMPLE)
        for kind in Kind
    ],
    dtype=np.uint8,
)

#: Process-wide preparation accounting (mirrors trace_cache.snapshot()):
#: the experiment runner publishes the deltas as ``runner.*`` metrics.
_PREPARE_COUNT = 0
_PREPARE_SECONDS = 0.0


def prepare_snapshot() -> tuple[int, float]:
    """(traces prepared, wall seconds spent preparing) so far."""
    return (_PREPARE_COUNT, _PREPARE_SECONDS)


def _compact(column: np.ndarray, typecode: str) -> array:
    """``column`` copied into an ``array`` of ``typecode``; raises
    :class:`OverflowError` if a value does not fit that width (a numpy
    cast would wrap it silently)."""
    narrow = column.astype(typecode)  # numpy reads array type codes
    if not np.array_equal(narrow, column):
        raise OverflowError(
            f"trace column values do not fit array type {typecode!r}"
        )
    return array(typecode, narrow.tobytes())


class PreparedTrace(collections.abc.Sequence):
    """One dynamic trace in columnar form (see module docstring).

    Construct through :func:`prepare_trace` (which records the
    ``trace_prepare`` span and the process-wide prepare gauges) rather
    than directly.  The backing array may be a read-only memory map from
    the trace cache; nothing here ever writes to it.
    """

    __slots__ = (
        "_array", "pc", "kind", "dst", "src1", "src2", "addr",
        "mem_mask", "fp_dispatch_mask", "branch_taken_mask",
        "_fields", "_sources", "_flag_lists", "_lines", "_icache_sets",
        "_icache_misses", "_kind_counts", "_class_counts", "_op_codes",
        "_pair_flags", "_wc_decisions", "prepare_seconds", "source",
        "validated", "sim_results", "__weakref__",
    )

    def __init__(
        self,
        array: np.ndarray,
        *,
        source: str = "records",
    ) -> None:
        if array.ndim != 2 or (array.size and array.shape[1] != 6):
            raise ValueError(
                f"prepared trace array must have shape (n, 6), "
                f"got {array.shape}"
            )
        if not np.issubdtype(array.dtype, np.integer):
            raise ValueError(
                f"prepared trace array dtype {array.dtype} is not integral"
            )
        self._array = array
        self.pc = array[:, 0]
        self.kind = array[:, 1]
        self.dst = array[:, 2]
        self.src1 = array[:, 3]
        self.src2 = array[:, 4]
        self.addr = array[:, 5]
        # Config-independent kind classes, derived once per trace.
        self.mem_mask = np.isin(self.kind, _MEM_KIND_LIST)
        self.fp_dispatch_mask = np.isin(self.kind, _FP_DISPATCH_KIND_LIST)
        self.branch_taken_mask = np.isin(self.kind, _CONTROL_KIND_LIST) & (
            self.addr != 0
        )
        #: Field name -> its compact column, built on first use (a
        #: report-only consumer never pays for them).
        self._fields: dict[str, array] = {}
        self._sources: tuple[array, array] | None = None
        self._flag_lists: tuple[list[bool], list[bool]] | None = None
        #: line_shift -> (I-line, D-line) columns, memoized because the
        #: paper's models share one 32-byte line size.
        self._lines: dict[int, tuple[array, array]] = {}
        #: (line_shift, I-cache lines) -> I-cache set index column.
        self._icache_sets: dict[tuple[int, int], array] = {}
        #: (line_shift, I-cache lines) -> (miss flags, miss count).
        self._icache_misses: dict[tuple[int, int], tuple[bytes, int]] = {}
        self._kind_counts: tuple[int, ...] | None = None
        self._class_counts: tuple[int, int, int, int, int] | None = None
        self._op_codes: bytes | None = None
        self._pair_flags: bytes | None = None
        #: (line_shift, write-cache lines, page_shift) -> (codes, totals).
        self._wc_decisions: dict[
            tuple[int, int, int], tuple[array, tuple[int, int, int, int]]
        ] = {}
        self.prepare_seconds = 0.0
        self.source = source
        #: Set by validate_trace after a (vectorized, whole-trace)
        #: structural check, so a sweep validates each trace once
        #: instead of once per configuration.
        self.validated = False
        #: Finished SimStats keyed by (config, policy),
        #: oldest first; filled and bounded by
        #: :func:`repro.core.kernel.simulate_many`.
        self.sim_results: dict = {}

    # ------------------------------------------------------ list protocol

    def __len__(self) -> int:
        return self._array.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                tuple(int(value) for value in row)
                for row in self._array[index]
            ]
        return tuple(int(value) for value in self._array[index])

    def __iter__(self) -> Iterator[TraceRecord]:
        return zip(*map(self.field_column, _FIELDS))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PreparedTrace):
            return np.array_equal(self._array, other._array)
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __hash__(self) -> None:  # pragma: no cover - mirrors list
        raise TypeError("unhashable type: 'PreparedTrace'")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PreparedTrace({len(self)} records, source={self.source!r})"
        )

    # ---------------------------------------------------------- columns

    @property
    def array(self) -> np.ndarray:
        """The backing ``(n, 6)`` int64 array (possibly memory-mapped)."""
        return self._array

    def to_records(self) -> list[TraceRecord]:
        """Materialize the plain ``list[TraceRecord]`` representation."""
        return [tuple(row) for row in self._array.tolist()]

    def field_column(self, name: str) -> array:
        """One record field (``pc``, ``kind``, ``dst``, ``src1``,
        ``src2`` or ``addr``) as a compact ``array`` — signed bytes for
        the kind and register ids, 64-bit for ``pc`` and ``addr`` —
        built on first use."""
        column = self._fields.get(name)
        if column is None:
            column = self._fields[name] = _compact(
                getattr(self, name), _FIELD_TYPECODES[name]
            )
        return column

    def sources(self) -> tuple[array, array]:
        """(``src1``, ``src2``) as signed-byte columns with every absent
        source (``NO_REG``) read as :data:`NO_SOURCE`, built on first
        use."""
        if self._sources is None:
            self._sources = tuple(
                _compact(np.where(column < 0, NO_SOURCE, column), "b")
                for column in (self.src1, self.src2)
            )
        return self._sources

    def lines(self, line_shift: int) -> tuple[array, array]:
        """(I-line, D-line) index columns for one cache-line shift, held
        as 64-bit ``array`` buffers built on first use."""
        cached = self._lines.get(line_shift)
        if cached is None:
            cached = self._lines[line_shift] = (
                _compact(np.right_shift(self.pc, line_shift), "q"),
                _compact(np.right_shift(self.addr, line_shift), "q"),
            )
        return cached

    def icache_sets(self, line_shift: int, lines: int) -> array:
        """Each record's set in a direct-mapped ``lines``-line I-cache,
        ``(pc >> line_shift) & (lines - 1)``.  Memoized per geometry;
        held as an unsigned 16-bit ``array`` (32-bit past 65,536
        lines)."""
        key = (line_shift, lines)
        cached = self._icache_sets.get(key)
        if cached is None:
            sets = np.right_shift(self.pc, line_shift) & (lines - 1)
            cached = self._icache_sets[key] = _compact(
                sets, "I" if lines > 1 << 16 else "H"
            )
        return cached

    def icache_misses(self, line_shift: int, lines: int) -> tuple[bytes, int]:
        """Per-record miss flags (1 = miss) and the miss count of a
        direct-mapped ``lines``-line I-cache that fills on every miss.

        Such a cache's tag state depends on the address stream alone, so
        an access misses exactly when the previous access to its set was
        to another line (or there was none).  Computed with a stable sort
        by set, memoized per geometry; held as ``bytes`` to stay compact.
        """
        key = (line_shift, lines)
        cached = self._icache_misses.get(key)
        if cached is None:
            ilines = np.right_shift(self.pc, line_shift)
            sets = ilines & (lines - 1)
            order = np.argsort(sets, kind="stable")
            set_sorted = sets[order]
            line_sorted = ilines[order]
            miss_sorted = np.ones(len(self), dtype=np.uint8)
            miss_sorted[1:] = (set_sorted[1:] != set_sorted[:-1]) | (
                line_sorted[1:] != line_sorted[:-1]
            )
            miss = np.empty_like(miss_sorted)
            miss[order] = miss_sorted
            cached = (miss.tobytes(), int(miss_sorted.sum()))
            self._icache_misses[key] = cached
        return cached

    def kind_counts(self) -> tuple[int, ...]:
        """Records of each :class:`~repro.isa.instructions.Kind`, indexed
        by kind, counted once."""
        if self._kind_counts is None:
            self._kind_counts = tuple(
                np.bincount(self.kind, minlength=len(Kind)).tolist()
            )
        return self._kind_counts

    def class_counts(self) -> tuple[int, int, int, int, int]:
        """(loads, stores, branches, taken branches, FP instructions) —
        the instruction-class counters of SimStats, counted once."""
        if self._class_counts is None:
            by_kind = self.kind_counts()
            self._class_counts = (
                by_kind[Kind.LOAD] + by_kind[Kind.FP_LOAD],
                by_kind[Kind.STORE] + by_kind[Kind.FP_STORE],
                by_kind[Kind.BRANCH] + by_kind[Kind.JUMP],
                int(self.branch_taken_mask.sum()),
                int(self.fp_dispatch_mask.sum()),
            )
        return self._class_counts

    def op_codes(self) -> bytes:
        """One op code per record (the ``OP_*`` constants), computed once.

        Folds the kind with whether a control transfer is taken, whether
        a jump goes through a register (it never folds) and whether a
        branch tests the FP condition flag (no integer sources), so the
        timing loop dispatches on one value.
        """
        if self._op_codes is None:
            kind = self.kind
            op = _OP_OF_KIND[kind]
            taken = self.branch_taken_mask
            op[taken] = OP_TAKEN
            op[taken & (kind == Kind.JUMP) & (self.src1 >= 0)] = OP_TAKEN_REG
            fcond = (kind == Kind.BRANCH) & (self.src1 < 0) & (self.src2 < 0)
            op[fcond] += OP_FCOND - OP_BRANCH
            self._op_codes = op.tobytes()
        return self._op_codes

    def pair_flags(self) -> bytes:
        """Per record, 1 when it may dual-issue with its predecessor as
        far as the trace decides: the predecessor sits at an 8-byte
        aligned pc just before it, and the two are not both memory
        instructions.  The first record has no predecessor."""
        if self._pair_flags is None:
            flags = np.zeros(len(self), dtype=np.uint8)
            pc = self.pc
            mem = self.mem_mask
            flags[1:] = (
                (pc[1:] == pc[:-1] + 4)
                & ((pc[:-1] & 7) == 0)
                & ~(mem[1:] & mem[:-1])
            )
            self._pair_flags = flags.tobytes()
        return self._pair_flags

    def writecache_decisions(
        self, line_shift: int, lines: int, page_shift: int
    ) -> tuple[array, tuple[int, int, int, int]]:
        """The write cache's decision code for every record (0 for a
        record that neither loads nor stores) and the run's totals
        (accesses, hits, store instructions, store transactions), for a
        ``lines``-line write cache with ``1 << line_shift``-byte lines and
        ``1 << page_shift``-byte pages.

        Hits, victims and page matches follow the order of the load and
        store addresses alone (:class:`~repro.core.writecache
        .WriteCacheDirectory`), so one replay per geometry serves every
        configuration that shares it.  Memoized; held as an unsigned
        16-bit ``array`` (32-bit past 8,192 lines).
        """
        key = (line_shift, lines, page_shift)
        cached = self._wc_decisions.get(key)
        if cached is None:
            from repro.core.writecache import WC_SLOT_SHIFT, replay_decisions

            kind = self.kind
            stores = (kind == Kind.STORE) | (kind == Kind.FP_STORE)
            positions = np.flatnonzero(
                stores | (kind == Kind.LOAD) | (kind == Kind.FP_LOAD)
            )
            codes, totals = replay_decisions(
                lines,
                line_shift,
                page_shift,
                self.addr[positions].tolist(),
                stores[positions].tolist(),
            )
            wide = lines > 1 << (16 - WC_SLOT_SHIFT)  # slot past 16 bits
            column = np.zeros(
                len(self), dtype=np.uint32 if wide else np.uint16
            )
            column[positions] = codes
            cached = (array("I" if wide else "H", column.tobytes()), totals)
            self._wc_decisions[key] = cached
        return cached

    def rows(self, line_shift: int) -> Iterator[tuple]:
        """Every record as ``(pc, kind, dst, src1, src2, addr, is_mem,
        is_fp_dispatch, iline, dline)``, all plain Python scalars out of
        columns built on first use.  Its only caller is the benchmark
        harness's trace-ingest workload, which times it; the timing loop
        walks :meth:`timing_rows`."""
        if self._flag_lists is None:
            self._flag_lists = (
                self.mem_mask.tolist(),
                self.fp_dispatch_mask.tolist(),
            )
        return zip(
            *map(self.field_column, _FIELDS),
            *self._flag_lists,
            *self.lines(line_shift),
        )

    def timing_rows(
        self,
        line_shift: int,
        icache_lines: int,
        writecache_lines: int,
        page_shift: int,
    ) -> Iterator[tuple]:
        """The timing loop's iterator: ``(op, dst, src1, src2,
        iset, dline, imiss, pair_ok, wc)`` per record — the op code, the
        destination, the sources (:meth:`sources`, an absent one read as
        :data:`NO_SOURCE`), the I-cache set (:meth:`icache_sets`), the
        D-line index, and the per-trace memos (:meth:`icache_misses`,
        :meth:`pair_flags`, :meth:`writecache_decisions`) for this
        geometry.  Every column is a ``bytes`` or ``array`` buffer; the
        I-line a miss fetches is ``lines(line_shift)[0][index]``."""
        return zip(
            self.op_codes(),
            self.field_column("dst"),
            *self.sources(),
            self.icache_sets(line_shift, icache_lines),
            self.lines(line_shift)[1],
            self.icache_misses(line_shift, icache_lines)[0],
            self.pair_flags(),
            self.writecache_decisions(
                line_shift, writecache_lines, page_shift
            )[0],
        )


def prepare_trace(
    trace: "Sequence[TraceRecord] | np.ndarray | PreparedTrace",
    *,
    workload: str | None = None,
    source: str = "records",
) -> PreparedTrace:
    """Build a :class:`PreparedTrace` (idempotent on prepared input).

    Records a ``trace_prepare`` span when host-side tracing is active and
    accumulates the process-wide prepare gauges either way.
    """
    global _PREPARE_COUNT, _PREPARE_SECONDS
    if isinstance(trace, PreparedTrace):
        return trace
    from repro.telemetry import tracing

    started = time.perf_counter()
    with tracing.span(
        "trace_prepare", "trace", workload=workload or "?", source=source
    ):
        if isinstance(trace, np.ndarray):
            array = trace
            if array.dtype != np.int64:
                array = array.astype(np.int64)
        else:
            array = records_array(trace)
        prepared = PreparedTrace(array, source=source)
    elapsed = time.perf_counter() - started
    prepared.prepare_seconds = elapsed
    _PREPARE_COUNT += 1
    _PREPARE_SECONDS += elapsed
    return prepared


def as_prepared(
    trace: "Sequence[TraceRecord] | PreparedTrace",
) -> PreparedTrace:
    """Entry-point boundary: pass prepared traces through; record-check
    anything else with :func:`~repro.robustness.validation.validate_trace`
    (so a bad record is named, not a numpy shape error), then prepare it.
    """
    if isinstance(trace, PreparedTrace):
        return trace
    from repro.robustness.validation import validate_trace

    validate_trace(trace)
    return prepare_trace(trace)


def compute_stats_prepared(
    trace: PreparedTrace, line_size: int = 32
) -> TraceStats:
    """Vectorized :func:`repro.func.trace.compute_stats` over the columns.

    ``tests/test_prepared.py`` holds it to exact equality with a
    record-loop oracle over both suites.  Lines are counted by shifting
    addresses, so ``line_size`` must be a positive power of two.
    """
    if line_size < 1 or line_size & (line_size - 1):
        raise ValueError(
            f"line_size must be a positive power of two, got {line_size!r}"
        )
    stats = TraceStats(line_size=line_size)
    shift = line_size.bit_length() - 1
    stats.total = len(trace)
    if not stats.total:
        return stats
    kinds, counts = np.unique(trace.kind, return_counts=True)
    stats.by_kind = {
        Kind(int(kind)): int(count) for kind, count in zip(kinds, counts)
    }
    stats.taken_branches = int(trace.branch_taken_mask.sum())
    stats.unique_code_lines = int(
        np.unique(np.right_shift(trace.pc, shift)).size
    )
    data_mask = trace.mem_mask & (trace.kind != _FP_MOVE)
    stats.unique_data_lines = int(
        np.unique(np.right_shift(trace.addr[data_mask], shift)).size
    )
    return stats
