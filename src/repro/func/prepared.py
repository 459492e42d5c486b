"""Columnar prepared traces: derive per-record facts once, sweep many configs.

Every paper result is a sweep — Figure 8 alone times dozens of machine
configurations over the *same* dynamic traces — so the timing models
consume one trace representation, :class:`PreparedTrace`:

* the six record fields held as numpy ``int64`` columns (one ``(n, 6)``
  array, possibly memory-mapped straight out of the trace cache),
* derived columns computed **once per trace**: memory/FP-dispatch kind
  masks, the branch-taken mask, and per-``line_shift`` I-line / D-line
  indices,
* the same columns materialized as plain Python lists the first time a
  timing run asks for them — the hot loop then iterates a ``zip`` of
  lists (fast C-level indexed access, no per-config tuple unpacking and
  no per-record ``frozenset`` membership tests).

A :class:`PreparedTrace` behaves like the ``list[TraceRecord]`` it was
built from (``len``, indexing, iteration, equality all yield the same
records).  The public entry points still accept plain record lists and
convert them with :func:`as_prepared` (see docs/MODELING.md).
"""

from __future__ import annotations

import collections.abc
import time
from typing import Iterator, Sequence

import numpy as np

from repro.func.trace import (
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

#: Process-wide preparation accounting (mirrors trace_cache.snapshot()):
#: the experiment runner publishes the deltas as ``runner.*`` metrics.
_PREPARE_COUNT = 0
_PREPARE_SECONDS = 0.0


def prepare_snapshot() -> tuple[int, float]:
    """(traces prepared, wall seconds spent preparing) so far."""
    return (_PREPARE_COUNT, _PREPARE_SECONDS)


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
        "_columns", "_flag_lists", "_line_lists", "_icache_misses",
        "_class_counts", "prepare_seconds", "source", "validated",
        "sim_results", "__weakref__",
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
        #: Hot-loop lists, materialized lazily on first use (a report-only
        #: consumer of the columns never pays for them).
        self._columns: tuple[list, ...] | None = None
        self._flag_lists: tuple[list[bool], list[bool]] | None = None
        #: line_shift -> (iline list, dline list), memoized because the
        #: paper's models share one 32-byte line size.
        self._line_lists: dict[int, tuple[list[int], list[int]]] = {}
        #: (line_shift, I-cache lines) -> (miss flags, miss count).
        self._icache_misses: dict[tuple[int, int], tuple[bytes, int]] = {}
        self._class_counts: tuple[int, int, int, int, int] | None = None
        self.prepare_seconds = 0.0
        self.source = source
        #: Set by validate_trace after a (vectorized, whole-trace)
        #: structural check, so a sweep validates each trace once
        #: instead of once per configuration.
        self.validated = False
        #: Finished SimStats keyed by (kernel name, config, policy),
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
        columns = self._field_columns()
        return zip(*columns)

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

    def _field_columns(self) -> tuple[list, ...]:
        """The six record fields plus kind-class flags, as Python lists."""
        if self._columns is None:
            self._columns = (
                self.pc.tolist(),
                self.kind.tolist(),
                self.dst.tolist(),
                self.src1.tolist(),
                self.src2.tolist(),
                self.addr.tolist(),
            )
        return self._columns

    def lines(self, line_shift: int) -> tuple[list[int], list[int]]:
        """(I-line, D-line) index lists for one cache-line shift."""
        cached = self._line_lists.get(line_shift)
        if cached is None:
            ilines = np.right_shift(self.pc, line_shift).tolist()
            dlines = np.right_shift(self.addr, line_shift).tolist()
            cached = (ilines, dlines)
            self._line_lists[line_shift] = cached
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

    def class_counts(self) -> tuple[int, int, int, int, int]:
        """(loads, stores, branches, taken branches, FP instructions) —
        the instruction-class counters of SimStats, counted once."""
        if self._class_counts is None:
            by_kind = np.bincount(self.kind, minlength=len(Kind)).tolist()
            self._class_counts = (
                by_kind[Kind.LOAD] + by_kind[Kind.FP_LOAD],
                by_kind[Kind.STORE] + by_kind[Kind.FP_STORE],
                by_kind[Kind.BRANCH] + by_kind[Kind.JUMP],
                int(self.branch_taken_mask.sum()),
                int(self.fp_dispatch_mask.sum()),
            )
        return self._class_counts

    def rows(self, line_shift: int) -> Iterator[tuple]:
        """Hot-loop iterator: ``(pc, kind, dst, src1, src2, addr, is_mem,
        is_fp_dispatch, iline, dline)`` per record, all plain Python
        scalars out of precomputed lists."""
        return zip(*self._row_columns(line_shift))

    def timing_rows(self, line_shift: int, icache_lines: int) -> Iterator[tuple]:
        """:meth:`rows` plus each record's I-cache miss flag for a
        ``icache_lines``-line cache (see :meth:`icache_misses`)."""
        flags, _ = self.icache_misses(line_shift, icache_lines)
        return zip(*self._row_columns(line_shift), flags)

    def _row_columns(self, line_shift: int) -> tuple[list, ...]:
        if self._flag_lists is None:
            self._flag_lists = (
                self.mem_mask.tolist(),
                self.fp_dispatch_mask.tolist(),
            )
        return (
            *self._field_columns(), *self._flag_lists, *self.lines(line_shift)
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
