"""Dynamic-trace infrastructure.

A trace is the interchange format between the functional simulator
(:mod:`repro.func.machine`) and the timing models (:mod:`repro.core`).
Each record is a compact 6-tuple of ints::

    (pc, kind, dst, src1, src2, addr)

* ``pc`` — byte address of the instruction,
* ``kind`` — :class:`repro.isa.instructions.Kind` value,
* ``dst``/``src1``/``src2`` — unified register ids (below), -1 when absent,
* ``addr`` — effective byte address for memory operations; for control-flow
  instructions, the *taken* target address, or 0 when not taken.

Unified register-id space (so one scoreboard array covers all namespaces):

* 0–31   integer registers (id 0, ``$zero``, is never recorded as a
  dependency — reads of it are always ready and writes are discarded),
* 32–63  FP registers (``32 + n``),
* 64, 65 HI and LO.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.isa.instructions import Kind

# Unified register-id space.
FP_REG_BASE = 32
HI_REG = 64
LO_REG = 65
NUM_UNIFIED_REGS = 66
NO_REG = -1

#: Type alias used throughout: one trace record.
TraceRecord = tuple[int, int, int, int, int, int]

_CONTROL_KINDS = (int(Kind.BRANCH), int(Kind.JUMP))
_MEMORY_KINDS = frozenset(
    int(k)
    for k in (Kind.LOAD, Kind.STORE, Kind.FP_LOAD, Kind.FP_STORE, Kind.FP_MOVE)
)
_FP_KINDS = frozenset(
    int(k)
    for k in (
        Kind.FP_ADD,
        Kind.FP_MUL,
        Kind.FP_DIV,
        Kind.FP_CVT,
        Kind.FP_LOAD,
        Kind.FP_STORE,
        Kind.FP_MOVE,
    )
)


@dataclass
class TraceStats:
    """Summary statistics over a trace (instruction mix, footprints)."""

    total: int = 0
    by_kind: dict[Kind, int] = field(default_factory=dict)
    taken_branches: int = 0
    unique_code_lines: int = 0
    unique_data_lines: int = 0
    line_size: int = 32

    @property
    def loads(self) -> int:
        return self.by_kind.get(Kind.LOAD, 0) + self.by_kind.get(Kind.FP_LOAD, 0)

    @property
    def stores(self) -> int:
        return self.by_kind.get(Kind.STORE, 0) + self.by_kind.get(Kind.FP_STORE, 0)

    @property
    def fp_ops(self) -> int:
        return sum(count for kind, count in self.by_kind.items() if kind.is_fp)

    def fraction(self, kind: Kind) -> float:
        if self.total == 0:
            return 0.0
        return self.by_kind.get(kind, 0) / self.total

    @property
    def code_footprint_bytes(self) -> int:
        return self.unique_code_lines * self.line_size

    @property
    def data_footprint_bytes(self) -> int:
        return self.unique_data_lines * self.line_size


def compute_stats(trace, line_size: int = 32) -> TraceStats:
    """Compute mix and footprint statistics for a trace.

    Vectorized over a :class:`~repro.func.prepared.PreparedTrace`'s
    columns; a plain ``list[TraceRecord]`` is record-checked and
    prepared first.  Raises :class:`ValueError` unless ``line_size`` is a
    positive power of two.
    """
    from repro.func import prepared as _prepared

    return _prepared.compute_stats_prepared(
        _prepared.as_prepared(trace), line_size
    )


def records_array(records) -> np.ndarray:
    """The ``(n, 6)`` int64 array of ``n`` records, built in one pass.

    Raises :class:`ValueError` unless the records hold ``6 * n`` fields.
    """
    count = len(records)
    fields = itertools.chain.from_iterable(records)
    array = np.fromiter(fields, np.int64, 6 * count)
    if next(fields, None) is not None:
        raise ValueError(f"{count} trace records hold more than {6 * count} fields")
    return array.reshape(count, 6)


class TraceIOError(ValueError):
    """A trace file is missing, malformed, or from a different format."""


def save_trace_array(path: str, array: np.ndarray) -> None:
    """Persist a trace's ``(n, 6)`` array uncompressed (cache format v2).

    A plain ``.npy`` file, so readers can map it with
    ``np.load(mmap_mode="r")`` and parallel workers share the pages
    through the OS page cache instead of each re-decompressing a zip
    archive (the retired v1 ``.npz`` format).
    """
    if array.ndim != 2 or (array.size and array.shape[1] != 6):
        raise ValueError(
            f"trace array must have shape (n, 6), got {array.shape}"
        )
    np.save(path, np.ascontiguousarray(array, dtype=np.int64))


def load_trace_array(path: str, *, mmap: bool = True) -> np.ndarray:
    """Load a v2 trace array, memory-mapped read-only by default.

    Raises :class:`TraceIOError` on unreadable/truncated files or a
    malformed array (a v1 ``.npz`` archive among them) — the trace cache
    treats that as a miss and quarantines the entry (self-healing).
    """
    try:
        array = np.load(path, mmap_mode="r" if mmap else None)
    except (OSError, ValueError, EOFError) as error:
        raise TraceIOError(f"{path}: unreadable trace array: {error}") from None
    if not isinstance(array, np.ndarray):
        array.close()  # an .npz archive (the v1 format) holds its file open
        raise TraceIOError(f"{path}: not a numpy array file")
    if array.ndim != 2 or (array.size and array.shape[1] != 6):
        raise TraceIOError(
            f"{path}: trace array has shape {array.shape}, expected (n, 6)"
        )
    if not np.issubdtype(array.dtype, np.integer):
        raise TraceIOError(
            f"{path}: trace array dtype {array.dtype} is not integral"
        )
    return array


def file_crc32(path: str, chunk_bytes: int = 1 << 22) -> tuple[int, int]:
    """``(crc32, size)`` of a file, streamed in chunks.

    Used by the trace cache to checksum v2 entries: chunked reads keep
    memory flat on factor-1.0 traces, and the pages land in the OS page
    cache, so the mmap load that follows a successful verify is free.
    Raises :class:`TraceIOError` on unreadable files.
    """
    crc = 0
    size = 0
    try:
        with open(path, "rb") as handle:
            while True:
                chunk = handle.read(chunk_bytes)
                if not chunk:
                    break
                crc = zlib.crc32(chunk, crc)
                size += len(chunk)
    except OSError as error:
        raise TraceIOError(f"{path}: unreadable for checksum: {error}") from None
    return crc, size


def is_memory_kind(kind: int) -> bool:
    return kind in _MEMORY_KINDS


def is_fp_kind(kind: int) -> bool:
    return kind in _FP_KINDS
