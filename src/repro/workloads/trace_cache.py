"""Persistent on-disk trace cache.

The in-memory ``(name, scale)`` memo in :mod:`repro.workloads.registry`
dies with the process, so every fresh CLI run — and every process-pool
worker — used to re-execute the functional simulator for every workload
it touched.  This module gives traces a second, durable tier: numpy
files under ``results/.trace_cache/`` (override with
``$REPRO_TRACE_CACHE_DIR``; disable with ``$REPRO_TRACE_CACHE=off`` or
``--no-trace-cache``).

Format v2 (current).  A cache entry is an **uncompressed** ``.npy``
array named ``<workload>-s<scale>-<fingerprint>.v2.npy``, loaded with
``np.load(mmap_mode="r")`` and wrapped in a
:class:`~repro.func.prepared.PreparedTrace`.  Uncompressed-and-mapped
beats the old compressed archive twice over: loads are lazy (no zip
inflate before the first record is touched), and parallel sweep workers
share the file's pages through the OS page cache instead of each
holding a private decompressed copy.

Legacy archives.  The earlier compressed ``.npz`` format is never read:
a lookup consults only the v2 entry, so a leftover archive can neither
answer a miss nor shadow a corrupt v2 entry.  Archives still match the
eviction and :meth:`TraceCache.clear` globs, so they are reaped.

Invalidation key.  The 16-hex fingerprint in the file name hashes every
``.py`` source file of the packages that determine trace content —
``repro.isa`` (encoding), ``repro.func`` (functional execution) and
``repro.workloads`` (the kernel builders).  Editing any of them changes
the fingerprint, so stale traces are never loaded; they linger only
until eviction.  Timing-model changes (``repro.core``) deliberately do
NOT invalidate traces: a trace is pure architecture, not timing.

Determinism.  Kernel builders and the functional simulator are
deterministic functions of ``(name, scale)``, so a cached trace is
byte-identical to a rebuilt one; caching can change wall time but never
simulation results.

Integrity.  Every v2 store writes a CRC32 sidecar
(``<entry>.v2.npy.crc``, itself written atomically) recording the
entry's checksum and size.  Loads verify the sidecar before the first
mmap (once per path per process; the streamed read warms the page cache
the mmap then reuses) — a mismatch means silent payload corruption
(bit rot, torn write, chaos injection) that numpy would happily parse
into wrong simulation results.  Mismatched entries are **quarantined**
(moved to ``<root>/quarantine/`` for forensics) and counted as misses,
so the next build rewrites them; entries predating the sidecar are
verified-and-backfilled on first contact.  Verification is always on
(factor-1.0 traces pay one streamed read per process).

Eviction.  The cache holds at most ``max_entries`` files; inserting past
the bound deletes the oldest files by modification time (sidecars travel
with their entries).  Orphaned ``.tmp`` files older than
``TMP_REAP_SECONDS`` — the debris of a writer killed mid-store — are
reaped on the same sweep.  Corrupt or format-incompatible files are
treated as misses and dropped on contact (a truncated v2 file
self-heals the same way: the mmap fails to validate, the entry is
quarantined, and the next store rewrites it; an entry that maps but
fails checksum is caught by the CRC).

Degradation.  ``store`` never raises: a full disk, read-only root, or
injected fault (see :mod:`repro.robustness.chaos`) degrades to an
in-memory-only cache for that trace and bumps the ``degraded`` counter,
which the experiment runner surfaces as ``runner.cache_degraded``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pathlib
import tempfile
import time

import numpy as np

from repro.func.prepared import PreparedTrace, prepare_trace
from repro.func.trace import (
    TraceIOError,
    TraceRecord,
    file_crc32,
    load_trace_array,
    records_array,
    save_trace_array,
)
from repro.telemetry.logging import get_logger

_log = get_logger("trace_cache")

#: Default cache location (relative to the working directory).
DEFAULT_ROOT = pathlib.Path("results") / ".trace_cache"
#: Default bound on the number of cached trace files.
DEFAULT_MAX_ENTRIES = 128

#: On-disk cache format version (encoded in the v2 file suffix).
CACHE_FORMAT_VERSION = 2

#: Environment overrides (read once per process at first use).
ENV_DIR = "REPRO_TRACE_CACHE_DIR"
ENV_SWITCH = "REPRO_TRACE_CACHE"
_OFF_VALUES = ("0", "off", "no", "false", "disabled")
#: Values accepted as "enabled" by the switch above (eager env
#: validation rejects anything outside either list).
_ON_VALUES = ("1", "on", "yes", "true", "enabled")

#: Glob patterns covering every cache generation (eviction, clear) —
#: legacy ``.npz`` archives are never read, but they are still reaped.
_ENTRY_PATTERNS = ("*.npz", "*.npy")
#: Subdirectory where checksum-failed entries are parked for forensics.
QUARANTINE_DIR = "quarantine"
#: Orphaned temp files (a writer killed mid-store) older than this many
#: seconds are reaped during eviction sweeps.
TMP_REAP_SECONDS = 300.0


def _chaos_check(site: str) -> None:
    """Chaos fault-site hook (one global check when no plan is active).

    Imported lazily: the robustness package imports this module through
    the runner, so a module-level import would be circular.
    """
    from repro.robustness import chaos

    chaos.fs_check(site)


@functools.lru_cache(maxsize=1)
def trace_fingerprint() -> str:
    """Hash of every source file that determines trace *content*.

    Covers ``repro.isa``, ``repro.func`` and ``repro.workloads``; the
    timing models in ``repro.core`` are excluded on purpose — they
    consume traces but cannot change them.
    """
    package_root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for subpackage in ("isa", "func", "workloads"):
        for path in sorted((package_root / subpackage).rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class TraceCache:
    """One on-disk trace cache directory (see module docs).

    ``hits`` / ``misses`` / ``stores`` count disk lookups in this
    process; the experiment runner snapshots them around each experiment
    so cache behaviour is visible in its :class:`RunReport`.
    ``mmap_loads`` counts v2 entries served straight off a memory map —
    CI's warm-cache check asserts a warm sweep is all mmap loads.  The
    health counters (``degraded`` stores, ``checksum_failures``,
    ``quarantined`` entries, ``mmap_fallbacks`` served eagerly after an
    mmap failure) feed the runner's ``runner.cache_*`` degradation
    metrics.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        enabled: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = pathlib.Path(root) if root is not None else DEFAULT_ROOT
        self.max_entries = max_entries
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.mmap_loads = 0
        self.degraded = 0
        self.checksum_failures = 0
        self.quarantined = 0
        self.mmap_fallbacks = 0
        #: Paths whose checksum verified this process (verify once: the
        #: streamed read is cheap but not free on factor-1.0 traces).
        self._verified: set[pathlib.Path] = set()

    # ------------------------------------------------------------- paths

    def path_for(self, name: str, scale: int) -> pathlib.Path:
        """Current-format (v2) entry path."""
        return self.root / f"{name}-s{scale}-{trace_fingerprint()}.v2.npy"

    @staticmethod
    def sidecar_for(path: pathlib.Path) -> pathlib.Path:
        """CRC32 sidecar path for a v2 entry."""
        return path.with_name(path.name + ".crc")

    # --------------------------------------------------------- integrity

    def _write_sidecar(self, sidecar: pathlib.Path, crc: int, size: int) -> None:
        """Atomically write a checksum sidecar (best-effort, never raises)."""
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=sidecar.stem, suffix=".tmp"
            )
        except OSError:
            return
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(f"{crc:08x} {size}\n")
            os.replace(tmp_name, sidecar)
        except OSError:
            pathlib.Path(tmp_name).unlink(missing_ok=True)

    def _quarantine(self, path: pathlib.Path) -> None:
        """Park a bad entry (and its sidecar) under ``quarantine/``.

        Moving rather than deleting keeps the corrupt bytes around for
        forensics; if the move itself fails the entry is deleted so it
        cannot be served again.  Either way the next build re-stores.
        """
        self.quarantined += 1
        _log.warning("cache.quarantined", path=path.name)
        quarantine_root = self.root / QUARANTINE_DIR
        for victim in (path, self.sidecar_for(path)):
            if not victim.exists():
                continue
            try:
                quarantine_root.mkdir(parents=True, exist_ok=True)
                victim.replace(quarantine_root / victim.name)
            except OSError:
                try:
                    victim.unlink()
                except OSError:
                    pass
        self._verified.discard(path)

    def _verify_entry(self, path: pathlib.Path) -> bool:
        """True when ``path`` is safe to load (its checksum matches).

        Verified paths are memoized per process.  A missing sidecar marks
        a legacy entry: it is checksummed and the sidecar backfilled.  A
        mismatch (or malformed sidecar) quarantines the entry and returns
        False — the caller treats that as a miss and rebuilds.
        """
        if path in self._verified:
            return True
        want_crc = want_size = -1
        sidecar = self.sidecar_for(path)
        try:
            fields = sidecar.read_text().split()
            want_crc, want_size = int(fields[0], 16), int(fields[1])
        except OSError:
            sidecar = None  # legacy entry: backfill below
        except (ValueError, IndexError):
            pass  # malformed sidecar: guaranteed mismatch → quarantine
        try:
            crc, size = file_crc32(str(path))
        except TraceIOError:
            self._quarantine(path)
            return False
        if sidecar is None:
            self._write_sidecar(self.sidecar_for(path), crc, size)
            self._verified.add(path)
            return True
        if crc != want_crc or size != want_size:
            self.checksum_failures += 1
            _log.warning(
                "cache.checksum_failure",
                path=path.name,
                want_crc=f"{want_crc:08x}",
                got_crc=f"{crc:08x}",
                want_size=want_size,
                got_size=size,
            )
            self._quarantine(path)
            return False
        self._verified.add(path)
        return True

    # ------------------------------------------------------------ lookup

    def load(self, name: str, scale: int) -> PreparedTrace | None:
        """Cached prepared trace for ``(name, scale)``, or None (a miss).

        A disabled cache always misses.  A checksum-failed entry is
        quarantined and counted as a miss; an entry that maps but fails
        numpy validation falls back to an eager load, and only if that
        fails too is it quarantined.  Legacy ``.npz`` archives are never
        read.  A filesystem fault here (injected or real) degrades to a
        miss — the trace is rebuilt.
        """
        if not self.enabled:
            self.misses += 1
            return None
        try:
            _chaos_check("cache.load")
        except OSError as error:
            self.degraded += 1
            self.misses += 1
            _log.warning("cache.load_degraded", why=str(error))
            return None
        path = self.path_for(name, scale)
        if path.exists() and self._verify_entry(path):
            try:
                array = load_trace_array(path, mmap=True)
            except TraceIOError:
                # Checksum passed but the map failed (filesystem without
                # mmap support, transient map error): try one rung down.
                try:
                    array = load_trace_array(path, mmap=False)
                except TraceIOError:
                    self._quarantine(path)
                else:
                    self.hits += 1
                    self.mmap_fallbacks += 1
                    return prepare_trace(array, workload=name, source="eager")
            else:
                self.hits += 1
                self.mmap_loads += 1
                return prepare_trace(array, workload=name, source="mmap")
        self.misses += 1
        return None

    def store(
        self,
        name: str,
        scale: int,
        trace: "list[TraceRecord] | PreparedTrace | np.ndarray",
    ) -> None:
        """Persist ``trace`` atomically as v2, then enforce the bound.

        Never raises on I/O failure — a read-only or full disk degrades
        to an unpopulated cache, not a failed experiment.
        """
        if not self.enabled:
            return
        from repro.telemetry import tracing

        if isinstance(trace, PreparedTrace):
            array = trace.array
        elif isinstance(trace, np.ndarray):
            array = trace
        else:
            array = records_array(trace)
        path = self.path_for(name, scale)
        with tracing.span(
            "cache_store", "trace", workload=name, scale=scale
        ):
            try:
                _chaos_check("cache.store")
                self.root.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    dir=self.root, prefix=path.stem, suffix=".tmp"
                )
                os.close(fd)
                try:
                    save_trace_array(tmp_name, array)
                    # numpy appends .npy when the target lacks the suffix
                    tmp = pathlib.Path(tmp_name + ".npy")
                    # Checksum the temp file: after the rename a
                    # concurrent evictor may touch the entry, the tmp is
                    # exclusively ours.
                    crc, size = file_crc32(str(tmp))
                    tmp.replace(path)
                finally:
                    pathlib.Path(tmp_name).unlink(missing_ok=True)
            except (OSError, TraceIOError) as error:
                self.degraded += 1
                _log.warning(
                    "cache.store_degraded", path=path.name, why=str(error)
                )
                return
        self._write_sidecar(self.sidecar_for(path), crc, size)
        self._verified.add(path)
        self.stores += 1
        self._evict()

    # ---------------------------------------------------------- eviction

    @staticmethod
    def _reap_tmp(candidate: pathlib.Path, now: float) -> None:
        """Delete a temp file if it is old enough to be writer debris."""
        try:
            if now - candidate.stat().st_mtime >= TMP_REAP_SECONDS:
                candidate.unlink()
        except OSError:
            pass

    def _evict(self) -> None:
        """Enforce the entry bound and sweep debris.

        Oldest entries (by mtime) past ``max_entries`` are deleted with
        their sidecars.  The same pass reaps orphaned temp files older
        than ``TMP_REAP_SECONDS`` — a writer killed mid-store leaves
        both ``<stem>XXXX.tmp`` and ``<stem>XXXX.tmp.npy``, and the
        latter matches the ``*.npy`` entry glob, so temp names are
        excluded from the entry count.  Sidecars whose entry is gone
        (the entry/sidecar writes are two renames; an evictor in another
        process can land between them) are reaped too.  Concurrent
        processes may race every deletion here, so each one tolerates
        a losing race.
        """
        try:
            now = time.time()
            entries = []
            for pattern in _ENTRY_PATTERNS:
                for candidate in self.root.glob(pattern):
                    if ".tmp" in candidate.name:
                        self._reap_tmp(candidate, now)
                        continue
                    try:
                        entries.append((candidate.stat().st_mtime, candidate))
                    except OSError:
                        continue
            for candidate in self.root.glob("*.tmp"):
                self._reap_tmp(candidate, now)
            for sidecar in self.root.glob("*.crc"):
                if not sidecar.with_name(sidecar.name[:-4]).exists():
                    sidecar.unlink(missing_ok=True)
        except OSError:
            return
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        entries.sort(key=lambda pair: pair[0])
        for _mtime, stale in entries[:excess]:
            for victim in (stale, self.sidecar_for(stale)):
                try:
                    victim.unlink(missing_ok=True)
                except OSError:
                    pass
            self._verified.discard(stale)

    def clear(self) -> None:
        """Delete every cache file (the directory itself stays)."""
        if not self.root.is_dir():
            return
        patterns = (*_ENTRY_PATTERNS, "*.crc", "*.tmp", f"{QUARANTINE_DIR}/*")
        for pattern in patterns:
            for entry in self.root.glob(pattern):
                try:
                    if entry.is_file():
                        entry.unlink()
                except OSError:
                    pass
        self._verified.clear()

    def snapshot(self) -> tuple[int, int]:
        """(hits, misses) so far — for delta accounting around a run."""
        return (self.hits, self.misses)

    def health_snapshot(self) -> tuple[int, int]:
        """(degraded, checksum_failures) — for delta accounting."""
        return (self.degraded, self.checksum_failures)


# ---------------------------------------------------------------- default

_default: TraceCache | None = None


def default_cache() -> TraceCache:
    """The process-wide cache (created from the environment on first use)."""
    global _default
    if _default is None:
        root = os.environ.get(ENV_DIR) or DEFAULT_ROOT
        enabled = os.environ.get(ENV_SWITCH, "").lower() not in _OFF_VALUES
        _default = TraceCache(root, enabled=enabled)
    return _default


def configure(
    root: str | pathlib.Path | None = None,
    *,
    enabled: bool = True,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> TraceCache:
    """Replace the process-wide cache (tests; process-pool workers)."""
    global _default
    _default = TraceCache(root, enabled=enabled, max_entries=max_entries)
    return _default


def set_enabled(enabled: bool) -> None:
    """Flip the process-wide cache on or off (``--no-trace-cache``)."""
    default_cache().enabled = enabled


def snapshot() -> tuple[int, int]:
    """(hits, misses) of the process-wide cache."""
    return default_cache().snapshot()


def health_snapshot() -> tuple[int, int]:
    """(degraded, checksum_failures) of the process-wide cache."""
    return default_cache().health_snapshot()
