"""Persistent :class:`SimStats` memo store for the serve front end.

Repeat queries should never re-simulate: every completed simulation
lands in an on-disk store keyed exactly like the checkpoint manifest —
``workload|factor|config-fingerprint|code-hash`` — with the same
atomic write-then-rename discipline, so a crash mid-store can only
leave the previous entry (or no entry), never a torn one.

The code hash is :func:`repro.robustness.runner.code_fingerprint`: any
edit to the simulator invalidates memoized stats the same way it
invalidates checkpointed experiment text, with the same operator-facing
warning shape (``memo invalidated (code changed): old=... new=...``).
A corrupt or torn entry self-heals: it is unlinked and the query falls
through to a fresh simulation that overwrites it.

Layout: one JSON file per key under the store root, named by a hash of
the *code-independent* part of the key (so a code change overwrites
stale entries in place instead of leaking files), carrying the full key
fields plus the :meth:`SimStats.to_dict` payload::

    results/.sim_memo/<sha256(workload|factor|fingerprint)[:24]>.json
    {"workload": "espresso", "factor": 0.05,
     "fingerprint": "b1946ac92492d234", "code": "7dd71...",
     "stats": {...}}

A write-through in-memory tier sits in front of the files; ``get``
order is memory -> disk -> miss.  The memory tier is an LRU of
``MEMORY_ENTRIES`` stats, so a long-lived server stays bounded; an
evicted key is answered from disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import threading
from collections import OrderedDict

from repro.core.stats import SimStats
from repro.telemetry.logging import get_logger

#: Default store location, beside the trace cache and checkpoint trees.
DEFAULT_ROOT = pathlib.Path("results") / ".sim_memo"
#: Bound on the in-memory tier: well above the distinct keys of a
#: benchmark run, small beside a server's life of diverse queries.
MEMORY_ENTRIES = 4096

_log = get_logger("store")


class MemoStore:
    """The persistent (workload, factor, config, code) -> SimStats memo.

    Thread-safe: the serve batcher stores results from executor
    callbacks while the event loop reads concurrently.
    """

    def __init__(
        self,
        root: str | pathlib.Path = DEFAULT_ROOT,
        *,
        code_hash: str | None = None,
        stream=None,
    ) -> None:
        self.root = pathlib.Path(root)
        if code_hash is None:
            from repro.robustness.runner import code_fingerprint

            code_hash = code_fingerprint()
        self.code_hash = code_hash
        self._stream = stream
        self._lock = threading.Lock()
        #: full key -> stats, least recently used first.
        self._memory: "OrderedDict[str, SimStats]" = OrderedDict()
        # validation_snapshot-style counters, published as serve.memo.*
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0
        self.corrupt = 0

    # ------------------------------------------------------------- keying

    @staticmethod
    def key(
        workload: str, factor: float, fingerprint: str, code_hash: str
    ) -> str:
        """The full memo key (same shape as the checkpoint manifest's)."""
        return (
            f"{workload}|factor={factor!r}|config={fingerprint}"
            f"|code={code_hash}"
        )

    def path_for(self, workload: str, factor: float, fingerprint: str
                 ) -> pathlib.Path:
        """Entry path — code-independent, so stale code overwrites."""
        stem = hashlib.sha256(
            f"{workload}|factor={factor!r}|config={fingerprint}".encode()
        ).hexdigest()[:24]
        return self.root / f"{stem}.json"

    # ------------------------------------------------------------- lookup

    def get(
        self, workload: str, factor: float, fingerprint: str
    ) -> SimStats | None:
        """Memoized stats, or None (memory -> disk -> miss).

        Entries written by different code warn and are dropped; corrupt
        entries are unlinked so the recompute can self-heal the store.
        """
        full_key = self.key(workload, factor, fingerprint, self.code_hash)
        with self._lock:
            stats = self._memory.get(full_key)
            if stats is not None:
                self.hits_memory += 1
                self._memory.move_to_end(full_key)
                return stats
        path = self.path_for(workload, factor, fingerprint)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._heal(path, "unreadable entry")
            return None
        if not isinstance(payload, dict):
            self._heal(path, "entry is not an object")
            return None
        stored_code = payload.get("code")
        if stored_code != self.code_hash:
            with self._lock:
                self.invalidated += 1
                self.misses += 1
            _log.warning(
                "memo.invalidated",
                path=path.name,
                old_code=stored_code,
                new_code=self.code_hash,
            )
            self._warn(
                f"memo invalidated (code changed): "
                f"old={stored_code} new={self.code_hash}"
            )
            path.unlink(missing_ok=True)
            return None
        if (
            payload.get("workload") != workload
            or payload.get("factor") != factor
            or payload.get("fingerprint") != fingerprint
        ):
            self._heal(path, "entry key mismatch")
            return None
        try:
            stats = SimStats.from_dict(payload.get("stats"))
        except ValueError as error:
            self._heal(path, str(error))
            return None
        with self._lock:
            self.hits_disk += 1
            self._remember(full_key, stats)
        return stats

    def _remember(self, full_key: str, stats: SimStats) -> None:
        """Insert into the memory tier (lock held), evicting the LRU."""
        self._memory[full_key] = stats
        self._memory.move_to_end(full_key)
        if len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    def _heal(self, path: pathlib.Path, why: str) -> None:
        with self._lock:
            self.corrupt += 1
            self.misses += 1
        _log.warning("memo.self_heal", path=path.name, why=why)
        self._warn(f"memo self-heal: {path.name}: {why}; recomputing")
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

    def _warn(self, message: str) -> None:
        if self._stream is not None:
            print(f"warning: {message}", file=self._stream)

    # -------------------------------------------------------------- store

    def put(
        self,
        workload: str,
        factor: float,
        fingerprint: str,
        stats: SimStats,
    ) -> None:
        """Write-through store (atomic write-then-rename on disk)."""
        full_key = self.key(workload, factor, fingerprint, self.code_hash)
        with self._lock:
            self._remember(full_key, stats)
            self.stores += 1
        payload = {
            "workload": workload,
            "factor": factor,
            "fingerprint": fingerprint,
            "code": self.code_hash,
            "stats": stats.to_dict(),
        }
        path = self.path_for(workload, factor, fingerprint)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle)
                    handle.write("\n")
                os.replace(tmp_name, path)
            except OSError:
                pathlib.Path(tmp_name).unlink(missing_ok=True)
                raise
        except OSError:
            # A read-only or full disk degrades to a memory-only memo,
            # never a failed response.
            pass

    def flush(self) -> int:
        """Barrier for shutdown: the store is write-through, so there is
        nothing buffered — returns the number of entries persisted this
        process for the drain log line."""
        with self._lock:
            return self.stores

    # ---------------------------------------------------------- counters

    def snapshot(self) -> dict[str, int]:
        """Counter snapshot (serve publishes these as ``serve.memo.*``)."""
        with self._lock:
            return {
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "stores": self.stores,
                "invalidated": self.invalidated,
                "corrupt": self.corrupt,
            }
