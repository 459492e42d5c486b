"""Chaos-engineering harness: deterministic failure injection at every
I/O and process boundary of the sweep stack.

A :class:`ChaosPlan` is the one fault plan of the sweep.  It names
failures at the *experiment* boundary (a callable crashes, wedges, or
returns garbage; :mod:`repro.robustness.faults` injects them) and at
everything underneath it — the surfaces a multi-hour production sweep
actually dies on:

* **Trace-cache corruption** — bit-flips inside ``.v2.npy`` payloads,
  truncation mid-record, stale v1 archives planted next to v2 entries.
  Detected by the CRC32 sidecar check in
  :mod:`repro.workloads.trace_cache`; the entry is quarantined and
  rebuilt, and the sweep's results are byte-identical to a fault-free
  run.
* **Filesystem faults** — ``ENOSPC`` / ``EACCES`` / ``EIO`` raised at
  named fault *sites* (``cache.store``, ``cache.load``,
  ``manifest.save``) through :func:`fs_check`, a hook the trace cache
  and the checkpoint-manifest writer call before touching disk.  Each
  degrades (in-memory-only cache, un-checkpointed progress) instead of
  failing the sweep.
* **Pool faults** — failures at the experiment boundary: a crash
  (``crash``), a retried transient failure (``transient``), a hang past
  the wall-clock budget (``hang``), a result whose rendering fails
  (``corrupt-result``), a worker ``SIGKILL`` (``kill``) and a slow
  straggler (``straggler``).  The runner looks up each experiment's
  fault with :meth:`ChaosPlan.pool_fault` and injects it through
  :class:`~repro.robustness.faults.InjectedFault`, so it replays
  deterministically in either executor.
* **Torn checkpoint manifests** — the manifest JSON truncated
  mid-entry, as a crash between ``write`` and ``rename`` would leave it
  without the write-then-rename discipline.  Recovery salvages the
  last valid checkpoint from the ``.bak`` the runner keeps.

Everything is driven by a seeded :class:`ChaosPlan` — same plan, same
seed, same injections, in the parent and in every pool worker (workers
get the plan through the pool initializer).  With no plan installed
every hook is a single global-is-None check.

CLI::

    aurora-sim experiments --factor 0.05 --jobs 2 \
        --chaos "kill:fig4,bitflip:*,enospc:cache.store" --chaos-seed 7

Spec grammar: comma-separated ``kind[:target[:count[:seconds]]]``
tokens; see :data:`CHAOS_KINDS` for the kinds and their targets.
"""

from __future__ import annotations

import contextlib
import errno
import os
import pathlib
from dataclasses import dataclass, field

#: kind -> (category, description).  Categories: "disk" faults are
#: applied to on-disk state before the sweep starts; "fs" faults raise
#: OSErrors at a named fault site during the sweep; "pool" faults fire
#: at the experiment boundary (see repro.robustness.faults).
CHAOS_KINDS = {
    "bitflip": ("disk", "flip one payload bit in matching .v2.npy cache "
                        "entries (target: workload name or '*')"),
    "truncate": ("disk", "truncate matching .v2.npy cache entries "
                         "mid-record (target: workload name or '*')"),
    "stale-v1": ("disk", "plant a stale v1 .npz archive next to matching "
                         "v2 entries (target: workload name or '*')"),
    "torn-manifest": ("disk", "truncate the checkpoint manifest JSON "
                              "mid-entry (no target)"),
    "enospc": ("fs", "raise ENOSPC at a fault site (target: "
                     "cache.store | cache.load | manifest.save)"),
    "eacces": ("fs", "raise EACCES at a fault site"),
    "eio": ("fs", "raise EIO at a fault site"),
    "crash": ("pool", "raise RuntimeError on every attempt of the target "
                      "experiment (a permanent failure)"),
    "transient": ("pool", "raise TransientFault on the target experiment's "
                          "first `count` attempts (retried with backoff)"),
    "corrupt-result": ("pool", "run the target experiment, then return a "
                               "result whose render() raises"),
    "kill": ("pool", "SIGKILL the worker running the target experiment "
                     "on its first `count` executions"),
    "hang": ("pool", "wedge the target experiment for `seconds` "
                     "(tripped by the runner's --timeout)"),
    "straggler": ("pool", "delay the target experiment by `seconds` "
                          "before it runs"),
}

#: Fault sites accepted by "fs"-category kinds.
FS_SITES = ("cache.store", "cache.load", "manifest.save")

_ERRNOS = {
    "enospc": errno.ENOSPC,
    "eacces": errno.EACCES,
    "eio": errno.EIO,
}

#: numpy's .npy header occupies at least this many bytes; disk
#: corruption aims past it so the *payload* (not the parseable header)
#: is damaged — the silent-corruption case only a checksum catches.
_NPY_HEADER_BYTES = 128


class ChaosError(ValueError):
    """A chaos spec is malformed (unknown kind, bad target, bad count)."""


def _lcg(state: int) -> int:
    """One step of the same 64-bit LCG ``corrupt_trace`` uses."""
    return (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)


@dataclass(frozen=True)
class ChaosFault:
    """One injected failure (see :data:`CHAOS_KINDS`)."""

    kind: str
    target: str = "*"
    count: int = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ChaosError(
                f"unknown chaos kind {self.kind!r}; expected one of "
                f"{', '.join(sorted(CHAOS_KINDS))}"
            )
        if CHAOS_KINDS[self.kind][0] == "fs" and self.target not in FS_SITES:
            raise ChaosError(
                f"chaos kind {self.kind!r} needs a fault site target, "
                f"one of {', '.join(FS_SITES)}; got {self.target!r}"
            )
        if self.count < 1:
            raise ChaosError(f"count must be >= 1, got {self.count}")
        if self.seconds <= 0:
            raise ChaosError(f"seconds must be > 0, got {self.seconds}")

    @property
    def category(self) -> str:
        return CHAOS_KINDS[self.kind][0]


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, picklable set of chaos faults (see module docs).

    Frozen so it ships unchanged to pool workers; all mutable injection
    state (remaining fs-fault budgets) lives in the per-process
    :func:`activate` installation, never on the plan.
    """

    seed: int = 0
    faults: tuple[ChaosFault, ...] = field(default_factory=tuple)

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "ChaosPlan":
        """Parse a CLI spec: ``kind[:target[:count[:seconds]]],...``."""
        faults = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            parts = token.split(":")
            kind = parts[0]
            kwargs: dict = {}
            if len(parts) > 1 and parts[1]:
                kwargs["target"] = parts[1]
            try:
                if len(parts) > 2 and parts[2]:
                    kwargs["count"] = int(parts[2])
                if len(parts) > 3 and parts[3]:
                    kwargs["seconds"] = float(parts[3])
            except ValueError as error:
                raise ChaosError(
                    f"chaos token {token!r}: {error}"
                ) from None
            if len(parts) > 4:
                raise ChaosError(
                    f"chaos token {token!r}: expected "
                    "kind[:target[:count[:seconds]]]"
                )
            faults.append(ChaosFault(kind=kind, **kwargs))
        if not faults:
            raise ChaosError(f"chaos spec {spec!r} names no faults")
        return cls(seed=seed, faults=tuple(faults))

    # ------------------------------------------------------- lookups

    def pool_fault(self, exp_id: str) -> ChaosFault | None:
        """The pool fault injected into ``exp_id``, or ``None``.

        A ``*`` target matches every experiment; when several pool
        faults match, the last one in spec order wins.
        """
        found = None
        for chaos_fault in self.faults:
            if chaos_fault.category == "pool" and chaos_fault.target in (
                "*",
                exp_id,
            ):
                found = chaos_fault
        return found

    def fs_budgets(self) -> dict[str, dict]:
        """Per-site mutable budgets for :func:`fs_check` (one process)."""
        budgets: dict[str, dict] = {}
        for chaos_fault in self.faults:
            if chaos_fault.category != "fs":
                continue
            budgets[chaos_fault.target] = {
                "errno": _ERRNOS[chaos_fault.kind],
                "kind": chaos_fault.kind,
                "remaining": chaos_fault.count,
            }
        return budgets

    # --------------------------------------------------- disk corruption

    def apply_disk(
        self,
        cache_root: str | pathlib.Path | None,
        manifest_path: str | pathlib.Path | None,
        *,
        stream=None,
    ) -> list[str]:
        """Apply disk-category faults to on-disk state, pre-run.

        Corrupts whatever currently exists (a cold cache or absent
        manifest yields no injections for that fault); returns a
        description line per applied injection and echoes them to
        ``stream``.
        """
        applied: list[str] = []
        root = pathlib.Path(cache_root) if cache_root else None
        state = _lcg(self.seed ^ 0x9E3779B97F4A7C15)
        for chaos_fault in self.faults:
            if chaos_fault.category != "disk":
                continue
            if chaos_fault.kind == "torn-manifest":
                if manifest_path and tear_manifest(manifest_path):
                    applied.append(f"tore manifest {manifest_path}")
                continue
            if root is None or not root.is_dir():
                continue
            pattern = (
                "*.v2.npy"
                if chaos_fault.target == "*"
                else f"{chaos_fault.target}-s*.v2.npy"
            )
            for entry in sorted(root.glob(pattern)):
                state = _lcg(state)
                if chaos_fault.kind == "bitflip":
                    if bitflip_file(entry, state):
                        applied.append(f"bit-flipped {entry.name}")
                elif chaos_fault.kind == "truncate":
                    if truncate_file(entry, state):
                        applied.append(f"truncated {entry.name}")
                elif chaos_fault.kind == "stale-v1":
                    v1 = plant_stale_v1(entry)
                    if v1 is not None:
                        applied.append(f"planted stale v1 {v1.name}")
        if applied:
            from repro.telemetry.logging import get_logger

            log = get_logger("chaos")
            for line in applied:
                log.warning("chaos.injected", action=line)
        if stream is not None:
            for line in applied:
                print(f"chaos: {line}", file=stream)
        return applied


# ----------------------------------------------------- corruption helpers


def bitflip_file(path: str | pathlib.Path, seed: int) -> bool:
    """Flip one deterministic payload bit of ``path`` (skips the .npy
    header so numpy still parses the file — the silent-corruption case).
    """
    path = pathlib.Path(path)
    try:
        blob = bytearray(path.read_bytes())
    except OSError:
        return False
    if not blob:
        return False
    start = _NPY_HEADER_BYTES if len(blob) > _NPY_HEADER_BYTES else 0
    state = _lcg(seed)
    index = start + (state >> 33) % (len(blob) - start)
    blob[index] ^= 1 << ((state >> 13) % 8)
    try:
        path.write_bytes(bytes(blob))
    except OSError:
        return False
    return True


def truncate_file(path: str | pathlib.Path, seed: int) -> bool:
    """Cut ``path`` short at a deterministic mid-record offset."""
    path = pathlib.Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return False
    if size <= _NPY_HEADER_BYTES:
        return False
    state = _lcg(seed)
    keep = _NPY_HEADER_BYTES + (state >> 33) % (size - _NPY_HEADER_BYTES)
    try:
        with open(path, "r+b") as handle:
            handle.truncate(keep)
    except OSError:
        return False
    return True


def plant_stale_v1(v2_path: str | pathlib.Path) -> pathlib.Path | None:
    """Write a stale (valid but outdated) v1 archive next to a v2 entry.

    The v1 trace is a tiny well-formed NOP trace that is *wrong* for the
    workload — if the cache ever served it, the sweep's numbers would
    silently change.  The cache never reads legacy archives; tests
    assert the archive is not served even when the v2 entry is corrupt.
    """
    import numpy as np

    v2_path = pathlib.Path(v2_path)
    name = v2_path.name
    if not name.endswith(".v2.npy"):
        return None
    v1_path = v2_path.with_name(name[: -len(".v2.npy")] + ".npz")
    stale = np.array(
        [(4096 + 4 * i, 0, -1, -1, -1, 0) for i in range(16)], np.int64
    )
    try:
        # The v1 layout: the records, the format version and the count.
        np.savez_compressed(
            v1_path, trace=stale, version=np.int64(1), count=np.int64(16)
        )
    except OSError:
        return None
    return v1_path


def tear_manifest(path: str | pathlib.Path) -> bool:
    """Truncate a JSON manifest mid-entry (simulated torn write)."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError:
        return False
    if len(text) < 8:
        return False
    try:
        path.write_text(text[: 2 * len(text) // 3])
    except OSError:
        return False
    return True


# ----------------------------------------------------- runtime injection

_active_plan: ChaosPlan | None = None
_fs_budgets: dict[str, dict] = {}


def activate(plan: ChaosPlan | None) -> None:
    """Install ``plan`` process-wide (pool workers call this via the
    initializer; ``None`` uninstalls)."""
    global _active_plan, _fs_budgets
    _active_plan = plan
    _fs_budgets = plan.fs_budgets() if plan is not None else {}


def deactivate() -> None:
    activate(None)


@contextlib.contextmanager
def active(plan: ChaosPlan):
    """Scoped :func:`activate` for tests."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()


def fs_check(site: str) -> None:
    """Raise the scheduled OSError for ``site``, if any remains.

    Called by the trace cache and the manifest writer immediately before
    they touch the filesystem.  With no plan installed this is one
    global-is-None check; budgets are per process (the parent and each
    worker replay the same first-``count``-calls schedule).
    """
    if _active_plan is None:
        return
    budget = _fs_budgets.get(site)
    if not budget or budget["remaining"] <= 0:
        return
    budget["remaining"] -= 1
    code = budget["errno"]
    raise OSError(
        code,
        f"injected {budget['kind']} at fault site {site!r}: "
        f"{os.strerror(code)}",
    )
