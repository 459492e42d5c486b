"""Tests for the persistent on-disk trace cache and its registry tier."""

import numpy as np
import pytest

from repro.func.trace import (
    TraceIOError,
    load_trace_array,
    records_array,
    save_trace_array,
)
from repro.isa.instructions import Kind
from repro.workloads import registry, trace_cache
from repro.workloads.trace_cache import TraceCache, trace_fingerprint

ALU = int(Kind.ALU)


def _trace(n=50):
    return [(4096 + 4 * i, ALU, 8, 9, -1, 0) for i in range(n)]


def _save_v1(path, trace):
    """Write ``trace`` in the retired v1 layout: a compressed archive."""
    np.savez_compressed(
        path,
        trace=records_array(trace),
        version=np.int64(1),
        count=np.int64(len(trace)),
    )


class TestTraceCache:
    def test_roundtrip(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.load("sc", 8) is None  # cold
        cache.store("sc", 8, _trace())
        assert cache.load("sc", 8) == _trace()
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert cache.mmap_loads == 1  # v2 entries come back memory-mapped

    def test_roundtrip_returns_prepared(self, tmp_path):
        from repro.func.prepared import PreparedTrace

        cache = TraceCache(tmp_path)
        cache.store("sc", 8, _trace())
        loaded = cache.load("sc", 8)
        assert isinstance(loaded, PreparedTrace)
        assert loaded.to_records() == _trace()

    def test_distinct_keys_per_name_and_scale(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("sc", 8, _trace(10))
        cache.store("sc", 9, _trace(20))
        cache.store("li", 8, _trace(30))
        assert len(cache.load("sc", 8)) == 10
        assert len(cache.load("sc", 9)) == 20
        assert len(cache.load("li", 8)) == 30

    def test_corrupt_file_is_dropped_and_missed(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.path_for("sc", 8)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a numpy archive at all")
        assert cache.load("sc", 8) is None
        assert not path.exists()  # poisoned entry deleted on contact
        assert cache.misses == 1

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path)
        cache.store("sc", 8, _trace())
        # A changed functional/ISA/workload source changes the
        # fingerprint, which changes the file name: old entries are
        # simply never looked up again.
        monkeypatch.setattr(
            trace_cache, "trace_fingerprint", lambda: "0" * 16
        )
        assert cache.load("sc", 8) is None

    def test_eviction_keeps_newest(self, tmp_path):
        import os

        cache = TraceCache(tmp_path, max_entries=2)
        for i, name in enumerate(("a", "b", "c", "d")):
            cache.store(name, 8, _trace(10))
            # mtime resolution can be coarse; force a strict ordering
            stamp = 1_000_000_000 + i
            os.utime(cache.path_for(name, 8), (stamp, stamp))
            cache._evict()
        remaining = sorted(p.name for p in tmp_path.glob("*.npy"))
        assert len(remaining) == 2
        assert cache.load("c", 8) is not None
        assert cache.load("d", 8) is not None
        assert cache.load("a", 8) is None

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = TraceCache(tmp_path, enabled=False)
        cache.store("sc", 8, _trace())
        assert list(tmp_path.iterdir()) == []
        assert cache.load("sc", 8) is None
        assert cache.misses == 1 and cache.stores == 0

    def test_max_entries_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            TraceCache(tmp_path, max_entries=0)

    def test_fingerprint_is_stable(self):
        assert trace_fingerprint() == trace_fingerprint()
        assert len(trace_fingerprint()) == 16

    def test_clear(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("sc", 8, _trace())
        cache.clear()
        assert list(tmp_path.glob("*.npy")) == []
        assert list(tmp_path.glob("*.npz")) == []


def _legacy_path(cache, name, scale):
    """Where the retired compressed-archive format kept an entry."""
    return cache.root / f"{name}-s{scale}-{trace_fingerprint()}.npz"


class TestCacheMigration:
    """Legacy archives are never read; v2 entries self-heal."""

    def test_lone_legacy_archive_is_a_miss_and_left_on_disk(self, tmp_path):
        cache = TraceCache(tmp_path)
        legacy = _legacy_path(cache, "sc", 8)
        _save_v1(legacy, _trace())
        assert cache.load("sc", 8) is None
        assert cache.hits == 0 and cache.misses == 1
        assert legacy.exists()
        assert not cache.path_for("sc", 8).exists()

    def test_truncated_v2_self_heals(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("sc", 8, _trace(200))
        path = cache.path_for("sc", 8)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn write / bad disk
        assert cache.load("sc", 8) is None  # miss, not garbage
        assert not path.exists()  # poisoned entry deleted on contact
        cache.store("sc", 8, _trace(200))  # next store rewrites it
        assert cache.load("sc", 8) == _trace(200)

    def test_v2_preferred_over_stale_v1(self, tmp_path):
        cache = TraceCache(tmp_path)
        legacy = _legacy_path(cache, "sc", 8)
        legacy.parent.mkdir(parents=True, exist_ok=True)
        _save_v1(legacy, _trace(10))
        cache.store("sc", 8, _trace(20))
        assert len(cache.load("sc", 8)) == 20  # v2 wins

    def test_env_switch_bypasses_both_formats(self, tmp_path, monkeypatch):
        # Populate entries in both formats, then flip the kill switch:
        # neither may be consulted.
        cache = TraceCache(tmp_path)
        cache.store("sc", 8, _trace())
        _save_v1(_legacy_path(cache, "li", 8), _trace())
        monkeypatch.setenv(trace_cache.ENV_SWITCH, "0")
        monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path))
        monkeypatch.setattr(trace_cache, "_default", None)
        disabled = trace_cache.default_cache()
        assert not disabled.enabled
        assert disabled.load("sc", 8) is None
        assert disabled.load("li", 8) is None
        assert _legacy_path(disabled, "li", 8).exists()  # untouched


class TestDefaultCache:
    def test_env_switch_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_SWITCH, "off")
        monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path))
        monkeypatch.setattr(trace_cache, "_default", None)
        cache = trace_cache.default_cache()
        assert not cache.enabled
        assert cache.root == tmp_path

    def test_set_enabled_flips_default(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            trace_cache, "_default", TraceCache(tmp_path)
        )
        trace_cache.set_enabled(False)
        assert not trace_cache.default_cache().enabled

    def test_snapshot_counts_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            trace_cache, "_default", TraceCache(tmp_path)
        )
        trace_cache.default_cache().load("nope", 1)
        assert trace_cache.snapshot() == (0, 1)


class TestRegistryDiskTier:
    def test_disk_tier_avoids_rebuild(self, tmp_path, monkeypatch):
        # Build once (disk miss -> functional sim -> store) ...
        monkeypatch.setattr(trace_cache, "_default", TraceCache(tmp_path))
        registry.clear_trace_cache()
        first = registry.get_trace("sc", 7)
        assert trace_cache.snapshot() == (0, 1)
        assert list(tmp_path.glob("sc-s7-*.v2.npy"))
        # ... then drop the memory memo and break the functional
        # simulator: the second lookup must come from disk.
        registry.clear_trace_cache()

        def boom(*args, **kwargs):
            raise AssertionError("trace was rebuilt despite a disk hit")

        monkeypatch.setattr(registry, "run_program", boom)
        second = registry.get_trace("sc", 7)
        assert second == first
        assert trace_cache.snapshot() == (1, 1)

    def test_cold_build_prepares_once_and_stores_that_array(
        self, tmp_path, monkeypatch
    ):
        from repro.func.prepared import prepare_snapshot

        monkeypatch.setattr(trace_cache, "_default", TraceCache(tmp_path))
        registry.clear_trace_cache()
        stored = []
        store = TraceCache.store
        monkeypatch.setattr(
            TraceCache,
            "store",
            lambda self, name, scale, trace: (
                stored.append(trace), store(self, name, scale, trace)
            ),
        )
        before, _ = prepare_snapshot()
        trace = registry.get_trace("sc", 7)
        assert prepare_snapshot()[0] == before + 1
        assert len(stored) == 1 and stored[0] is trace
        assert trace.source == "build"

    def test_corrupt_disk_entry_falls_back_to_build(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(trace_cache, "_default", TraceCache(tmp_path))
        registry.clear_trace_cache()
        cache = trace_cache.default_cache()
        path = cache.path_for("sc", 7)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        trace = registry.get_trace("sc", 7)
        assert len(trace) > 0
        # rebuilt and re-stored a good copy
        assert cache.load("sc", 7) == trace


class TestTraceIOValidation:
    """``load_trace_array`` refuses every file that is not a v2 trace."""

    def test_unreadable_archive_raises(self, tmp_path):
        bad = tmp_path / "bad.npy"
        bad.write_bytes(b"\x00\x01\x02")
        with pytest.raises(TraceIOError, match="unreadable"):
            load_trace_array(bad)

    def test_missing_trace_array_raises(self, tmp_path):
        path = tmp_path / "empty.npz"
        np.savez_compressed(path, other=np.zeros(3))
        with pytest.raises(TraceIOError, match="not a numpy array file"):
            load_trace_array(path, mmap=False)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "vers.npz"
        _save_v1(path, _trace())
        with pytest.raises(TraceIOError, match="not a numpy array file"):
            load_trace_array(path, mmap=False)

    def test_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "shape.npy"
        np.save(path, np.zeros((4, 5), dtype=np.int64))
        with pytest.raises(TraceIOError, match="shape"):
            load_trace_array(path)

    def test_non_integral_dtype_raises(self, tmp_path):
        path = tmp_path / "dtype.npy"
        np.save(path, np.zeros((4, 6)))
        with pytest.raises(TraceIOError, match="dtype"):
            load_trace_array(path)

    def test_trace_io_error_is_value_error(self):
        assert issubclass(TraceIOError, ValueError)

    def test_versioned_roundtrip(self, tmp_path):
        path = tmp_path / "t.v2.npy"
        save_trace_array(str(path), records_array(_trace()))
        loaded = load_trace_array(path)
        assert [tuple(int(v) for v in row) for row in loaded] == _trace()
