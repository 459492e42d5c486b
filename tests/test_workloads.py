"""Workload-kernel tests: every SPEC92 analogue builds, runs, halts, and
exhibits the characteristics its benchmark is meant to model."""

import hashlib
import struct

import numpy as np
import pytest

from repro.func.machine import Machine, run_program
from repro.func.trace import compute_stats
from repro.isa.instructions import Kind
from repro.workloads.registry import (
    FP_SUITE,
    INTEGER_SUITE,
    WorkloadError,
    all_specs,
    build_program,
    get_spec,
    get_trace,
)

# Small scales for fast unit testing.
SMALL_SCALES = {
    "espresso": 12,
    "li": 120,
    "eqntott": 48,
    "compress": 1100,
    "sc": 8,
    "gcc": 220,
    "alvinn": 32,
    "doduc": 400,
    "ear": 24,
    "hydro2d": 10,
    "mdljdp2": 10,
    "nasa7": 6,
    "ora": 64,
    "spice2g6": 32,
    "su2cor": 48,
}


class TestRegistry:
    def test_all_fifteen_registered(self):
        names = {spec.name for spec in all_specs()}
        assert set(INTEGER_SUITE) <= names
        assert set(FP_SUITE) <= names
        assert len(names) == 15

    def test_suites_disjoint(self):
        assert not set(INTEGER_SUITE) & set(FP_SUITE)

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            get_spec("doom")

    def test_specs_have_descriptions(self):
        for spec in all_specs():
            assert spec.description
            assert spec.default_scale > 0
            assert spec.suite in ("int", "fp")

    def test_trace_memoisation(self):
        first = get_trace("sc", 8)
        second = get_trace("sc", 8)
        assert first is second


class TestTraceMemoLRU:
    def test_bound_evicts_least_recently_used(self, monkeypatch):
        from repro.workloads import registry

        monkeypatch.setattr(registry, "TRACE_MEMO_MAX", 2)
        registry.clear_trace_cache()
        evicted_before = registry.memo_snapshot()[2]
        get_trace("sc", 8)
        get_trace("sc", 10)
        get_trace("sc", 8)  # refresh: scale 8 is now most recent
        get_trace("sc", 12)  # third entry evicts the LRU (scale 10)
        assert registry.memo_snapshot()[2] == evicted_before + 1
        assert len(registry._TRACE_CACHE) == 2
        keep = get_trace("sc", 8)
        assert get_trace("sc", 8) is keep  # the refreshed entry survived

    def test_counters_in_snapshot(self, monkeypatch):
        from repro.workloads import registry

        registry.clear_trace_cache()
        hits_before, misses_before, _ = registry.memo_snapshot()
        get_trace("sc", 8)
        get_trace("sc", 8)
        hits, misses, _ = registry.memo_snapshot()
        assert hits == hits_before + 1
        assert misses == misses_before + 1


@pytest.mark.parametrize("name", INTEGER_SUITE + FP_SUITE)
class TestEveryKernel:
    def test_builds_and_halts(self, name):
        program = build_program(name, SMALL_SCALES[name])
        result = run_program(program, max_instructions=10_000_000)
        assert result.halted
        assert result.instructions > 500

    def test_deterministic(self, name):
        p1 = build_program(name, SMALL_SCALES[name])
        p2 = build_program(name, SMALL_SCALES[name])
        t1 = run_program(p1).trace
        t2 = run_program(p2).trace
        assert t1 == t2

    def test_has_memory_traffic(self, name):
        trace = get_trace(name, SMALL_SCALES[name])
        stats = compute_stats(trace)
        assert stats.loads > 0
        assert stats.stores > 0
        assert stats.taken_branches > 0


@pytest.mark.parametrize("name", FP_SUITE)
def test_fp_kernels_have_fp_work(name):
    trace = get_trace(name, SMALL_SCALES[name])
    stats = compute_stats(trace)
    assert stats.fp_ops / stats.total > 0.15


@pytest.mark.parametrize("name", INTEGER_SUITE)
def test_integer_kernels_have_no_fp(name):
    trace = get_trace(name, SMALL_SCALES[name])
    stats = compute_stats(trace)
    assert stats.fp_ops == 0


class TestCharacteristics:
    def test_integer_code_footprints_exceed_icaches(self):
        """Every integer kernel's dynamic code footprint must exceed the
        largest model's 4 KB I-cache, or Tables 3/4 would be vacuous."""
        for name in INTEGER_SUITE:
            stats = compute_stats(get_trace(name, SMALL_SCALES[name]))
            assert stats.code_footprint_bytes > 4 * 1024, name

    def test_compress_is_data_heavy(self):
        stats = compute_stats(get_trace("compress", 2000))
        assert stats.data_footprint_bytes > 16 * 1024

    def test_ora_is_divide_heavy(self):
        stats = compute_stats(get_trace("ora", SMALL_SCALES["ora"]))
        div_fraction = stats.by_kind.get(Kind.FP_DIV, 0) / stats.total
        assert div_fraction > 0.05

    def test_nasa7_is_multiply_heavy(self):
        stats = compute_stats(get_trace("nasa7", SMALL_SCALES["nasa7"]))
        assert stats.by_kind.get(Kind.FP_MUL, 0) > 0

    def test_li_is_pointer_chasing(self):
        stats = compute_stats(get_trace("li", SMALL_SCALES["li"]))
        load_fraction = stats.loads / stats.total
        assert load_fraction > 0.12

    def test_scale_grows_trace(self):
        small = len(get_trace("compress", 300))
        large = len(get_trace("compress", 900))
        assert large > 1.5 * small

    def test_espresso_validates_scale(self):
        with pytest.raises(ValueError):
            build_program("espresso", 1)

    def test_nasa7_requires_even_scale(self):
        with pytest.raises(ValueError):
            build_program("nasa7", 7)


#: name -> (records, trace-array SHA-256, final-state SHA-256) of each
#: kernel at its default scale (the full-size traces, factor 1.0),
#: generated with the per-instruction handler interpreter that the
#: decode-once simulator replaced.  Any change to a record or to the
#: architectural state a run leaves behind shows here.
FULL_SIZE_DIGESTS = {
    "espresso": (131318, "ac557f3f9916188ee99ed9c46e24cb243fe5be948e2f70be01e10eeb102cc797", "d7b4cb9bf0c038521b3527966afd502c6f2253259ab1ed1c9414b4d41155c4ea"),
    "li": (130664, "67077d29329187565ed257c53944ec9f64b3be5004368d3814edaa6d5117a0ca", "ed30c15f44612088ea2a692a6a3cea0d9ea2e21fbe22fd80c55fcfddf9747e58"),
    "eqntott": (149923, "d3eb435e60accdb4fff2d763b6c4d91af06d157a3cf186999aa7ba9b3a92b1b3", "8016e40e3b0eb9ed4fcb0161fd99ba298bca486ae86aba5714d6ae3c73276573"),
    "compress": (149992, "7f9f05a10ed780e61aa49a09c92387c7703fc6b9b169c95a1db105bbfdff80f9", "23f140171a4f7f445fa3d724094d264752844dc83652b3affbf6a4ea3e6f8f64"),
    "sc": (66412, "8393bc9bfb7cd69dd2135ff658c19ca49dc488ac872978d4cfce5191e5404c3b", "4430fbbb4d7bcd4bd121bb95ee73523686d712d5401df7b4e139e0fe19bcfe73"),
    "gcc": (128262, "102ab398ab01cf6ca52dcafc7fd533d710008d2e36a17e39841f2d75ca45c730", "a313010f95ac4d9efa6ecf2ddef86fca9d69b47e321140051889a4ae0b34fe25"),
    "alvinn": (121960, "893376d2ba64dfc04a9a31050df2d17105ef12c9d2273c1a68f672c1959e7735", "6fc2c1bbae39c631d61b23319961a422e9b5d8113a91ac1ba557a2969c4a966a"),
    "doduc": (144398, "5e2492bb44f589ddfa00f8ea342ca99c109f7b611885f074c3ef2c0042e01b94", "ebff33dc84e4796c1789920fc1f9c91a3df96001812312f232aa70859ee294a5"),
    "ear": (57604, "819b34b4e5ed00738ad79f7c12eefc3411f1c68bd83c0162fc52401a5bc6c22d", "ad0e64bc416812803f846a4e1b52e84367e1b180d19623465295a234c7a2e103"),
    "hydro2d": (60213, "df6017886d0f97e1c8bc129677ab319e18d29b0917c0266304d82747974af547", "aa634e24e67b11a3c39ececb40d6a2bd513275340bbfa0a50f8dcaf8b56ce779"),
    "mdljdp2": (79914, "29bae85d7f750d103c335a70b7787b7af96c862c3dbb2ac354ec8e1baea4f56a", "f3466bec3f333cd4f887601a153f3c0458951c24c655372fd97dc1fb63d9916e"),
    "nasa7": (45116, "7fa4c14d0fdfc6eb2858f9c7bf0b3b4185edd2fbf926c53795269aa891f48d35", "8fa6e943c7b286afbaf6e5e53d04a0cdefa7d7b63b9c7bca45ce34b135265e8c"),
    "ora": (32273, "c5bf31d19c45adcdd8b2f306c7a7c1b3c67198c9031359cf1d481dba79ad05d4", "7a30266fa94a4e12c186c94b934113c0cd21bd144130c5dacf5d43d3e16c1d54"),
    "spice2g6": (81634, "8941459796231959348a86ecffa51c442e52a1e9340d1afcb2cfdd70cf696d48", "78d23bd9f1e40b66225a57cea2b53f5fd6a21033dda8c41acff390a3fee30efd"),
    "su2cor": (41178, "cc56af668db3e567feed15754212f2bda2c844c02328de2fad4a7b1381e3e17f", "f20d3af29177881fe0bd65cedc2ceb04066c217f36f95901f5fa2659a7588e56"),
}


def _run_digests(name):
    machine = Machine(program=build_program(name))
    result = machine.run(max_instructions=50_000_000)
    trace = hashlib.sha256(
        np.array(result.trace, dtype="<i8").tobytes()
    ).hexdigest()
    state = hashlib.sha256()
    state.update(struct.pack("<32q", *result.registers))
    state.update(struct.pack("<32d", *result.fp_registers))
    state.update(struct.pack("<2q", machine.hi, machine.lo))
    for number, page in sorted(result.memory._pages.items()):
        state.update(struct.pack("<q", number))
        state.update(page)
    return len(result.trace), trace, state.hexdigest()


@pytest.mark.parametrize("name", INTEGER_SUITE + FP_SUITE)
def test_full_size_run_is_pinned(name):
    """Trace records and final registers, HI/LO and memory pages are
    byte-identical to the pinned table."""
    assert _run_digests(name) == FULL_SIZE_DIGESTS[name]
