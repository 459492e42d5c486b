"""Unit tests for machine configurations (Table 1)."""

import dataclasses

import pytest

from repro.core.config import (
    BASELINE,
    LARGE,
    RECOMMENDED,
    SMALL,
    TABLE1_MODELS,
    ConfigError,
    FPIssuePolicy,
    FPUConfig,
    MachineConfig,
)


class TestTable1Models:
    def test_small(self):
        assert SMALL.icache_bytes == 1024
        assert SMALL.dcache_bytes == 16 * 1024
        assert SMALL.writecache_lines == 2
        assert SMALL.rob_entries == 2
        assert SMALL.prefetch_buffers == 2
        assert SMALL.mshr_entries == 1

    def test_baseline(self):
        assert BASELINE.icache_bytes == 2048
        assert BASELINE.dcache_bytes == 32 * 1024
        assert BASELINE.writecache_lines == 4
        assert BASELINE.rob_entries == 6
        assert BASELINE.prefetch_buffers == 4
        assert BASELINE.mshr_entries == 2

    def test_large(self):
        assert LARGE.icache_bytes == 4096
        assert LARGE.dcache_bytes == 64 * 1024
        assert LARGE.writecache_lines == 8
        assert LARGE.rob_entries == 8
        assert LARGE.prefetch_buffers == 8
        assert LARGE.mshr_entries == 4

    def test_recommended_point_e(self):
        assert RECOMMENDED.icache_bytes == 4096
        assert RECOMMENDED.writecache_lines == 4
        assert RECOMMENDED.rob_entries == 6
        assert RECOMMENDED.mshr_entries == 4

    def test_order(self):
        assert [m.name for m in TABLE1_MODELS] == ["small", "baseline", "large"]


class TestVariants:
    def test_issue_variants(self):
        assert BASELINE.single_issue().issue_width == 1
        assert BASELINE.dual_issue().issue_width == 2

    def test_with_latency(self):
        assert BASELINE.with_latency(35).mem_latency == 35

    def test_without_prefetch(self):
        assert not BASELINE.without_prefetch().prefetch_enabled

    def test_with_mshrs(self):
        assert BASELINE.with_mshrs(4).mshr_entries == 4

    def test_variants_do_not_mutate(self):
        BASELINE.with_latency(35)
        assert BASELINE.mem_latency == 17

    def test_label(self):
        assert BASELINE.dual_issue().label == "baseline/dual/L17"
        assert SMALL.single_issue().with_latency(35).label == "small/single/L35"

    def test_line_counts(self):
        assert BASELINE.icache_lines == 64
        assert BASELINE.dcache_lines == 1024


class TestValidation:
    def test_bad_issue_width(self):
        with pytest.raises(ConfigError):
            MachineConfig(issue_width=3)

    def test_bad_line_size(self):
        with pytest.raises(ConfigError):
            MachineConfig(line_bytes=24)

    def test_bad_cache_size(self):
        with pytest.raises(ConfigError):
            MachineConfig(icache_bytes=1000)

    @pytest.mark.parametrize(
        "field",
        ["writecache_lines", "rob_entries", "mshr_entries",
         "prefetch_buffers", "prefetch_line_depth", "mem_latency",
         "dcache_latency"],
    )
    def test_positive_fields(self, field):
        with pytest.raises(ConfigError):
            MachineConfig(**{field: 0})

    def test_split_pool_needs_buffers(self):
        with pytest.raises(ConfigError):
            MachineConfig(split_prefetch_pool=True, prefetch_buffers=1)


def _int_fields(instance):
    return [
        field.name
        for field in dataclasses.fields(instance)
        if type(getattr(instance, field.name)) is int
    ]


class TestBoolIsNotAnInteger:
    """``True == 1`` must not pass an integer field's check."""

    @pytest.mark.parametrize("field", _int_fields(BASELINE))
    def test_machine_field_rejects_bool(self, field):
        with pytest.raises(ConfigError, match=field):
            BASELINE.with_(**{field: True})

    @pytest.mark.parametrize("field", _int_fields(FPUConfig()))
    def test_fpu_field_rejects_bool(self, field):
        with pytest.raises(ConfigError, match=field):
            FPUConfig(**{field: True})

    def test_label_never_shows_a_bool(self):
        with pytest.raises(ConfigError, match="issue_width"):
            BASELINE.with_(mem_latency=True, issue_width=True)


class TestFPUConfig:
    def test_defaults_match_section_5_11(self):
        fpu = FPUConfig()
        assert fpu.issue_policy is FPIssuePolicy.DUAL_ISSUE
        assert fpu.instruction_queue == 5
        assert fpu.load_queue == 2
        assert fpu.rob_entries == 6
        assert fpu.add_latency == 3
        assert fpu.mul_latency == 5
        assert fpu.div_latency == 19
        assert fpu.result_buses == 2

    def test_with_(self):
        fpu = FPUConfig().with_(add_latency=2)
        assert fpu.add_latency == 2
        assert FPUConfig().add_latency == 3

    @pytest.mark.parametrize(
        "field",
        ["instruction_queue", "load_queue", "store_queue", "rob_entries",
         "add_latency", "mul_latency", "div_latency", "cvt_latency",
         "result_buses"],
    )
    def test_positive_fields(self, field):
        with pytest.raises(ConfigError):
            FPUConfig(**{field: 0})
