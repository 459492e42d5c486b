"""SPEC92-analogue workload kernels and the workload registry."""

from repro.workloads.registry import (
    FP_SUITE,
    INTEGER_SUITE,
    WorkloadError,
    WorkloadSpec,
    all_specs,
    build_program,
    clear_trace_cache,
    get_spec,
    get_trace,
    workload,
)

__all__ = [
    "FP_SUITE",
    "INTEGER_SUITE",
    "WorkloadError",
    "WorkloadSpec",
    "all_specs",
    "build_program",
    "clear_trace_cache",
    "get_spec",
    "get_trace",
    "workload",
]
