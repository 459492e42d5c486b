"""Functional simulation: sparse memory, architectural machine, traces."""

from repro.func.machine import Machine, MachineResult, SimulationError, run_program
from repro.func.memory import SparseMemory
from repro.func.prepared import PreparedTrace, prepare_snapshot, prepare_trace
from repro.func.trace import (
    FP_REG_BASE,
    HI_REG,
    LO_REG,
    NO_REG,
    NUM_UNIFIED_REGS,
    TraceRecord,
    TraceStats,
    compute_stats,
    is_fp_kind,
    is_memory_kind,
    load_trace_array,
    save_trace_array,
)

__all__ = [
    "Machine",
    "MachineResult",
    "SimulationError",
    "run_program",
    "SparseMemory",
    "PreparedTrace",
    "prepare_snapshot",
    "prepare_trace",
    "FP_REG_BASE",
    "HI_REG",
    "LO_REG",
    "NO_REG",
    "NUM_UNIFIED_REGS",
    "TraceRecord",
    "TraceStats",
    "compute_stats",
    "is_fp_kind",
    "is_memory_kind",
    "load_trace_array",
    "save_trace_array",
]
