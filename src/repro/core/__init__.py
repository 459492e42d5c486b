"""Aurora III timing models: configuration, components, processor, FPU."""

from repro.core.biu import BIUStats, BusInterfaceUnit
from repro.core.caches import DirectMappedCache, PipelinedCachePort
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
    baseline_model,
    large_model,
    recommended_model,
    small_model,
)
from repro.core.fpu import DecoupledFPU, FPUnit
from repro.core.mshr import MSHRFile
from repro.core.prefetch import PrefetchStats, SplitStreamBufferPool, StreamBufferPool
from repro.core.processor import (
    AuroraProcessor,
    SimulationResult,
    simulate_trace,
)
from repro.core.stats import (
    InvariantError,
    SimStats,
    StallKind,
    average_cpi,
)
from repro.core.writecache import WriteCache, WriteCacheStats

__all__ = [
    "BIUStats",
    "InvariantError",
    "BusInterfaceUnit",
    "DirectMappedCache",
    "PipelinedCachePort",
    "BASELINE",
    "LARGE",
    "RECOMMENDED",
    "SMALL",
    "TABLE1_MODELS",
    "ConfigError",
    "FPIssuePolicy",
    "FPUConfig",
    "MachineConfig",
    "baseline_model",
    "large_model",
    "recommended_model",
    "small_model",
    "DecoupledFPU",
    "FPUnit",
    "MSHRFile",
    "PrefetchStats",
    "SplitStreamBufferPool",
    "StreamBufferPool",
    "AuroraProcessor",
    "SimulationResult",
    "simulate_trace",
    "SimStats",
    "StallKind",
    "average_cpi",
    "WriteCache",
    "WriteCacheStats",
]
