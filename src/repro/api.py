"""High-level public API.

Most users need three things: a machine configuration (Table 1 models or
custom), a workload (SPEC92 analogue or their own program), and a
simulation run tying them together::

    from repro import BASELINE, simulate_workload

    result = simulate_workload("espresso", BASELINE.dual_issue())
    print(result.cpi, result.stats.icache_hit_rate)

Everything here re-exports or thinly wraps the subpackages; power users
can reach into :mod:`repro.core`, :mod:`repro.workloads`,
:mod:`repro.cost` and :mod:`repro.experiments` directly.
"""

from __future__ import annotations

from repro.core.config import (  # noqa: F401
    BASELINE,
    LARGE,
    RECOMMENDED,
    SMALL,
    TABLE1_MODELS,
    FPIssuePolicy,
    FPUConfig,
    MachineConfig,
    baseline_model,
    large_model,
    recommended_model,
    small_model,
)
from repro.core.kernel import simulate_many  # noqa: F401
from repro.core.processor import (  # noqa: F401
    AuroraProcessor,
    SimulationResult,
    simulate_trace,
)
from repro.core.stats import InvariantError, SimStats, StallKind  # noqa: F401
from repro.cost.rbe import (  # noqa: F401
    CostBreakdown,
    fpu_cost,
    ipu_cost,
    machine_cost,
)
from repro.func.machine import MachineResult, run_program  # noqa: F401
from repro.robustness.guards import (  # noqa: F401
    RobustnessPolicy,
    SimulationError,
    config_fingerprint,
)
from repro.robustness.validation import TraceValidationError  # noqa: F401
from repro.telemetry import (  # noqa: F401
    EventBus,
    EventKind,
    MetricsRegistry,
    NDJSONSink,
    RingBufferSink,
    TelemetryError,
    assert_stalls_match,
    cross_check_stalls,
    interval_cpi,
    load_ndjson,
    mshr_occupancy,
    occupancy_histogram,
    publish_stats,
    stall_breakdown,
    stall_timeline,
)
from repro.func.trace import TraceRecord  # noqa: F401
from repro.isa.assembler import Assembler, parse_asm  # noqa: F401
from repro.isa.disassembler import disassemble  # noqa: F401
from repro.isa.scheduler import schedule_load_use  # noqa: F401
from repro.isa.program import Program  # noqa: F401
from repro.workloads.registry import (  # noqa: F401
    FP_SUITE,
    INTEGER_SUITE,
    build_program,
    get_trace,
)


def simulate_workload(
    name: str,
    config: MachineConfig = BASELINE,
    scale: int | None = None,
    telemetry: EventBus | None = None,
) -> SimulationResult:
    """Trace the named SPEC92-analogue workload and time it on ``config``.

    ``scale`` overrides the workload's default size (traces are memoised
    per ``(name, scale)``, so sweeping configurations over one workload
    re-runs only the timing model).  The configuration and scale are
    validated eagerly: impossible machine points and non-positive scales
    fail here with a precise error rather than producing garbage numbers.
    Pass a :class:`~repro.telemetry.events.EventBus` as ``telemetry`` to
    capture the run's event stream; the default None keeps every probe
    at zero cost.
    """
    from repro.robustness.validation import validate_scale

    validate_scale(scale)
    config.validate()
    trace = get_trace(name, scale)
    return simulate_trace(trace, config, telemetry=telemetry)


def simulate_program(
    program: Program,
    config: MachineConfig = BASELINE,
    max_instructions: int = 5_000_000,
) -> SimulationResult:
    """Functionally execute ``program``, then time its trace on ``config``.

    The one-stop path for custom programs built with
    :class:`~repro.isa.assembler.Assembler` or :func:`parse_asm`.
    """
    result = run_program(program, max_instructions=max_instructions)
    return simulate_trace(result.trace, config)


def suite_results(
    config: MachineConfig,
    suite: str = "int",
    scale: int | None = None,
) -> dict[str, SimulationResult]:
    """Run a whole suite ("int" or "fp") on one configuration.

    Raises :class:`ValueError` for any other suite name — a typo used to
    silently run the FP suite.
    """
    sweep = sweep_results([config], suite=suite, scale=scale)
    return sweep[0]


def sweep_results(
    configs: list[MachineConfig],
    suite: str = "int",
    scale: int | None = None,
) -> list[dict[str, SimulationResult]]:
    """Run a whole suite on many configurations.

    The grouped twin of :func:`suite_results`: every workload's trace
    goes through :func:`repro.core.kernel.simulate_many` once (so it is
    validated once and each distinct config simulated once) and the
    return value is
    a per-config list of ``{workload: SimulationResult}`` mappings,
    index-aligned with ``configs``.
    """
    from repro.robustness.validation import validate_scale

    if suite == "int":
        names = INTEGER_SUITE
    elif suite == "fp":
        names = FP_SUITE
    else:
        raise ValueError(f"unknown suite {suite!r}; expected 'int' or 'fp'")
    validate_scale(scale)
    for config in configs:
        config.validate()
    sweep: list[dict[str, SimulationResult]] = [{} for _ in configs]
    for name in names:
        trace = get_trace(name, scale)
        for per_config, result in zip(
            sweep, simulate_many(trace, configs)
        ):
            per_config[name] = result
    return sweep
