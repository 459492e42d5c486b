"""Robustness subsystem: validation, runtime guards, resilient execution.

The paper's results rest on long trace-driven sweeps; a reproduction that
silently accepts an impossible machine point, wedges without diagnosis, or
throws away eleven finished experiments because the twelfth crashed is not
trustworthy.  This package hardens the simulation layer in three tiers:

* :mod:`repro.robustness.validation` — eager rejection of impossible
  :class:`~repro.core.config.MachineConfig` points and malformed traces,
  with messages that name the offending field,
* :mod:`repro.robustness.guards` — runtime invariant guards inside the
  timing model (forward-progress watchdog, occupancy checks, cycle-count
  overflow) raising a structured :class:`SimulationError`,
* :mod:`repro.robustness.runner` — a fault-tolerant experiment runner
  with per-experiment isolation, timeouts, bounded-backoff retries and a
  checkpoint manifest so partial sweeps resume instead of restarting.

:mod:`repro.robustness.faults` provides deterministic fault injection used
by the tests to exercise all of the above, and
:mod:`repro.robustness.chaos` extends it into a chaos harness attacking
every I/O and process boundary (cache corruption, filesystem faults,
worker kills, torn manifests) behind ``aurora-sim experiments --chaos``.

See ``docs/ROBUSTNESS.md`` for the full contract and the
failure-mode matrix.
"""

from repro.robustness.guards import (  # noqa: F401
    GuardViolation,
    RobustnessPolicy,
    SimulationError,
    Watchdog,
    config_fingerprint,
)
from repro.robustness.runner import (  # noqa: F401
    CheckpointedResult,
    ExperimentOutcome,
    ResilientRunner,
    RunReport,
)
from repro.robustness.faults import (  # noqa: F401
    FaultPlan,
    FaultSpec,
    TransientFault,
    corrupt_trace,
)
from repro.robustness.chaos import (  # noqa: F401
    ChaosError,
    ChaosFault,
    ChaosPlan,
)
from repro.robustness.validation import (  # noqa: F401
    EnvValidationError,
    TraceValidationError,
    validate_environment,
    validate_factor,
    validate_scale,
    validate_trace,
)
