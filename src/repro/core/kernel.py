"""Grouped simulation: one trace, many machine configurations.

The paper's sweeps time the *same* dynamic trace on dozens of
:class:`~repro.core.config.MachineConfig` points (Figure 8 alone has
~30).  :func:`simulate_many` is the grouped entry point the sweep layer
calls: it prepares and validates the trace once (not once per config),
answers configs the trace has already been timed on from results
stored on it, and runs each remaining distinct config through
:meth:`AuroraProcessor.run <repro.core.processor.AuroraProcessor.run>`
in one ``simulate_batch`` span.  Why there is only the one timing loop
is in docs/PERFORMANCE.md.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.core.config import FPUConfig, MachineConfig
from repro.core.processor import AuroraProcessor, SimulationResult
from repro.func.prepared import as_prepared
from repro.isa.instructions import Kind

#: Finished results :func:`simulate_many` keeps per prepared trace.  A
#: paper sweep stores at most 41 per trace; the cap bounds a
#: long-running ``serve``.
RESULT_CAP = 128

#: Process-wide count of configs :func:`simulate_many` answered without
#: simulating (stored results and in-call duplicates), published by the
#: experiment runner as ``runner.sim_reused``.
_SIM_REUSED = 0
#: Guards every trace's ``sim_results`` and ``_SIM_REUSED``: registry
#: traces are shared, and callers may simulate from several threads.
_STORE_LOCK = threading.Lock()

#: The FPUConfig fields only one functional unit's records observe: a
#: trace with no records of that kind times identically whatever they
#: hold, so the reuse store keys such configs on the defaults instead.
_UNIT_FIELDS = (
    (int(Kind.FP_ADD), ("add_latency", "add_pipelined")),
    (int(Kind.FP_MUL), ("mul_latency", "mul_pipelined")),
    (int(Kind.FP_DIV), ("div_latency",)),
    (int(Kind.FP_CVT), ("cvt_latency", "cvt_pipelined")),
)
_FPU_DEFAULTS = FPUConfig()


def batch_snapshot() -> tuple[int, int]:
    """Always ``(0, 0)``: there is no config-batched kernel any more.

    Kept only because the frozen benchmark harness
    (``bench/workloads.py``) imports it to label which kernel ran;
    ROADMAP item 3 removes it together with that label.
    """
    return (0, 0)


def reuse_snapshot() -> int:
    """Configs :func:`simulate_many` has answered without simulating."""
    return _SIM_REUSED


def simulate_many(
    trace,
    configs: Sequence[MachineConfig],
    *,
    policy=None,
) -> list[SimulationResult]:
    """Time one trace on many configs; results align with ``configs``.

    The grouped twin of :func:`repro.core.processor.simulate_trace`:
    prepares and validates the trace **once** (not once per
    configuration — the prepared-trace memo makes re-validation free)
    and runs one :class:`~repro.core.processor.AuroraProcessor` per
    config still to simulate.

    Each (trace, config) is simulated once: finished stats are kept on
    the prepared trace (``sim_results``), keyed by ``(config, policy)``
    and capped at :data:`RESULT_CAP` entries, oldest evicted first.  The
    key's config has the FPU fields of units the trace has no records
    for at their defaults (``_UNIT_FIELDS``), so configs that differ
    only there share one simulation.  A call simulates only the configs
    not yet stored, deduplicated, recorded as one ``simulate_batch``
    span (``configs`` simulated, ``reused`` answered without
    simulating); every result holds the caller's config and its own
    copy of the stats.  Runs that emit telemetry events go through
    :func:`~repro.core.processor.simulate_trace`.
    """
    from repro.robustness.validation import validate_trace
    from repro.telemetry import tracing

    trace = as_prepared(trace)
    validate_trace(trace)
    configs = list(configs)
    store = trace.sim_results
    unobserved = _unobserved_fields(trace)
    keys = [(_observable(config, unobserved), policy) for config in configs]
    known: dict = {}
    pending: dict = {}
    with _STORE_LOCK:
        for key, config in zip(keys, configs):
            if key not in known and key not in pending:
                stats = store.get(key)
                if stats is None:
                    pending[key] = config
                else:
                    known[key] = stats
    reused = len(configs) - len(pending)
    fresh: dict = {}
    if pending:
        with tracing.span(
            "simulate_batch",
            "simulate",
            records=len(trace),
            configs=len(pending),
            reused=reused,
        ):
            fresh = {
                key: AuroraProcessor(config, policy).run(trace).stats
                for key, config in pending.items()
            }
    _remember(store, fresh, reused)
    known.update(fresh)
    # Stored stats are never handed out, so copying needs no lock.
    return [
        SimulationResult(config=config, stats=known[key].copy())
        for key, config in zip(keys, configs)
    ]


def _unobserved_fields(trace) -> tuple[str, ...]:
    """The FPU fields ``trace`` cannot observe (see ``_UNIT_FIELDS``)."""
    counts = trace.kind_counts()
    return tuple(
        name
        for kind, names in _UNIT_FIELDS
        if not counts[kind]
        for name in names
    )


def _observable(config: MachineConfig, unobserved: tuple[str, ...]):
    """``config`` with the ``unobserved`` FPU fields at their defaults:
    two configs a trace cannot tell apart map to one store key."""
    if not unobserved:
        return config
    fpu = config.fpu
    masked = fpu.with_(
        **{name: getattr(_FPU_DEFAULTS, name) for name in unobserved}
    )
    return config if masked == fpu else config.with_(fpu=masked)


def _remember(store: dict, fresh: dict, reused: int) -> None:
    """Add finished stats to a trace's store, evicting oldest past the
    cap, and count ``reused`` configs answered without simulating."""
    global _SIM_REUSED
    with _STORE_LOCK:
        _SIM_REUSED += reused
        store.update(fresh)
        while len(store) > RESULT_CAP:
            del store[next(iter(store))]

