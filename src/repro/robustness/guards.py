"""Runtime invariant guards for the timing model.

The timestamp formulation of :mod:`repro.core.processor` cannot literally
loop forever — it walks the trace in program order — but it has an exactly
analogous failure mode: a corrupted structure (or a buggy model change)
hands back an absurd busy-until time and every later instruction inherits
it, so the run "completes" with a cycle count that is pure garbage.  The
guards here turn that silent poisoning into a structured, diagnosable
error:

* **Forward-progress watchdog** — if the retire time jumps by more than
  ``max_stall_cycles`` between consecutive instructions, no real machine
  behaviour explains the gap (the worst legitimate stall is bounded by
  memory latency plus queueing on the BIU, orders of magnitude smaller)
  and the run is aborted.
* **Cycle-count overflow** — timestamps past ``cycle_limit`` mean the
  model has diverged; Python's big ints would happily keep going.
* **Occupancy guards** — every ``check_period`` instructions the MSHR
  file, write cache and FPU queues assert that their occupancy never
  exceeded configured capacity (each structure exposes
  ``assert_capacity()``; violations raise :class:`GuardViolation`).

All failures surface as :class:`SimulationError` carrying the offending
cycle, the instruction index, a config fingerprint, and a snapshot of the
stall counters at the point of death — enough to reproduce and triage
without rerunning under a debugger.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.config import MachineConfig


def config_fingerprint(config: MachineConfig) -> str:
    """Stable short hash identifying a machine configuration.

    Derived from the dataclass repr (which covers every field, including
    the nested :class:`~repro.core.config.FPUConfig`), so two configs
    fingerprint equal iff they are field-for-field equal.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


class GuardViolation(RuntimeError):
    """A hardware structure broke one of its internal invariants."""


class SimulationError(RuntimeError):
    """A timing run was aborted by a runtime invariant guard.

    Carries everything needed to triage without re-running: the reason
    category, the cycle and instruction index at which the guard fired,
    the config label and fingerprint, and the stall-counter snapshot.
    """

    def __init__(
        self,
        reason: str,
        message: str,
        *,
        cycle: int,
        instruction_index: int,
        config: MachineConfig,
        stall_snapshot: dict | None = None,
    ) -> None:
        self.reason = reason
        self.cycle = cycle
        self.instruction_index = instruction_index
        self.config_label = config.label
        self.fingerprint = config_fingerprint(config)
        self.stall_snapshot = dict(stall_snapshot or {})
        stalls = ", ".join(
            f"{getattr(kind, 'value', kind)}={count}"
            for kind, count in self.stall_snapshot.items()
            if count
        )
        super().__init__(
            f"[{reason}] {message} "
            f"(cycle {cycle}, instruction {instruction_index}, "
            f"machine {self.config_label}, fingerprint {self.fingerprint}"
            + (f", stalls: {stalls}" if stalls else "")
            + ")"
        )


@dataclass(frozen=True)
class RobustnessPolicy:
    """Tunable bounds for the runtime guards.

    The defaults are generous enough that no legitimate run trips them
    (the worst observed retire-to-retire gap across the full paper sweep
    is a few thousand cycles, against a one-million default), so guards
    stay on in production; tests shrink the bounds to provoke trips.
    """

    enabled: bool = True
    #: Largest allowed retire-time jump between consecutive instructions.
    max_stall_cycles: int = 1_000_000
    #: Abort when any timestamp exceeds this (cycle-count overflow).
    cycle_limit: int = 1 << 62
    #: Run the structure occupancy checks every this many instructions.
    check_period: int = 4096

    def __post_init__(self) -> None:
        if self.max_stall_cycles < 1:
            raise ValueError("max_stall_cycles must be >= 1")
        if self.cycle_limit < 1:
            raise ValueError("cycle_limit must be >= 1")
        if self.check_period < 1:
            raise ValueError("check_period must be >= 1")


#: Policy with every guard disabled (for micro-benchmarks of the core loop).
DISABLED_POLICY = RobustnessPolicy(enabled=False)


@dataclass
class Watchdog:
    """Forward-progress and overflow watchdog for one timing run.

    :meth:`observe` takes every instruction's retire time;
    occupancy-checked structures are registered and polled every
    ``policy.check_period`` instructions.  The timing loop keeps one
    lazily refreshed retire bound and the next poll index inline, and
    calls :meth:`check_progress` and :meth:`check_structures` only when a
    record reaches either; the errors, indices and snapshots are those
    :meth:`observe` would give.
    """

    config: MachineConfig
    policy: RobustnessPolicy = field(default_factory=RobustnessPolicy)
    stall_source: object | None = None  # exposes a dict snapshot via dict()

    def __post_init__(self) -> None:
        self._last_retire = 0
        self._structures: list[object] = []
        self._countdown = self.policy.check_period

    def watch(self, structure: object) -> None:
        """Register a structure exposing ``assert_capacity()``."""
        self._structures.append(structure)

    def observe(self, index: int, retire: int) -> None:
        """Feed one instruction's retire time; raises on violations."""
        self.check_progress(index, self._last_retire, retire)
        if retire > self._last_retire:
            self._last_retire = retire
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.policy.check_period
            self.check_structures(index, retire)

    def check_progress(self, index: int, last_retire: int, retire: int) -> None:
        """Forward-progress and overflow tests for one retire time;
        ``last_retire`` is the latest retire time before it."""
        policy = self.policy
        gap = retire - last_retire
        if gap > policy.max_stall_cycles:
            raise self._error(
                "forward-progress",
                f"no instruction retired for {gap} cycles "
                f"(bound {policy.max_stall_cycles}); pipeline wedged",
                cycle=retire,
                index=index,
            )
        if retire > policy.cycle_limit:
            raise self._error(
                "cycle-overflow",
                f"cycle count {retire} exceeds limit {policy.cycle_limit}",
                cycle=retire,
                index=index,
            )

    def check_structures(self, index: int, cycle: int) -> None:
        """Run every registered structure's occupancy assertion."""
        for structure in self._structures:
            try:
                structure.assert_capacity()
            except GuardViolation as violation:
                raise self._error(
                    "occupancy", str(violation), cycle=cycle, index=index
                ) from violation

    # ------------------------------------------------------------ internals

    def _error(
        self, reason: str, message: str, *, cycle: int, index: int
    ) -> SimulationError:
        snapshot: dict = {}
        source = self.stall_source
        if source is not None:
            try:
                snapshot = dict(source)
            except TypeError:
                snapshot = {}
        return SimulationError(
            reason,
            message,
            cycle=cycle,
            instruction_index=index,
            config=self.config,
            stall_snapshot=snapshot,
        )
