"""Deterministic fault injection for exercising the robustness layers.

Nothing here fires in a normal run: faults are injected only when a
:class:`FaultPlan` is explicitly passed to
:class:`~repro.robustness.runner.ResilientRunner` (or when
:func:`corrupt_trace` is called on a trace).  Everything is deterministic
— fault kinds and counts come from the plan, trace corruption from a
seeded LCG — so the failure paths are testable byte-for-byte.

The runner wraps each attempt of a planned experiment in an
:class:`InjectedFault`, the one injector for both executors: it pickles
into a pool worker, and it takes the attempt and execution numbers from
the runner's loop, so no counter lives in the plan or in a worker.

Supported fault kinds (``FaultSpec.kind``):

* ``"crash"`` — raise :class:`RuntimeError` on every attempt (a permanent
  failure: exercises containment and the failure report),
* ``"transient"`` — raise :class:`TransientFault` on the first
  ``FaultSpec.count`` attempts, then let the experiment run (exercises
  bounded-backoff retry),
* ``"timeout"`` — sleep ``FaultSpec.seconds`` before running (exercises
  the per-experiment wall-clock timeout; a worker *hang* is this fault
  with a timeout set),
* ``"corrupt-result"`` — run the experiment, then return an object whose
  ``render()`` raises (exercises containment of post-processing errors),
* ``"kill"`` — ``SIGKILL`` the worker process on the first
  ``FaultSpec.count`` executions (exercises pool-break containment,
  quarantine attribution and recovery).  Fired in the sweep's own
  process (``jobs=1``) it would kill the sweep, so there it raises
  :class:`RuntimeError` instead and is contained as a crash,
* ``"straggler"`` — sleep ``FaultSpec.seconds`` before running on the
  first ``count`` executions, then succeed (exercises slow-worker
  tolerance: the sweep completes with identical results, just later).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field


class TransientFault(RuntimeError):
    """A failure expected to succeed on retry (injected or environmental)."""


class _CorruptResult:
    """Result stand-in whose rendering blows up (post-processing fault)."""

    def render(self) -> str:
        raise RuntimeError("injected corrupt result: render() failed")


@dataclass(frozen=True)
class FaultSpec:
    """One experiment's injected fault."""

    kind: str  # see _KINDS
    count: int = 1  # transient/kill/straggler: how many executions fault
    seconds: float = 3600.0  # timeout: wedge length; straggler: delay

    _KINDS = (
        "crash", "transient", "timeout", "corrupt-result", "kill",
        "straggler",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(self._KINDS)}"
            )
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.seconds <= 0:
            raise ValueError("seconds must be > 0")


@dataclass
class FaultPlan:
    """Maps experiment ids to the fault injected into their execution."""

    faults: dict[str, FaultSpec] = field(default_factory=dict)

    def add(self, exp_id: str, kind: str, **kwargs) -> "FaultPlan":
        self.faults[exp_id] = FaultSpec(kind=kind, **kwargs)
        return self


class InjectedFault:
    """One attempt of ``fn`` with ``spec``'s fault injected (picklable).

    ``attempt`` counts the attempts the retry ledger bills; ``execution``
    also ticks on re-runs it does not bill (quarantine re-runs,
    resubmits after a pool break or a co-tenant's timeout).  ``kill`` and
    ``straggler`` key on ``execution``: a kill keyed on ``attempt`` would
    re-fire inside the quarantine pool and convict an experiment that
    merely needed a clean re-run.
    """

    def __init__(
        self, fn, exp_id: str, spec: FaultSpec, attempt: int, execution: int
    ) -> None:
        self.fn = fn
        self.exp_id = exp_id
        self.spec = spec
        self.attempt = attempt
        self.execution = execution
        #: The sweep's own process: a kill firing here must not kill it.
        self.home_pid = os.getpid()

    def __call__(self, factor: float):
        spec = self.spec
        if spec.kind == "crash":
            raise RuntimeError(
                f"injected crash in experiment {self.exp_id!r} "
                f"(attempt {self.attempt})"
            )
        if spec.kind == "transient" and self.attempt <= spec.count:
            raise TransientFault(
                f"injected transient fault in experiment {self.exp_id!r} "
                f"(attempt {self.attempt}/{spec.count})"
            )
        if spec.kind == "kill" and self.execution <= spec.count:
            if os.getpid() == self.home_pid:
                raise RuntimeError(
                    f"injected worker kill in experiment {self.exp_id!r} "
                    f"(attempt {self.attempt}; serial mode: contained as "
                    "crash)"
                )
            # A real worker death: the runner sees a BrokenProcessPool
            # and must attribute it.
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind == "timeout":
            time.sleep(spec.seconds)
        if spec.kind == "straggler" and self.execution <= spec.count:
            time.sleep(spec.seconds)
        result = self.fn(factor)
        if spec.kind == "corrupt-result":
            return _CorruptResult()
        return result


def corrupt_trace(trace: list, seed: int = 0, fraction: float = 0.001) -> list:
    """Return a copy of ``trace`` with deterministically corrupted records.

    Uses a seeded LCG (no ``random`` module state touched) to pick victim
    records and smash one field per victim — an out-of-range register id,
    an unknown kind, or a negative address — always including record 0 so
    the sampled validator of :func:`repro.robustness.validation.validate_trace`
    is guaranteed to see at least one bad record.
    """
    corrupted = list(trace)
    if not corrupted:
        return corrupted
    count = max(1, int(len(corrupted) * fraction))
    state = (seed * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
    victims = {0}
    while len(victims) < min(count, len(corrupted)):
        state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        victims.add((state >> 33) % len(corrupted))
    smashers = (
        lambda r: (r[0], r[1], 999, r[3], r[4], r[5]),  # bad dst register
        lambda r: (r[0], 127, r[2], r[3], r[4], r[5]),  # unknown kind
        lambda r: (r[0], r[1], r[2], r[3], r[4], -8),  # negative address
        lambda r: (-4, r[1], r[2], r[3], r[4], r[5]),  # negative pc
    )
    for which, index in enumerate(sorted(victims)):
        record = tuple(corrupted[index])
        corrupted[index] = smashers[which % len(smashers)](record)
    return corrupted
