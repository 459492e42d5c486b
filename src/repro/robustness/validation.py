"""Eager input validation: traces, scaling factors, workload scales.

Machine-configuration validation itself lives on
:meth:`repro.core.config.MachineConfig.validate` (so construction and
explicit checks share one rule set); this module covers the *other*
garbage-in paths the experiment layer feeds the simulator:

* **Traces** — :func:`validate_trace` structurally checks trace records
  (6-int tuples, a known timing kind, register ids inside the unified
  space, non-negative pc/addr).  Full-trace record-by-record validation
  would double the cost of a timing run on multi-million-instruction
  traces, so plain record lists get a deterministic sample: the first
  ``head`` records exhaustively plus every ``stride``-th record beyond —
  enough to catch format drift and systematic corruption while staying
  O(n/stride).  Columnar :class:`~repro.func.prepared.PreparedTrace`
  inputs get the *stronger* check for less: every record is validated in
  a handful of vectorized numpy passes, once per trace object (the
  result is memoized on the instance, so a sweep re-validating the same
  trace per configuration pays nothing after the first).
* **Factors and scales** — :func:`validate_factor` /
  :func:`validate_scale` reject the zero/negative/NaN values that today
  would silently produce nonsense workload sizes deep inside
  ``scaled_trace``.
* **Environment** — :func:`validate_environment` eagerly checks every
  ``REPRO_*`` switch the sweep stack reads, so a typo like
  ``REPRO_TRACE_CACHE=of`` fails at CLI startup with a field-named
  usage error instead of mid-sweep (or worse, silently falling back).
"""

from __future__ import annotations

import math
import os
from typing import Mapping, Sequence

from repro.func.trace import NUM_UNIFIED_REGS
from repro.isa.instructions import Kind

_VALID_KINDS = frozenset(int(kind) for kind in Kind)
_VALID_KIND_LIST = sorted(_VALID_KINDS)

#: Exhaustively validated prefix length.
_HEAD = 4096
#: Beyond the head, validate every ``_STRIDE``-th record.
_STRIDE = 1009  # prime, so sampling never locks onto loop periods

#: Process-wide validation accounting (observability, and the memo's
#: regression tests): full vectorized prepared-trace passes actually run
#: vs. calls answered by the per-instance memo.  The memo lives *on* the
#: PreparedTrace (its ``validated`` slot) precisely so this module never
#: holds a reference that would pin shared traces alive across grouped
#: experiments.
_PREPARED_PASSES = 0
_MEMO_HITS = 0


def validation_snapshot() -> tuple[int, int]:
    """(vectorized prepared passes run, memoized re-validations) so far."""
    return (_PREPARED_PASSES, _MEMO_HITS)


class TraceValidationError(ValueError):
    """A trace record is structurally invalid; names index and field."""


def _record_problem(record: object) -> str | None:
    """Return a description of what is wrong with one record, or None."""
    if not isinstance(record, (tuple, list)) or len(record) != 6:
        return f"record must be a 6-tuple, got {type(record).__name__}"
    pc, kind, dst, s1, s2, addr = record
    for name, value in (("pc", pc), ("kind", kind), ("dst", dst),
                        ("src1", s1), ("src2", s2), ("addr", addr)):
        if not isinstance(value, int) or isinstance(value, bool):
            return f"{name} must be an int, got {type(value).__name__}"
    if pc < 0:
        return f"pc must be >= 0, got {pc}"
    if pc & 3:
        return f"pc must be word aligned, got {pc:#x}"
    if kind not in _VALID_KINDS:
        return f"kind {kind} is not a known instruction Kind"
    for name, reg in (("dst", dst), ("src1", s1), ("src2", s2)):
        if not (-1 <= reg < NUM_UNIFIED_REGS):
            return (
                f"{name} register id {reg} outside the unified space "
                f"[-1, {NUM_UNIFIED_REGS - 1}]"
            )
    if addr < 0:
        return f"addr must be >= 0, got {addr}"
    return None


def validate_trace(
    trace: Sequence,
    *,
    head: int = _HEAD,
    stride: int = _STRIDE,
    allow_empty: bool = True,
) -> None:
    """Structurally validate ``trace`` (sampled; see module docstring).

    Raises :class:`TraceValidationError` naming the first bad record's
    index and field.  ``allow_empty=False`` additionally rejects empty
    traces (the experiment layer uses it: simulating nothing yields a
    0-cycle result that silently poisons suite averages).
    """
    if not isinstance(trace, Sequence) or isinstance(trace, (str, bytes)):
        raise TraceValidationError(
            f"trace must be a sequence of records, got {type(trace).__name__}"
        )
    length = len(trace)
    if length == 0:
        if allow_empty:
            return
        raise TraceValidationError("trace is empty: nothing to simulate")
    from repro.func.prepared import PreparedTrace

    if isinstance(trace, PreparedTrace):
        global _PREPARED_PASSES, _MEMO_HITS
        if not trace.validated:
            _PREPARED_PASSES += 1
            _validate_prepared(trace)
            trace.validated = True
        else:
            _MEMO_HITS += 1
        return
    for index in range(min(head, length)):
        problem = _record_problem(trace[index])
        if problem is not None:
            raise TraceValidationError(f"trace record {index}: {problem}")
    for index in range(head, length, stride):
        problem = _record_problem(trace[index])
        if problem is not None:
            raise TraceValidationError(f"trace record {index}: {problem}")


def _validate_prepared(trace) -> None:
    """Vectorized whole-trace structural check for a PreparedTrace.

    The columnar layout already guarantees 6 integer fields per record
    (enforced at construction), so only the value-range rules remain —
    one boolean mask covers them all.  On failure, the first offending
    index is located and the record delegated to :func:`_record_problem`
    so the error message matches the record-loop path exactly.
    """
    import numpy as np

    bad = (
        (trace.pc < 0)
        | ((trace.pc & 3) != 0)
        | (trace.addr < 0)
        | ~np.isin(trace.kind, _VALID_KIND_LIST)
    )
    for column in (trace.dst, trace.src1, trace.src2):
        bad |= (column < -1) | (column >= NUM_UNIFIED_REGS)
    if not bad.any():
        return
    index = int(np.argmax(bad))
    problem = _record_problem(trace[index])
    raise TraceValidationError(f"trace record {index}: {problem}")


def validate_factor(factor: float, *, where: str = "factor") -> float:
    """Reject non-positive / non-finite workload scaling factors."""
    if isinstance(factor, bool) or not isinstance(factor, (int, float)):
        raise ValueError(
            f"{where} must be a positive number, got {type(factor).__name__}"
        )
    value = float(factor)
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {factor!r}")
    if value <= 0:
        raise ValueError(f"{where} must be > 0, got {factor!r}")
    return value


class EnvValidationError(ValueError):
    """A ``REPRO_*`` environment variable holds an unusable value.

    The message names every offending variable (all problems are
    collected, not just the first) so one failed run fixes them all.
    """


def validate_environment(environ: Mapping[str, str] | None = None) -> None:
    """Eagerly validate the ``REPRO_*`` switches the sweep stack reads.

    Checked: ``REPRO_TRACE_CACHE`` (an on/off switch),
    ``REPRO_TRACE_CACHE_DIR`` (must not name an existing
    non-directory), ``REPRO_LOG`` (a writable destination, not a
    directory) and ``REPRO_LOG_LEVEL`` (a known level name).  Unset or
    empty variables are always fine — they mean "use the default".
    """
    from repro.telemetry import logging as structlog
    from repro.workloads import trace_cache

    env = os.environ if environ is None else environ
    problems: list[str] = []

    switch = env.get(trace_cache.ENV_SWITCH, "")
    if switch and switch.lower() not in (
        trace_cache._ON_VALUES + trace_cache._OFF_VALUES
    ):
        problems.append(
            f"{trace_cache.ENV_SWITCH}={switch!r}: expected an on/off value "
            f"({'/'.join(trace_cache._ON_VALUES)} or "
            f"{'/'.join(trace_cache._OFF_VALUES)})"
        )

    cache_dir = env.get(trace_cache.ENV_DIR)
    if cache_dir is not None:
        if not cache_dir.strip():
            problems.append(
                f"{trace_cache.ENV_DIR} is set but empty: unset it or "
                "name a directory"
            )
        elif os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
            problems.append(
                f"{trace_cache.ENV_DIR}={cache_dir!r}: exists but is "
                "not a directory"
            )

    log_level = env.get(structlog.ENV_LOG_LEVEL, "")
    if log_level and log_level.upper() not in structlog.LEVELS:
        problems.append(
            f"{structlog.ENV_LOG_LEVEL}={log_level!r}: expected one of "
            f"{'/'.join(structlog.LEVELS)}"
        )

    log_dest = env.get(structlog.ENV_LOG)
    if log_dest is not None:
        if not log_dest.strip():
            problems.append(
                f"{structlog.ENV_LOG} is set but empty: unset it or "
                "name a file (or 'stderr')"
            )
        elif log_dest not in structlog.STDERR_ALIASES and os.path.isdir(
            log_dest
        ):
            problems.append(
                f"{structlog.ENV_LOG}={log_dest!r}: names a directory, "
                "not a log file"
            )

    if problems:
        raise EnvValidationError(
            "invalid environment: " + "; ".join(problems)
        )


def validate_scale(scale: int | None, *, where: str = "scale") -> int | None:
    """Reject non-positive workload scales (``None`` means default)."""
    if scale is None:
        return None
    if isinstance(scale, bool) or not isinstance(scale, int):
        raise ValueError(
            f"{where} must be a positive int or None, "
            f"got {type(scale).__name__}"
        )
    if scale < 1:
        raise ValueError(f"{where} must be >= 1, got {scale}")
    return scale
