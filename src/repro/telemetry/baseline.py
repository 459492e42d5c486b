"""Perf-baseline observatory: ``BENCH_history.json`` and regression checks.

Every ``aurora-sim perf`` run appends one schema-validated record — git
SHA, workload/factor/config fingerprint, throughput, wall time, trace-
cache behaviour — to a history file, so simulator performance is a
tracked series across PRs instead of folklore.  One record can be
promoted to the *baseline* (``--seed-baseline``); ``--check`` then
compares the current run against it and fails with exit status 3 when
throughput regressed beyond a configurable threshold (default 20%).

Document format (``version`` 1)::

    {"version": 1,
     "baseline": {<record>} | null,
     "records": [{"git_sha": "...", "recorded_at": 1722950000.0,
                  "workload": "compress", "factor": 0.05,
                  "config": "baseline", "instructions": 40000,
                  "sim_cycles": 90000, "wall_seconds": 0.41,
                  "cycles_per_second": 219512.2,
                  "instructions_per_second": 97561.0,
                  "cache_hits": 1, "cache_misses": 0}, ...]}

Comparisons are only meaningful between like runs, so ``compare``
refuses to judge a record against a baseline with a different
``(workload, factor, config, kernel, mode)`` key — a changed sweep is a
new series, not a regression.  Several fields are optional for
compatibility with records written before they existed: ``kernel``
("scalar" | "batched", which simulation kernel ran; absent means
"scalar") and ``mode`` ("simulate" | "serve" | "explore"; absent means
"simulate").  Serve-mode records come from
``aurora-sim loadgen`` driving the live query service and additionally
carry ``requests_per_second`` / ``latency_p50_ms`` / ``latency_p99_ms``;
explore-mode records come from ``aurora-sim explore`` and additionally
carry ``configs_considered`` / ``configs_simulated`` /
``model_mean_rel_error``.  Keys outside the schema are ignored, so
older records that still carry a ``trace_path`` tag load unchanged.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import time
from dataclasses import dataclass

HISTORY_VERSION = 1
#: Default history location (repo root by convention; CI uploads it).
DEFAULT_HISTORY = pathlib.Path("BENCH_history.json")
#: Throughput drop (fraction of baseline) that counts as a regression.
DEFAULT_THRESHOLD = 0.20

#: Record schema: field name -> accepted types.  Bools are ints in
#: Python, so int fields explicitly reject them below.
_SCHEMA: dict[str, tuple[type, ...]] = {
    "git_sha": (str,),
    "recorded_at": (int, float),
    "workload": (str,),
    "factor": (int, float),
    "config": (str,),
    "instructions": (int,),
    "sim_cycles": (int,),
    "wall_seconds": (int, float),
    "cycles_per_second": (int, float),
    "instructions_per_second": (int, float),
    "cache_hits": (int,),
    "cache_misses": (int,),
}

#: Optional fields (absent in pre-existing records): name -> (accepted
#: types, allowed values or None).
_OPTIONAL_SCHEMA: dict[str, tuple[tuple[type, ...], tuple | None]] = {
    "kernel": ((str,), ("scalar", "batched")),
    "mode": ((str,), ("simulate", "serve", "explore")),
    "requests_per_second": ((int, float), None),
    "latency_p50_ms": ((int, float), None),
    "latency_p99_ms": ((int, float), None),
    "configs_considered": ((int,), None),
    "configs_simulated": ((int,), None),
    "model_mean_rel_error": ((int, float), None),
}

#: What an absent ``kernel`` means: every record written before the
#: field existed came from the scalar timing loop.
LEGACY_KERNEL = "scalar"
#: What an absent ``mode`` means: every record written before the serve
#: front end existed measured the simulator directly.
LEGACY_MODE = "simulate"

#: Series-key fields whose absence has a defined legacy meaning.
_LEGACY_DEFAULTS = {
    "kernel": LEGACY_KERNEL,
    "mode": LEGACY_MODE,
}


class BaselineError(ValueError):
    """A perf record or history document is malformed; names the field."""


def validate_record(payload: object, *, where: str = "record") -> dict:
    """Validate one perf-history record against the schema."""
    if not isinstance(payload, dict):
        raise BaselineError(
            f"{where}: expected a JSON object, got {type(payload).__name__}"
        )
    for name, types in _SCHEMA.items():
        if name not in payload:
            raise BaselineError(f"{where}: missing field {name!r}")
        value = payload[name]
        if not isinstance(value, types) or isinstance(value, bool):
            expected = "/".join(t.__name__ for t in types)
            raise BaselineError(
                f"{where}: field {name!r} must be {expected}, "
                f"got {value!r}"
            )
    numeric = (
        "recorded_at", "factor", "instructions", "sim_cycles",
        "wall_seconds", "cycles_per_second", "instructions_per_second",
        "cache_hits", "cache_misses",
    )
    for name in numeric:
        if payload[name] < 0:
            raise BaselineError(
                f"{where}: field {name!r} must be >= 0, "
                f"got {payload[name]!r}"
            )
    for name, (types, allowed) in _OPTIONAL_SCHEMA.items():
        if name not in payload:
            continue
        value = payload[name]
        if not isinstance(value, types) or isinstance(value, bool):
            expected = "/".join(t.__name__ for t in types)
            raise BaselineError(
                f"{where}: field {name!r} must be {expected}, got {value!r}"
            )
        if allowed is not None and value not in allowed:
            raise BaselineError(
                f"{where}: field {name!r} must be one of "
                f"{'/'.join(map(str, allowed))}, got {value!r}"
            )
        if allowed is None and value < 0:
            raise BaselineError(
                f"{where}: field {name!r} must be >= 0, got {value!r}"
            )
    return dict(payload)


def git_sha(cwd: str | pathlib.Path | None = None) -> str:
    """Current commit hash (short), or "unknown" outside a git checkout."""
    root = pathlib.Path(cwd) if cwd else pathlib.Path(__file__).parent
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


@dataclass(frozen=True)
class RegressionCheck:
    """Outcome of one current-vs-baseline throughput comparison."""

    baseline_throughput: float
    current_throughput: float
    threshold: float

    @property
    def ratio(self) -> float:
        """current / baseline (1.0 = unchanged; < 1 = slower)."""
        if self.baseline_throughput <= 0:
            return 1.0
        return self.current_throughput / self.baseline_throughput

    @property
    def delta_percent(self) -> float:
        return (self.ratio - 1.0) * 100.0

    @property
    def regressed(self) -> bool:
        return self.ratio < 1.0 - self.threshold

    def render(self) -> str:
        verdict = (
            f"REGRESSION (beyond {self.threshold * 100:.0f}% threshold)"
            if self.regressed
            else "ok"
        )
        return (
            f"baseline {self.baseline_throughput:,.0f} sim-cycles/s, "
            f"current {self.current_throughput:,.0f} sim-cycles/s "
            f"({self.delta_percent:+.1f}%): {verdict}"
        )


class PerfHistory:
    """One ``BENCH_history.json`` file: append records, keep a baseline."""

    def __init__(self, path: str | pathlib.Path = DEFAULT_HISTORY) -> None:
        self.path = pathlib.Path(path)

    # -------------------------------------------------------------- load

    def load(self) -> dict:
        """The validated document (an empty one if the file is absent)."""
        if not self.path.exists():
            return {"version": HISTORY_VERSION, "baseline": None, "records": []}
        try:
            document = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise BaselineError(
                f"{self.path}: unreadable history ({error})"
            ) from None
        if (
            not isinstance(document, dict)
            or document.get("version") != HISTORY_VERSION
        ):
            raise BaselineError(
                f"{self.path}: not a version-{HISTORY_VERSION} "
                "perf-history document"
            )
        records = document.get("records")
        if not isinstance(records, list):
            raise BaselineError(f"{self.path}: 'records' must be a list")
        validated = [
            validate_record(record, where=f"{self.path} records[{index}]")
            for index, record in enumerate(records)
        ]
        baseline = document.get("baseline")
        if baseline is not None:
            baseline = validate_record(
                baseline, where=f"{self.path} baseline"
            )
        return {
            "version": HISTORY_VERSION,
            "baseline": baseline,
            "records": validated,
        }

    def records(self) -> list[dict]:
        return self.load()["records"]

    def baseline(self) -> dict | None:
        return self.load()["baseline"]

    # ------------------------------------------------------------- write

    def _save(self, document: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(document, indent=2) + "\n")
        tmp.replace(self.path)  # atomic: a crash never corrupts history

    def append(self, record: dict) -> dict:
        """Validate and append one record; returns the stored copy."""
        record = validate_record(record)
        document = self.load()
        document["records"].append(record)
        self._save(document)
        return record

    def seed_baseline(self, record: dict) -> dict:
        """Promote ``record`` to the stored baseline."""
        record = validate_record(record, where="baseline")
        document = self.load()
        document["baseline"] = record
        self._save(document)
        return record

    # ------------------------------------------------------------- check

    def compare(
        self, record: dict, *, threshold: float = DEFAULT_THRESHOLD
    ) -> RegressionCheck:
        """Compare ``record`` against the stored baseline.

        Raises :class:`BaselineError` when no baseline is stored or when
        the baseline belongs to a different (workload, factor, config,
        kernel, mode) series — in particular, a batched-kernel run is
        never judged against a scalar one, nor a serve-mode load run
        against a simulate-mode profile (or vice versa): those series
        have different throughput by design.
        """
        if not 0 < threshold < 1:
            raise BaselineError(
                f"threshold must be in (0, 1), got {threshold!r}"
            )
        record = validate_record(record)
        baseline = self.baseline()
        if baseline is None:
            raise BaselineError(
                f"{self.path}: no baseline stored — seed one with "
                "'aurora-sim perf --seed-baseline' first"
            )
        mismatched = []
        for key in ("workload", "factor", "config", "kernel", "mode"):
            legacy = _LEGACY_DEFAULTS.get(key)
            mine = record.get(key, legacy)
            theirs = baseline.get(key, legacy)
            if mine != theirs:
                mismatched.append((key, theirs, mine))
        if mismatched:
            # Name *every* offending axis — with five series keys, naming
            # only the first made "which axis mismatched" a guessing game.
            detail = "; ".join(
                f"baseline is for {key}={theirs!r} but this run has "
                f"{key}={mine!r}"
                for key, theirs, mine in mismatched
            )
            raise BaselineError(
                f"{self.path}: refusing a cross-series comparison "
                f"({detail}); re-seed the baseline for the new series"
            )
        return RegressionCheck(
            baseline_throughput=float(baseline["cycles_per_second"]),
            current_throughput=float(record["cycles_per_second"]),
            threshold=threshold,
        )


def record_now(report, *, sha: str | None = None) -> dict:
    """Build a history record from a :class:`PerfReport` stamped now."""
    return report.as_record(
        git_sha=sha if sha is not None else git_sha(),
        recorded_at=time.time(),
    )
