"""Golden output digests: what the benchmark checks every run against.

``bench/golden.json`` maps a check key to the SHA-256 digest of one
output the benchmark produces:

* ``paper-sweep/<experiment>`` -- the rendered report of each of the 12
  paper experiments at factor 0.05;
* ``design-grid/<workload>/grid`` -- the canonical ``SimStats.to_dict()``
  JSON of the 58 exhaustive Figure 8 simulations of one design-grid
  trace, and ``design-grid/<workload>/frontier`` -- the guided
  explorer's frontier labels;
* ``trace-ingest/<workload>`` -- the int64 record array of one
  factor-1.0 trace (checked after the cold build and the warm reload).

``serve-mixed`` needs no digest: it re-simulates a sample of its answers
directly and compares them exactly.

Regenerate the file only when a change alters simulated results on
purpose::

    python3 bench/golden.py

It runs one round of each digest-checked workload through the same
worker subprocess the benchmark uses and rewrites ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_text(text: str) -> str:
    return digest_bytes(text.encode("utf-8"))


def digest_json(value) -> str:
    """Digest of compact JSON; ``SimStats.to_dict()`` field order is stable."""
    return digest_text(json.dumps(value, separators=(",", ":")))


def digest_array(array) -> str:
    """Digest of an integer trace array as little-endian int64 bytes."""
    import numpy as np

    return digest_bytes(np.ascontiguousarray(array, dtype="<i8").tobytes())


def load(path: pathlib.Path = GOLDEN_PATH) -> dict[str, str]:
    """The committed digests, or an empty mapping when the file is absent."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def main() -> int:
    import run

    digests: dict[str, str] = {}
    for workload in ("paper-sweep", "design-grid", "trace-ingest"):
        print(f"golden: {workload} ...", file=sys.stderr)
        outcome = run.run_workload(workload, seed=0, seconds=0, traced=False)
        digests.update(outcome.digests)
    GOLDEN_PATH.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"golden: wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
