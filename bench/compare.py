"""Compare two sets of benchmark runs by the repo's decision rule.

A set is a directory holding ``<workload>.jsonl``: one run's final JSON
line (``bench/run.py`` output) per line, in seed order.  Run ``i`` of
the parent set pairs with run ``i`` of the change set::

    for seed in $(seq 0 9); do
        python3 bench/run.py --workload design-grid --seed $seed \\
            | tail -n 1 >> A/design-grid.jsonl
    done
    python3 bench/compare.py A B     # parent A, change B
    python3 bench/compare.py A       # one set: spread vs each bound

Per workload and metric it prints each side's median and quartiles and
a verdict (bounds and directions come from BENCHMARK.json):

* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``claim`` -- the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``unresolved`` -- the spread (IQR over median, either side) exceeds
  the bound and not every change run beats every parent run;
* ``unchanged`` -- none of the above.

``fail_frac`` (failed over attempted ops) and the deterministic
per-layer metrics ``explore.frontier_recall`` and ``explore.sim_frac``
are exact: any move in the wrong direction is a regression.  Exits 1
when any row is a regression.
"""

from __future__ import annotations

import json
import pathlib
import sys
from statistics import median, quantiles

SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Deterministic metrics: compared exactly, never by bound.
EXACT = {
    "fail_frac": "lower",
    "explore.frontier_recall": "higher",
    "explore.sim_frac": "lower",
}


def load_set(directory: pathlib.Path) -> dict[str, list[dict]]:
    """``{workload: [metric values per run]}`` with ``fail_frac`` added."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            values = {
                name: reading["value"]
                for name, reading in record["metrics"].items()
            }
            values["fail_frac"] = record["failed"] / record["attempted"]
            runs.setdefault(path.stem, []).append(values)
    return runs


def _summary(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: list[float]) -> float:
    q1, mid, q3 = _summary(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(parent: list[float], change: list[float], *, better: str,
            bound: float | None) -> str:
    """The decision rule for one workload x metric (module docs)."""
    sign = 1.0 if better == "lower" else -1.0
    if bound is None:  # exact metric: compare each side's worst run
        moved = max(sign * v for v in change) - max(sign * v for v in parent)
        if moved > 0:
            return "regression"
        return "claim" if moved < 0 else "unchanged"
    base, new = median(parent), median(change)
    worse_by = sign * (new - base) / abs(base) if base else sign * (new - base)
    if worse_by > bound:
        return "regression"
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    q1, _mid, q3 = _summary(parent)
    separated = max(sign * v for v in change) < min(sign * v for v in parent)
    noisy = max(_spread(parent), _spread(change)) > bound
    if (
        pairs and wins >= 0.9 * len(pairs)
        and sign * (base - new) > q3 - q1
        and (separated or not noisy)
    ):
        return "claim"
    if noisy and not separated:
        return "unresolved"
    return "unchanged"


def _definitions(spec: dict) -> dict[str, dict]:
    definitions = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name, better in EXACT.items():
        definitions[name] = {"name": name, "better": better, "bound": None,
                             "unit": definitions.get(name, {}).get("unit", "ratio")}
    return definitions


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    """One row per workload x metric present in both sets."""
    definitions = _definitions(spec)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        a_runs, b_runs = parent[workload], change[workload]
        for name in a_runs[0]:
            metric = definitions.get(name)
            if metric is None or name not in b_runs[0]:
                continue
            if "bound" not in metric and name not in EXACT:
                continue  # per-layer metrics carry no bound
            a = [run[name] for run in a_runs]
            b = [run[name] for run in b_runs]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "parent": _summary(a),
                "change": _summary(b),
                "verdict": verdict(a, b, better=metric["better"],
                                   bound=metric.get("bound")),
            })
    return rows


def spreads(runs: dict, spec: dict) -> list[dict]:
    """One set alone: each bounded metric's IQR over median vs its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return [
        {
            "workload": workload,
            "metric": name,
            "summary": _summary([run[name] for run in workload_runs]),
            "spread": _spread([run[name] for run in workload_runs]),
            "bound": bound,
        }
        for workload, workload_runs in sorted(runs.items())
        for name, bound in bounds.items()
        if name in workload_runs[0]
    ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    sets = [load_set(pathlib.Path(path)) for path in argv]
    if len(sets) == 1:
        for row in spreads(sets[0], spec):
            q1, mid, q3 = row["summary"]
            flag = "ok" if row["spread"] <= row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "TOO WIDE")
            print(f"{row['workload']:<13} {row['metric']:<14} median {mid:>12.6g} "
                  f"Q1 {q1:>12.6g} Q3 {q3:>12.6g} spread {row['spread']:7.4f} "
                  f"bound {row['bound']:.2f}  {flag}")
        return 0
    rows = compare(sets[0], sets[1], spec)
    for row in rows:
        (a1, a2, a3), (b1, b2, b3) = row["parent"], row["change"]
        print(f"{row['workload']:<13} {row['metric']:<24} "
              f"parent {a2:>11.5g} [{a1:.5g}, {a3:.5g}]  "
              f"change {b2:>11.5g} [{b1:.5g}, {b3:.5g}] {row['unit']:<6} "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
