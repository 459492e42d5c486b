"""Self-tests of the benchmark harness: ``python -m pytest bench -q``.

They run the workloads at reduced sizes, passed as arguments, so the
whole file takes well under a minute.  They are not part of the tier-1
suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import golden  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from serve_mixed import ServeMixed  # noqa: E402


@pytest.fixture
def trace_cache_dir(tmp_path):
    from repro.workloads import registry, trace_cache

    trace_cache.configure(tmp_path / "cache")
    registry.clear_trace_cache()
    yield tmp_path / "cache"
    trace_cache.configure(None)
    registry.clear_trace_cache()


def test_golden_check_flags_a_single_byte_perturbed_report(tmp_path, trace_cache_dir):
    from repro.experiments.run_all import EXPERIMENTS

    sweep = workloads.PaperSweep(0, tmp_path, only=["fig1"])
    assert sweep.run_round(traced=False).failed == 0

    text = bytearray(EXPERIMENTS["fig1"](0.05).render().encode())
    text[len(text) // 2] ^= 0x01
    sweep.expected = {"paper-sweep/fig1": golden.digest_bytes(bytes(text))}
    assert sweep.run_round(traced=False).failed == 1


def _set(values: dict[str, list[float]]) -> dict:
    runs = len(next(iter(values.values())))
    return {
        "paper-sweep": [
            {name: series[i] for name, series in values.items()}
            for i in range(runs)
        ]
    }


def test_compare_returns_claim_regression_and_unresolved():
    spec = json.loads(run.SPEC_PATH.read_text())
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.7 for v in steady]
    slower = [v * 1.5 for v in steady]
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    parent = _set({"wall_s": steady, "setup_s": steady, "peak_rss_mb": steady,
                   "fail_frac": [0.0] * 10})
    change = _set({"wall_s": faster, "setup_s": slower, "peak_rss_mb": noisy,
                   "fail_frac": [0.0] * 9 + [0.1]})
    verdicts = {
        row["metric"]: row["verdict"]
        for row in compare.compare(parent, change, spec)
    }
    assert verdicts == {
        "wall_s": "claim",
        "setup_s": "regression",
        "peak_rss_mb": "unresolved",
        "fail_frac": "regression",
    }
    same = compare.compare(parent, parent, spec)
    assert {row["verdict"] for row in same} == {"unchanged"}


def test_paper_sweep_at_reduced_size(tmp_path, trace_cache_dir):
    sweep = workloads.PaperSweep(0, tmp_path, only=["fig1", "table2", "hit_rates"])
    sweep.setup()
    (result,) = workloads.measure(sweep, 0, traced=False)
    assert (result.attempted, result.failed) == (3, 0)


def test_design_grid_at_reduced_size(tmp_path, trace_cache_dir):
    grid = workloads.DesignGrid(0, tmp_path, workloads=["sc"])
    grid.setup()
    (result,) = workloads.measure(grid, 0, traced=False)
    assert (result.attempted, result.failed) == (1, 0)
    assert 0 < result.extra["explore.sim_frac"] <= 0.5


def test_trace_ingest_at_reduced_size_and_its_layers(tmp_path, trace_cache_dir):
    ingest = workloads.TraceIngest(0, tmp_path, workloads=["ora", "nasa7"])
    ingest.setup()
    (untraced,) = workloads.measure(ingest, 0, traced=False)
    (traced,) = workloads.measure(ingest, 0, traced=True)
    assert (untraced.attempted, untraced.failed, traced.failed) == (4, 0, 0)
    metrics = layers.attribute([traced], untraced_walls=[untraced.wall])["metrics"]
    assert metrics["trace_cache.hits"] == 2 and metrics["trace_cache.misses"] == 2
    assert metrics["func.build_s"] > 0 and metrics["func.records_per_s"] > 0
    assert 0 <= metrics["layers.unattributed_frac"] < 0.2


def test_serve_mixed_at_reduced_size(tmp_path):
    serve = ServeMixed(0, tmp_path, max_requests=20)
    server, records, peak_rss_mb = run._serve_phase(serve, "test", seconds=60)
    assert len(records) == 20 and all(record["ok"] for record in records)
    assert peak_rss_mb > 0
    assert serve.check(records, server.cache) == 0


def _results_tree() -> list[tuple[str, float]]:
    return sorted(
        (str(path.relative_to(ROOT)), path.stat().st_mtime)
        for path in (ROOT / "results").rglob("*")
    )


def test_a_run_leaves_the_repository_untouched():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status() -> str:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout

    before, results_before = status(), _results_tree()
    outcome = run.run_workload("trace-ingest", seed=0, seconds=0, traced=False)
    assert outcome.failed == 0
    assert status() == before
    assert _results_tree() == results_before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    finished = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace-ingest"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert finished.stdout == ""
