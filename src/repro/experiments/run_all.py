"""Run every paper experiment fault-tolerantly, with checkpoint/resume.

Usage::

    python -m repro.experiments.run_all [--factor 0.5] [--out results/] ...

takes the flags of ``aurora-sim experiments`` and runs it: the one
sweep parser is in :mod:`repro.experiments.cli`.

``--factor`` shrinks every workload to that fraction of its default size
for faster turnarounds; 1.0 reproduces the shipped EXPERIMENTS.md runs.
``--jobs N`` runs up to N experiments at once in N worker processes;
the default ``--jobs 1`` runs them one after another in this process.
Both go through the same scheduling loop, so results and reports are
identical (see docs/PERFORMANCE.md).  ``--no-trace-cache`` disables the
persistent on-disk trace cache for this run.

Execution goes through :class:`repro.robustness.runner.ResilientRunner`:
each experiment is isolated (a crash or timeout in one no longer aborts
the sweep), transient failures retry with bounded backoff, and completed
results checkpoint to a manifest keyed by (experiment id, factor, code
hash) — re-running the same sweep skips finished work and re-runs only
what failed.  A partial-results report always prints, and the process
exit code follows the unified table in
:mod:`repro.experiments.exit_codes` (0 ok, 2 usage, 4 partial results,
5 interrupted).  ``--chaos`` injects deterministic failures for
resilience testing (see :mod:`repro.robustness.chaos` and
docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import importlib
import pathlib
import sys
from dataclasses import dataclass

from repro.robustness.runner import MANIFEST_NAME, ResilientRunner, RunReport
from repro.robustness.validation import validate_factor
from repro.workloads import trace_cache


@dataclass(frozen=True)
class ExperimentDriver:
    """Picklable experiment callable.

    ``--jobs`` ships these across a process pool, which lambdas cannot
    survive; a frozen dataclass pickles by value and imports its driver
    module lazily inside the worker (also what the ``spawn`` start
    method needs).
    """

    module: str  # module name under repro.experiments
    scaled: bool = True  # whether run() accepts a workload-scale factor

    def __call__(self, factor: float):
        driver = importlib.import_module(f"repro.experiments.{self.module}")
        if self.scaled:
            return driver.run(factor=factor)
        return driver.run()


#: experiment id -> callable(factor) -> result with .render()
EXPERIMENTS = {
    "fig1": ExperimentDriver("fig1_clock_trend", scaled=False),
    "table2": ExperimentDriver("table2_cost", scaled=False),
    "fig4": ExperimentDriver("fig4_issue"),
    "table3_4": ExperimentDriver("prefetch_tables"),
    "fig5": ExperimentDriver("fig5_prefetch"),
    "fig6": ExperimentDriver("fig6_stalls"),
    "fig7": ExperimentDriver("fig7_mshr"),
    "table5": ExperimentDriver("writecache_table"),
    "fig8": ExperimentDriver("fig8_design_space"),
    "hit_rates": ExperimentDriver("hit_rates"),
    "table6": ExperimentDriver("table6_fpu_issue"),
    "fig9": ExperimentDriver("fig9_fpu"),
}


def run_resilient(
    factor: float = 1.0,
    out_dir: str | None = None,
    only: list[str] | None = None,
    stream=None,
    *,
    resume: bool = True,
    manifest: str | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.25,
    fault_plan=None,
    jobs: int = 1,
    use_trace_cache: bool = True,
    trace_out: str | None = None,
    chaos: str | None = None,
    chaos_seed: int = 0,
) -> tuple[dict[str, object], RunReport]:
    """Run the selected experiments; returns ``(results, report)``.

    ``results`` maps experiment id to the driver's result object (or a
    :class:`~repro.robustness.runner.CheckpointedResult` restored from
    the manifest); ``report`` lists every outcome with causes.  When
    neither ``manifest`` nor ``out_dir`` is given there is nowhere to
    checkpoint, so every experiment runs fresh.  ``jobs=1`` runs the
    experiments in this process, ``jobs > 1`` on a pool of that many
    worker processes; ``use_trace_cache=False`` disables
    the persistent trace cache for this process (it never force-enables
    a cache switched off via the environment).  ``trace_out`` switches
    on host-side span tracing for the sweep and exports the merged span
    tree as Chrome trace-event JSON to that path (view with
    ``aurora-sim spans`` or Perfetto); without it no tracer exists and
    the sweep runs exactly as before.

    ``chaos`` takes a :class:`repro.robustness.chaos.ChaosPlan` spec
    (``kind[:target[:count[:seconds]]],...``) seeded by ``chaos_seed``:
    disk faults are applied to the trace cache and manifest before the
    sweep, filesystem faults are armed at their sites (in the parent
    and every pool worker), and pool faults compile into the fault
    plan.  Mutually exclusive with an explicit ``fault_plan``.
    """
    validate_factor(factor, where="--factor")
    if not use_trace_cache:
        trace_cache.set_enabled(False)
    effective_stream = stream if stream is not None else sys.stdout
    chaos_plan = None
    if chaos is not None:
        from repro.robustness import chaos as chaos_mod

        if fault_plan is not None:
            raise ValueError(
                "chaos and fault_plan are mutually exclusive: a chaos "
                "plan compiles its own pool faults"
            )
        chaos_plan = chaos_mod.ChaosPlan.parse(chaos, seed=chaos_seed)
        selected = list(only) if only else list(EXPERIMENTS)
        fault_plan = chaos_plan.fault_plan(selected)
        manifest_path = manifest
        if manifest_path is None and out_dir is not None:
            manifest_path = pathlib.Path(out_dir) / MANIFEST_NAME
        chaos_plan.apply_disk(
            trace_cache.default_cache().root,
            manifest_path,
            stream=effective_stream,
        )
    tracer = None
    if trace_out is not None:
        from repro.telemetry.tracing import SpanTracer

        tracer = SpanTracer()
    runner = ResilientRunner(
        manifest_path=manifest,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        fault_plan=fault_plan,
        jobs=jobs,
        tracer=tracer,
        chaos_plan=chaos_plan,
    )
    if chaos_plan is None:
        return runner.run(
            EXPERIMENTS,
            factor=factor,
            only=only,
            resume=resume,
            stream=effective_stream,
            out_dir=out_dir,
            trace_out=trace_out,
        )
    from repro.robustness import chaos as chaos_mod

    with chaos_mod.active(chaos_plan):
        return runner.run(
            EXPERIMENTS,
            factor=factor,
            only=only,
            resume=resume,
            stream=effective_stream,
            out_dir=out_dir,
            trace_out=trace_out,
        )


def main(argv: list[str] | None = None) -> int:
    """``aurora-sim experiments`` with ``argv`` (default: ``sys.argv[1:]``)."""
    from repro.experiments.cli import main as cli_main

    return cli_main(["experiments", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
