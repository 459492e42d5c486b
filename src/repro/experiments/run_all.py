"""Run every paper experiment fault-tolerantly, with checkpoint/resume.

Usage::

    python -m repro.experiments.run_all [--factor 0.5] [--out results/]
                                        [--only fig4 ...] [--timeout 600]
                                        [--retries 2] [--no-resume]
                                        [--manifest path.json]
                                        [--jobs 4] [--no-trace-cache]
                                        [--chaos SPEC] [--chaos-seed N]

``--factor`` shrinks every workload to that fraction of its default size
for faster turnarounds; 1.0 reproduces the shipped EXPERIMENTS.md runs.
``--jobs N`` runs up to N experiments concurrently in worker processes
(results and reports are identical to a serial run — see
docs/PERFORMANCE.md); ``--no-trace-cache`` disables the persistent
on-disk trace cache for this run.

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

import argparse
import importlib
import os
import pathlib
import signal
import sys
from dataclasses import dataclass

from repro.experiments.exit_codes import (
    EXIT_INTERRUPTED,
    EXIT_USAGE,
    sweep_exit_code,
)
from repro.robustness.runner import MANIFEST_NAME, ResilientRunner, RunReport
from repro.robustness.validation import (
    EnvValidationError,
    validate_environment,
    validate_factor,
)
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
    checkpoint, so every experiment runs fresh.  ``jobs > 1`` runs
    experiments on a process pool; ``use_trace_cache=False`` disables
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


def run_all(
    factor: float = 1.0,
    out_dir: str | None = None,
    only: list[str] | None = None,
    stream=None,
    **kwargs,
) -> dict[str, object]:
    """Back-compatible wrapper around :func:`run_resilient`.

    Returns only the ``{id: result}`` mapping the original bare loop
    returned; keyword arguments pass through to :func:`run_resilient`.
    """
    results, _report = run_resilient(
        factor=factor, out_dir=out_dir, only=only, stream=stream, **kwargs
    )
    return results


def positive_float(text: str) -> float:
    """Argparse type for ``--factor``: strictly positive, finite."""
    try:
        return validate_factor(float(text), where="--factor")
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def nonneg_int(text: str) -> int:
    """Argparse type for ``--retries``: integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    """Argparse type for ``--jobs``: integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--factor", type=positive_float, default=1.0)
    parser.add_argument("--out", default=None, help="directory for .txt reports")
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="run only these experiment ids",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-experiment wall-clock budget in seconds",
    )
    parser.add_argument(
        "--retries",
        type=nonneg_int,
        default=2,
        help="retry attempts for transient failures",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes for parallel experiment execution",
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the persistent on-disk trace cache",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore the checkpoint manifest and re-run everything",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        help="checkpoint manifest path (default: <out>/manifest.json)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record host-side spans and export Chrome trace-event "
             "JSON here (view with 'aurora-sim spans' or Perfetto)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="chaos plan: comma-separated kind[:target[:count[:seconds]]] "
             "tokens (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the chaos plan's deterministic injections",
    )
    args = parser.parse_args(argv)
    try:
        validate_environment()
    except EnvValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    from repro.robustness.chaos import ChaosError
    from repro.telemetry import logging as structlog

    try:
        structlog.configure_from_env()
    except structlog.LogConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _results, report = run_resilient(
            factor=args.factor,
            out_dir=args.out,
            only=args.only,
            resume=not args.no_resume,
            manifest=args.manifest,
            timeout=args.timeout,
            retries=args.retries,
            jobs=args.jobs,
            use_trace_cache=not args.no_trace_cache,
            trace_out=args.trace,
            chaos=args.chaos,
            chaos_seed=args.chaos_seed,
        )
    except ChaosError as error:
        print(f"error: --chaos: {error}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        # Second signal (hard abort): no report exists to salvage.
        print("aborted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed stdout: not a bug
        # in the sweep.  Point the interpreter's shutdown flush at
        # devnull so it cannot traceback, and report the conventional
        # 128+SIGPIPE status a signal-killed process would have.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    finally:
        structlog.shutdown()
    return sweep_exit_code(report)


if __name__ == "__main__":
    raise SystemExit(main())
