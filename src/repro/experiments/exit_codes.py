"""Unified ``aurora-sim`` process exit codes.

One table, used by every entry point (``aurora-sim`` subcommands and
``python -m repro.experiments.run_all``, which runs ``aurora-sim
experiments``), so scripts and CI can branch on *why* a run ended
without parsing output:

====  =======================================================
code  meaning
====  =======================================================
0     success (all selected work completed)
1     internal error (unexpected exception; a bug, not usage)
2     usage error (bad arguments or invalid ``REPRO_*`` env)
4     partial results: one or more experiments failed, timed
      out, or were lost to a worker death — the rest completed
      and were checkpointed
5     interrupted (SIGINT/SIGTERM): graceful shutdown, the
      checkpoint manifest was flushed; resume to continue
====  =======================================================

Codes 4 and 5 are deliberately distinct: "something broke" (4) wants a
bug report, "the operator stopped it" (5) wants a resume.  Codes 3 and
6 are retired (they meant a perf-history regression and a
load-generator SLO violation) and are not reused.
Argparse itself exits 2 on bad flags, which this table deliberately
matches for the eager environment validation path.  One code lives
outside the table: a downstream consumer closing stdout (``run_all |
head``) exits ``128 + SIGPIPE`` (141), the status a signal-killed
process reports — it is the pipeline's business, not a sweep outcome.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 4
EXIT_INTERRUPTED = 5


def sweep_exit_code(report) -> int:
    """Exit code for a finished sweep's :class:`RunReport`.

    Interruption wins over partial failure: an operator who stopped a
    sweep mid-flight expects "interrupted", even though the stop also
    left experiments unfinished.
    """
    if report.interrupted:
        return EXIT_INTERRUPTED
    if not report.ok:
        return EXIT_PARTIAL
    return EXIT_OK
