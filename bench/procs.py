"""Processes the benchmark starts: controlled environment, reaping, peak RSS."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "workloads.py"
PYTHON = sys.executable


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def bench_env(cache_dir: pathlib.Path) -> dict[str, str]:
    """Environment for a program process.

    No inherited ``REPRO_*`` setting survives (kernel choice, trace
    representation, logging, cache location), so the program runs as
    shipped; the trace cache is private to the process's run directory
    and ``src`` leads the import path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_TRACE_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


class Child:
    """A subprocess that is always reaped, with its peak RSS once it ends."""

    def __init__(self, args: list[str], *, env: dict, cwd: pathlib.Path,
                 stdout=None) -> None:
        self.args = args
        self.proc = subprocess.Popen(
            args, env=env, cwd=cwd, stdout=stdout, text=True
        )
        self.peak_rss_mb: float | None = None

    def wait(self, timeout: float) -> int:
        """Exit code; kills the process and raises after ``timeout`` s."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
                return self.proc.returncode
            if time.monotonic() > deadline:
                self.close()
                raise BenchError(
                    f"{' '.join(self.args[1:3])}: no exit within {timeout:g}s"
                )
            time.sleep(0.02)

    def close(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            _pid, status, _usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
