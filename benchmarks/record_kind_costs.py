"""Host time per trace record, by record kind, on the BASELINE machine.

Each kind gets a synthetic trace of one record kind only, so a row is
the scalar timing loop's cost for that kind alone (plus the loop's
fixed per-record work).  The traces match docs/PERFORMANCE.md's
per-kind tables: a 256-instruction loop body, loads and stores
striding through 4,096 words, FP arithmetic cycling over 8 register
pairs, FP loads and stores striding through 2,048 doubles.  Each trace
is timed ``--repeats`` times in this process after one warm-up run and
the best run is reported.  Prints one ``kind  µs/record`` line per kind.

Run from the repository root::

    PYTHONPATH=src python benchmarks/record_kind_costs.py
    PYTHONPATH=src python benchmarks/record_kind_costs.py --records 2000 --repeats 1

This is a measuring script, not a test: it gates nothing.
"""

from __future__ import annotations

import argparse
import time

from repro.core.config import BASELINE
from repro.core.processor import AuroraProcessor
from repro.func.prepared import prepare_trace
from repro.func.trace import NO_REG
from repro.isa.instructions import Kind
from repro.isa.program import DATA_BASE, TEXT_BASE

_BODY = 256  # static instructions in the synthetic loop body
_SP = 29  # base register of every memory access


def _record(kind: str, i: int) -> tuple[int, int, int, int, int, int]:
    pc = TEXT_BASE + 4 * (i % _BODY)
    word = DATA_BASE + 4 * (i % 4096)
    double = DATA_BASE + 8 * (i % 2048)
    fp = 32 + 2 * (i % 8)  # even FP registers hold the doubles
    if kind == "ALU":
        return (pc, int(Kind.ALU), 8 + i % 8, 8 + (i + 3) % 8, NO_REG, 0)
    if kind == "taken branch":
        return (pc, int(Kind.BRANCH), NO_REG, 8, 9, TEXT_BASE)
    if kind == "load":
        return (pc, int(Kind.LOAD), 8 + i % 8, _SP, NO_REG, word)
    if kind == "store":
        return (pc, int(Kind.STORE), NO_REG, _SP, 8 + i % 8, word)
    if kind == "FP add":
        return (
            pc, int(Kind.FP_ADD), fp, 32 + 2 * ((i + 1) % 8),
            32 + 2 * ((i + 2) % 8), 0,
        )
    if kind == "FP load":
        return (pc, int(Kind.FP_LOAD), fp, _SP, NO_REG, double)
    if kind == "FP store":
        return (pc, int(Kind.FP_STORE), NO_REG, _SP, fp, double)
    raise ValueError(f"unknown record kind {kind!r}")


KINDS = (
    "ALU", "taken branch", "load", "store", "FP add", "FP load", "FP store",
)


def kind_cost(kind: str, records: int, repeats: int) -> float:
    """Best-of-``repeats`` host seconds per record for one kind."""
    trace = prepare_trace([_record(kind, i) for i in range(records)])
    processor = AuroraProcessor(BASELINE)
    processor.run(trace)  # warm the trace's per-geometry memos
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        processor.run(trace)
        best = min(best, time.perf_counter() - started)
    return best / records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=50_000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.records < 1 or args.repeats < 1:
        parser.error("--records and --repeats must be >= 1")
    print(f"{'record kind':<14} µs/record  ({args.records} records, "
          f"best of {args.repeats})")
    for kind in KINDS:
        cost = kind_cost(kind, args.records, args.repeats)
        print(f"{kind:<14} {cost * 1e6:9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
