"""Every definition in ``src/repro`` has a caller.

The scan walks the package with :mod:`ast`.  Each module-level function
or class, and each non-dunder method, must be referenced by name (a
plain name or an attribute) somewhere in ``src/repro`` besides its own
definition.  Imports and ``__all__`` strings do not count: a re-export
is not a caller.  The names ``repro.api`` binds are the public API and
need no caller; every other exception is listed in ``ALLOWED`` with its
reason.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: qualified name -> why it has no caller in ``src/repro``.
ALLOWED = {
    # Called by machinery, not by name.
    "build": "each workload kernel's builder registers through @workload",
    "_JSONFormatter.format": "logging.Formatter calls it",
    # Read by bench/, benchmarks/, CI or examples/.
    "batch_snapshot": "bench/ reads the kernel's batch counters",
    "validation_snapshot": "bench/ reads the validation counters",
    "memo_snapshot": "bench/ reads the trace-memo counters",
    "clear_trace_cache": "bench/ drops the trace memo between rounds",
    "read_log": "CI reads the structured log back with it",
    "parse_prom": "CI parses the /metrics scrape with it",
    "average_cpi": "examples/fpu_tuning.py averages a suite with it",
    "Fig4Result.dual_issue_gain": "a benchmarks/ gate reads it",
    "Fig5Result.prefetch_gain": "a benchmarks/ gate reads it",
    "Fig6Result.dominant": "a benchmarks/ gate reads it",
    "Fig7Result.gain_from_variation": "a benchmarks/ gate reads it",
    "Fig8Result.marked": "a benchmarks/ gate reads it",
    "Fig8Result.best": "a benchmarks/ gate reads it",
    "Fig9Result.sensitivity": "a benchmarks/ gate reads it",
    "Fig9Result.depipelining_penalty": "a benchmarks/ gate reads it",
    "Table6Result.gain": "a benchmarks/ gate reads it",
    "WriteCacheTable.average_hit_rate": "a benchmarks/ gate reads it",
    # References the tests check the timing loop's inline rules against.
    "DirectMappedCache.line_of": "reference D-cache (tests/test_caches.py)",
    "DirectMappedCache.probe": "reference for icache_misses (test_prepared)",
    "DirectMappedCache.ready_time": "reference D-cache (tests/test_caches.py)",
    "DirectMappedCache.fill": "reference for icache_misses (test_prepared)",
    "DirectMappedCache.invalidate": "reference D-cache (tests/test_caches.py)",
    "DirectMappedCache.miss_rate": "reference D-cache (tests/test_caches.py)",
    "WriteCache.load_lookup": "reference for writecache_decisions",
    "SimStats.check_invariants": "tests check every run's counters with it",
    "PreparedTrace.to_records": "tests compare a loaded trace with records",
    # Accessors tests read in place of private state.
    "BusInterfaceUnit.transmit_free": "tests read the BIU's busy-until time",
    "DecoupledFPU.dispatch_floor": "tests read the FPU queue floor",
    "DecoupledFPU.load_data_floor": "tests read the FPU load-queue floor",
    "DecoupledFPU.reg_read_floor": "tests read the FPU register floor",
    "WriteCache.contains_line": "tests read the write-cache contents",
    "MachineConfig.dcache_lines": "tests read the derived D-cache size",
    "Program.num_instructions": "tests read an assembled program's size",
    "Program.symbol": "tests resolve a label's address",
    "SparseMemory.resident_bytes": "tests read the memory's footprint",
    "TraceStats.fp_ops": "tests read a trace's FP mix",
    "TraceStats.code_footprint_bytes": "tests read a trace's code footprint",
    "TraceStats.data_footprint_bytes": "tests read a trace's data footprint",
    # Helpers only tests call.
    "is_memory_kind": "tests check the kind classes",
    "is_fp_kind": "tests check the kind classes",
    "Kind.is_memory": "tests check the kind classes",
    "fp_double_reg": "tests check register-pair naming",
    "CostBreakdown.area_um2": "tests check the RBE area conversion",
    "CostBreakdown.transistors": "tests check the RBE transistor count",
    "corrupt_trace": "tests feed validate_trace broken traces with it",
    "query_to_payload": "tests round-trip serve queries through it",
    "BackgroundServer": "tests run serve in a thread with it",
    "EventBus.detach": "tests detach a sink mid-run",
    "StructLogger.debug": "tests log below the default level",
    "Fig5Result.worst_case_gain": "tests read the prefetch result",
    "Fig7Result.best_count": "tests read the MSHR result",
}


def _sources() -> dict[str, str]:
    return {
        str(path.relative_to(SRC)): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, name) of every definition the guard covers."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or _is_dunder(node.name):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not _is_dunder(
                    member.name
                ):
                    yield f"{node.name}.{member.name}", member.name


def _public_api(sources: dict[str, str]) -> set[str]:
    """Every name ``repro.api`` binds (``repro`` re-exports them)."""
    names = set()
    for node in ast.parse(sources["api.py"]).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _uncalled(sources: dict[str, str]) -> dict[str, str]:
    """qualified name -> module of each definition nothing references."""
    referenced = set()
    defined = []
    for module, text in sources.items():
        tree = ast.parse(text, filename=module)
        defined.extend(
            (qualname, name, module) for qualname, name in _definitions(tree)
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    public = _public_api(sources)
    return {
        qualname: module
        for qualname, name, module in defined
        if name not in referenced and qualname not in public
    }


def test_every_definition_has_a_caller():
    dead = {
        qualname: module
        for qualname, module in _uncalled(_sources()).items()
        if qualname not in ALLOWED
    }
    assert not dead, "definitions nothing in src/repro calls: " + ", ".join(
        f"{module}::{qualname}" for qualname, module in sorted(dead.items())
    )


def test_allowlist_names_only_uncalled_definitions():
    # An entry whose definition is gone, or which gained a caller, is
    # stale: drop it so the list stays the exact set of exceptions.
    stale = set(ALLOWED) - set(_uncalled(_sources()))
    assert not stale, f"stale ALLOWED entries: {sorted(stale)}"


def test_a_restored_dead_function_fails_the_guard():
    sources = _sources()
    sources["core/stats.py"] += (
        "\n\ndef cpi_range(stats_list):\n"
        "    cpis = [s.cpi for s in stats_list]\n"
        "    return (min(cpis), sum(cpis) / len(cpis), max(cpis))\n"
    )
    sources["core/__init__.py"] += (
        "\nfrom repro.core.stats import cpi_range  # noqa: F401\n"
        "__all__ = [*__all__, 'cpi_range']\n"
    )
    assert _uncalled(sources)["cpi_range"] == "core/stats.py"
