"""Property-based tests (hypothesis) over the core data structures and
the functional/timing pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.biu import BusInterfaceUnit
from repro.core.caches import DirectMappedCache
from repro.core.config import (
    BASELINE,
    FPIssuePolicy,
    FPUConfig,
    MachineConfig,
)
from repro.core.kernel import simulate_many
from repro.core.processor import (
    CAPACITY_FIELDS,
    AuroraProcessor,
    simulate_trace,
)
from repro.core.writecache import WriteCache
from repro.func.machine import run_program
from repro.func.trace import NO_REG
from repro.isa.assembler import Assembler
from repro.isa.instructions import Kind
from repro.isa.program import TEXT_BASE
from repro.telemetry.events import EventBus, EventKind
from repro.workloads.support import Lcg

# ---------------------------------------------------------------- machine

_SAFE_OPS = ("addu", "subu", "and", "or", "xor", "nor", "slt", "sltu")
_REGS = ("t0", "t1", "t2", "t3", "v0", "v1", "a0", "a1", "s0", "s1")


@st.composite
def random_alu_program(draw):
    """A random straight-line ALU program seeded with constants."""
    asm = Assembler()
    for reg in _REGS:
        asm.li(reg, draw(st.integers(-1000, 1000)))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_SAFE_OPS),
                st.sampled_from(_REGS),
                st.sampled_from(_REGS),
                st.sampled_from(_REGS),
            ),
            min_size=1,
            max_size=40,
        )
    )
    for op, rd, rs, rt in ops:
        asm.op(op, rd, rs, rt)
    asm.halt()
    return asm.assemble(), len(ops)


class TestMachineProperties:
    @given(random_alu_program())
    @settings(max_examples=40, deadline=None)
    def test_random_programs_run_and_trace(self, prog_and_count):
        program, op_count = prog_and_count
        result = run_program(program)
        assert result.halted
        assert len(result.trace) == result.instructions
        # every register stays a signed 32-bit value
        for value in result.registers:
            assert -(2**31) <= value < 2**31
        # trace pcs stay within the text segment and are word aligned
        for pc, *_ in result.trace:
            assert pc >= TEXT_BASE and pc % 4 == 0

    @given(random_alu_program())
    @settings(max_examples=15, deadline=None)
    def test_timing_invariants_on_random_programs(self, prog_and_count):
        program, _ = prog_and_count
        trace = run_program(program).trace
        stats = simulate_trace(trace, BASELINE).stats
        stats.check_invariants()
        assert stats.instructions == len(trace)
        # an issue width of 2 bounds throughput
        assert stats.cycles >= stats.instructions / 2


# ------------------------------------------------------------- components


class TestCacheProperties:
    @given(
        st.lists(st.integers(0, 2**20).map(lambda a: a * 4), min_size=1,
                 max_size=300)
    )
    @settings(max_examples=30, deadline=None)
    def test_fill_then_probe_holds(self, addresses):
        cache = DirectMappedCache(2048, 32)
        for address in addresses:
            cache.fill(address, 0)
            assert cache.probe(address)  # most recent fill always resident

    @given(
        st.lists(st.integers(0, 2**16).map(lambda a: a * 4), min_size=1,
                 max_size=300)
    )
    @settings(max_examples=30, deadline=None)
    def test_hits_bounded_by_accesses(self, addresses):
        cache = DirectMappedCache(1024, 32)
        for address in addresses:
            if not cache.lookup(address):
                cache.fill(address, 0)
        assert 0 <= cache.hits <= cache.accesses == len(addresses)


class TestBiuProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_arrivals_monotone_for_monotone_requests(self, times):
        biu = BusInterfaceUnit(latency=17, occupancy=4)
        arrivals = [biu.request(t, "dread") for t in sorted(times)]
        assert arrivals == sorted(arrivals)
        assert all(a >= t + 17 for a, t in zip(arrivals, sorted(times)))


class TestWriteCacheProperties:
    @given(
        st.lists(st.integers(0, 2**14).map(lambda a: a * 4), min_size=1,
                 max_size=200)
    )
    @settings(max_examples=30, deadline=None)
    def test_transactions_never_exceed_stores(self, addresses):
        biu = BusInterfaceUnit(latency=17, occupancy=4)
        wc = WriteCache(4, 32, biu)
        for t, address in enumerate(addresses):
            wc.store(address, t)
        wc.flush(10_000)
        assert wc.stats.store_transactions <= wc.stats.store_instructions
        # coalescing can only reduce traffic to the number of dirty lines
        distinct_lines = len({a >> 5 for a in addresses})
        assert wc.stats.store_transactions >= min(distinct_lines, 1)


# ------------------------------------------------------------- timing model


def _synthetic_trace(seed: int, length: int = 400):
    """A random but structurally valid trace."""
    rng = Lcg(seed)
    records = []
    for i in range(length):
        pick = rng.next_below(10)
        pc = TEXT_BASE + 4 * (i % 200)
        if pick < 5:
            records.append((pc, int(Kind.ALU), 8 + rng.next_below(8),
                            8 + rng.next_below(8), NO_REG, 0))
        elif pick < 7:
            records.append((pc, int(Kind.LOAD), 8 + rng.next_below(8),
                            NO_REG, NO_REG, 0x10000 + 4 * rng.next_below(4096)))
        elif pick < 9:
            records.append((pc, int(Kind.STORE), NO_REG, NO_REG, 9,
                            0x10000 + 4 * rng.next_below(4096)))
        else:
            records.append((pc, int(Kind.NOP), NO_REG, NO_REG, NO_REG, 0))
    return records


class TestTimingProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_invariants_on_synthetic_traces(self, seed):
        trace = _synthetic_trace(seed)
        stats = simulate_trace(trace, BASELINE).stats
        stats.check_invariants()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_more_resources_never_hurt_much(self, seed):
        """A strictly larger machine should not be meaningfully slower."""
        trace = _synthetic_trace(seed)
        small = MachineConfig(
            name="tiny", icache_bytes=1024, dcache_bytes=16 * 1024,
            writecache_lines=2, rob_entries=2, prefetch_buffers=2,
            mshr_entries=1,
        )
        big = MachineConfig(
            name="big", icache_bytes=4096, dcache_bytes=64 * 1024,
            writecache_lines=8, rob_entries=8, prefetch_buffers=8,
            mshr_entries=4,
        )
        c_small = simulate_trace(trace, small).stats.cycles
        c_big = simulate_trace(trace, big).stats.cycles
        assert c_big <= c_small * 1.05

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_determinism(self, seed):
        trace = _synthetic_trace(seed)
        first = simulate_trace(trace, BASELINE).stats
        second = simulate_trace(trace, BASELINE).stats
        assert first.cycles == second.cycles
        assert first.stall_cycles == second.stall_cycles


class TestLcgProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_next_below_in_range(self, seed, bound):
        rng = Lcg(seed)
        for _ in range(20):
            assert 0 <= rng.next_below(bound) < bound

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_float_in_range(self, seed):
        rng = Lcg(seed)
        for _ in range(20):
            value = rng.next_float(-2.5, 7.5)
            assert -2.5 <= value <= 7.5


# --------------------------------------------------------------- scheduler


@st.composite
def random_memory_program(draw):
    """Random straight-line program mixing ALU ops, loads and stores."""
    from repro.isa.instructions import Kind  # local: keep module header lean

    asm = Assembler()
    asm.data_label("pool")
    asm.word(*range(64))
    asm.la("a0", "pool")
    for reg in ("t0", "t1", "t2", "t3", "v0", "v1"):
        asm.li(reg, draw(st.integers(-100, 100)))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(("t0", "t1", "t2", "t3", "v0", "v1")),
                st.sampled_from(("t0", "t1", "t2", "t3", "v0", "v1")),
                st.integers(0, 15),
            ),
            min_size=2,
            max_size=30,
        )
    )
    for kind, rd, rs, slot in steps:
        if kind == 0:
            asm.addu(rd, rs, rd)
        elif kind == 1:
            asm.xor(rd, rd, rs)
        elif kind == 2:
            asm.lw(rd, 4 * slot, "a0")
        else:
            asm.sw(rs, 4 * slot, "a0")
    asm.halt()
    return asm.assemble()


class TestSchedulerProperties:
    @given(random_memory_program())
    @settings(max_examples=40, deadline=None)
    def test_scheduling_preserves_architecture(self, program):
        from repro.isa.scheduler import schedule_load_use

        scheduled, _ = schedule_load_use(program)
        before = run_program(program)
        after = run_program(scheduled)
        assert before.registers == after.registers
        assert before.instructions == after.instructions
        # memory contents must match too
        for address in range(0x1000_0000, 0x1000_0000 + 64 * 4, 4):
            assert before.memory.read_word(address) == after.memory.read_word(
                address
            )

    @given(random_memory_program())
    @settings(max_examples=20, deadline=None)
    def test_disassembly_round_trip(self, program):
        from repro.isa.assembler import parse_asm
        from repro.isa.disassembler import disassemble

        reassembled = parse_asm(disassemble(program))
        assert len(reassembled.text) == len(program.text)
        for mine, theirs in zip(program.text, reassembled.text):
            assert mine.op == theirs.op
            assert mine.imm == theirs.imm
            assert mine.target == theirs.target


# ------------------------------------------------- random valid configs

#: Small registry traces covering memory, branch and FP mixes.
_MIX_TRACES = ("espresso", "li", "doduc", "ora")
_MIX_FACTOR = 0.05


def _mix_trace(name: str):
    from repro.experiments.common import scaled_trace

    return scaled_trace(name, _MIX_FACTOR)


@st.composite
def fpu_configs(draw):
    """An FPUConfig ``validate()`` accepts, with sizes and latencies
    capped so a draw simulates quickly."""
    return FPUConfig(
        issue_policy=draw(st.sampled_from(FPIssuePolicy)),
        instruction_queue=draw(st.integers(1, 8)),
        load_queue=draw(st.integers(1, 8)),
        store_queue=draw(st.integers(1, 8)),
        rob_entries=draw(st.integers(1, 8)),
        add_latency=draw(st.integers(1, 12)),
        add_pipelined=draw(st.booleans()),
        mul_latency=draw(st.integers(1, 12)),
        mul_pipelined=draw(st.booleans()),
        div_latency=draw(st.integers(1, 40)),
        cvt_latency=draw(st.integers(1, 12)),
        cvt_pipelined=draw(st.booleans()),
        result_buses=draw(st.integers(1, 4)),
    )


@st.composite
def machine_configs(draw):
    """A MachineConfig ``validate()`` accepts: any issue width, 1-entry
    structures, 4-128 byte lines, prefetch on or off, a shared or split
    pool, write validation on or off, precise or imprecise FP.  Sizes and
    latencies are capped so a draw simulates quickly."""
    line_bytes = 1 << draw(st.integers(2, 7))
    mem_latency = draw(st.integers(1, 80))
    bus_occupancy = draw(st.integers(1, 8))
    # The cross-field rule: a full write-cache drain fits in
    # MAX_DRAIN_ROUND_TRIPS memory round trips.
    drain_cap = MachineConfig.MAX_DRAIN_ROUND_TRIPS * mem_latency
    split = draw(st.booleans())
    return MachineConfig(
        name="drawn",
        issue_width=draw(st.sampled_from((1, 2))),
        icache_bytes=line_bytes << draw(st.integers(0, 8)),
        dcache_bytes=line_bytes << draw(st.integers(0, 10)),
        line_bytes=line_bytes,
        writecache_lines=draw(
            st.integers(1, min(16, drain_cap // bus_occupancy))
        ),
        rob_entries=draw(st.integers(1, 12)),
        prefetch_buffers=draw(st.integers(2 if split else 1, 12)),
        prefetch_line_depth=draw(st.integers(1, 4)),
        mshr_entries=draw(st.integers(1, 8)),
        mem_latency=mem_latency,
        dcache_latency=draw(st.integers(1, 6)),
        bus_occupancy=bus_occupancy,
        retire_width=draw(st.integers(1, 4)),
        prefetch_enabled=draw(st.booleans()),
        branch_folding=draw(st.booleans()),
        write_validation=draw(st.booleans()),
        page_bytes=max(line_bytes, 1 << draw(st.integers(8, 13))),
        split_prefetch_pool=split,
        fpu_precise_exceptions=draw(st.booleans()),
        fpu=draw(fpu_configs()),
    )


class _MshrRuleSink:
    """Checks each ``mshr`` event against the MSHR rule as it arrives:
    every slot is below the file's size, an entry is never allocated
    before its previous release, and a release never precedes its
    allocation (a load's events may interleave with others, but never
    with another MSHR hold)."""

    def __init__(self, entries: int) -> None:
        self.free_at = [0] * entries
        self.open = None
        self.holds = 0

    def record(self, event) -> None:
        if event.kind is EventKind.MSHR_ALLOC:
            slot = event.fields["slot"]
            assert self.open is None
            assert 0 <= slot < len(self.free_at)
            assert event.cycle >= self.free_at[slot]
            self.open = (slot, event.cycle)
        elif event.kind is EventKind.MSHR_RELEASE:
            slot, allocated = self.open
            assert event.fields["slot"] == slot
            assert event.cycle >= allocated
            self.free_at[slot] = event.cycle
            self.open = None
            self.holds += 1


class TestRandomConfigProperties:
    @given(machine_configs())
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_on_any_valid_config(self, config):
        for name in _MIX_TRACES:
            trace = _mix_trace(name)
            stats = AuroraProcessor(config).run(trace).stats
            stats.check_invariants()
            assert stats.instructions == len(trace)

    @given(machine_configs(), st.integers(1, 80), st.sampled_from(_MIX_TRACES))
    @settings(max_examples=50, deadline=None)
    def test_cycles_never_fall_as_memory_latency_rises(
        self, config, extra, name
    ):
        trace = _mix_trace(name)
        slower = config.with_(mem_latency=config.mem_latency + extra)
        fast = AuroraProcessor(config).run(trace).stats.cycles
        slow = AuroraProcessor(slower).run(trace).stats.cycles
        assert slow >= fast

    @given(machine_configs(), st.sampled_from(_MIX_TRACES))
    @settings(max_examples=20, deadline=None)
    def test_mshr_slots_never_reused_before_release(self, config, name):
        trace = _mix_trace(name)
        sink = _MshrRuleSink(config.mshr_entries)
        stats = AuroraProcessor(config, telemetry=EventBus(sink)).run(
            trace
        ).stats
        assert sink.holds == stats.loads + stats.stores

    @given(
        st.lists(machine_configs(), min_size=1, max_size=3),
        st.sampled_from(_MIX_TRACES),
        st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_simulate_many_matches_fresh_runs(self, drawn, name, data):
        trace = _mix_trace(name)
        # Duplicates, and variants differing only in FPU fields of units
        # the trace may not exercise: simulate_many answers them from
        # one simulation, which must equal a fresh run of each config.
        variants = [
            config.with_(fpu=config.fpu.with_(
                div_latency=data.draw(st.integers(1, 40)),
                mul_pipelined=not config.fpu.mul_pipelined,
            ))
            for config in drawn
        ]
        configs = drawn + variants + drawn[:1]
        configs = data.draw(st.permutations(configs))
        results = simulate_many(trace, configs)
        assert [r.config for r in results] == configs
        for config, result in zip(configs, results):
            assert result.stats == AuroraProcessor(config).run(trace).stats


#: Cheap factor-0.05 traces for the capacity certificate, integer and FP.
_CERTIFY_TRACES = ("eqntott", "hydro2d", "ora", "su2cor")


def _with_capacity(config: MachineConfig, field: str, value: int):
    """``config`` with one of ``CAPACITY_FIELDS`` set to ``value``."""
    if field == "mshr_entries":
        return config.with_(mshr_entries=value)
    return config.with_(fpu=config.fpu.with_(**{field[4:]: value}))


class TestCapacityCertificate:
    """``SimulationResult.unfilled`` is sound: a capacity a run never
    filled gives identical stats at every larger size."""

    @pytest.mark.parametrize("field", CAPACITY_FIELDS)
    @given(
        config=machine_configs(),
        name=st.sampled_from(_CERTIFY_TRACES),
        small=st.integers(1, 8),
        extra=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_scaled_traces(self, field, config, name, small, extra):
        trace = _mix_trace(name)
        first = AuroraProcessor(_with_capacity(config, field, small)).run(
            trace
        )
        if field in first.unfilled:
            larger = _with_capacity(config, field, small + extra)
            second = AuroraProcessor(larger).run(trace)
            assert second.stats == first.stats
            assert second.unfilled == first.unfilled

    def test_load_queue_counts_trimmed_entries(self):
        # FP load data arrives out of order (misses behind hits), so a
        # 4-entry queue's head can be a late miss the 3-entry queue had
        # already trimmed: the larger queue stalls more, and the smaller
        # one must not be certified although its own head never bound.
        loads = [
            (int(Kind.LOAD), 8, 0x10000),
            (int(Kind.LOAD), 8, 0x10020),
            (int(Kind.FP_LOAD), 42, 0x80300),
            (int(Kind.FP_LOAD), 44, 0x10060),
            (int(Kind.FP_LOAD), 44, 0x10080),
            (int(Kind.FP_LOAD), 46, 0x82B40),
            (int(Kind.FP_LOAD), 36, 0x10000),
            (int(Kind.FP_LOAD), 44, 0x100E0),
        ]
        trace = [
            (TEXT_BASE + 4 * i, kind, dst, 29, NO_REG, addr)
            for i, (kind, dst, addr) in enumerate(loads)
        ]
        config = BASELINE.with_(mshr_entries=4)
        three, four = (
            AuroraProcessor(_with_capacity(config, "fpu.load_queue", n)).run(
                trace
            )
            for n in (3, 4)
        )
        assert four.stats != three.stats
        assert "fpu.load_queue" not in three.unfilled


def test_direct_mapped_icache_inclusion():
    """At a fixed line size, every access that hits in a direct-mapped
    I-cache of S lines also hits in one of 2S lines."""
    from repro.func.prepared import prepare_trace
    from repro.workloads import FP_SUITE, INTEGER_SUITE

    for name in INTEGER_SUITE + FP_SUITE:
        # A private copy, so the memoized miss flags die with it.
        trace = prepare_trace(_mix_trace(name).array)
        for shift in range(2, 8):
            ilines = np.right_shift(trace.pc, shift)
            span = int(ilines.max() - ilines.min()) + 1
            smaller, _ = trace.icache_misses(shift, 1)
            lines = 2
            while True:
                larger, _ = trace.icache_misses(shift, lines)
                small_miss = np.frombuffer(smaller, dtype=np.uint8)
                large_miss = np.frombuffer(larger, dtype=np.uint8)
                assert not np.any(large_miss & ~small_miss), (
                    name, shift, lines
                )
                if lines >= span:
                    break  # no two lines share a set any more
                smaller = larger
                lines *= 2
