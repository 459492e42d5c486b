"""Integration tests for the Aurora III timing model.

Synthetic traces with known properties pin down issue, stall and memory
behaviour; the workload fixtures exercise the full machine.
"""

import pytest

from repro.core.config import BASELINE, LARGE, SMALL, MachineConfig
from repro.core.processor import simulate_trace
from repro.core.stats import StallKind
from repro.func.trace import NO_REG
from repro.isa.instructions import Kind
from repro.isa.program import TEXT_BASE

ALU = int(Kind.ALU)
LOAD = int(Kind.LOAD)
STORE = int(Kind.STORE)
BRANCH = int(Kind.BRANCH)
JUMP = int(Kind.JUMP)
NOP = int(Kind.NOP)


def alu(pc, dst=NO_REG, s1=NO_REG, s2=NO_REG):
    return (TEXT_BASE + 4 * pc, ALU, dst, s1, s2, 0)


def load(pc, dst, base_reg, addr):
    return (TEXT_BASE + 4 * pc, LOAD, dst, base_reg, NO_REG, addr)


def store(pc, s_data, addr):
    return (TEXT_BASE + 4 * pc, STORE, NO_REG, NO_REG, s_data, addr)


def independent_alu_trace(count, wrap=128):
    """ALU ops with no dependencies; pcs loop over a small code footprint."""
    return [alu(i % wrap, dst=(i % 8) + 8) for i in range(count)]


def dependent_alu_trace(count, wrap=128):
    """Every op reads the previous op's destination."""
    records = []
    for i in range(count):
        dst = (i % 2) + 8
        src = ((i + 1) % 2) + 8
        records.append(alu(i % wrap, dst=dst, s1=src))
    return records


class TestIssueBandwidth:
    def test_dual_issue_halves_alu_cpi(self):
        trace = independent_alu_trace(10000)
        dual = simulate_trace(trace, BASELINE.dual_issue()).stats
        single = simulate_trace(trace, BASELINE.single_issue()).stats
        assert dual.cpi == pytest.approx(0.5, abs=0.1)
        assert single.cpi == pytest.approx(1.0, abs=0.1)

    def test_dependent_chain_cannot_pair(self):
        trace = dependent_alu_trace(2000)
        dual = simulate_trace(trace, BASELINE.dual_issue()).stats
        assert dual.cpi == pytest.approx(1.0, abs=0.1)
        assert dual.dual_issued_pairs < 20

    def test_pairing_requires_alignment(self):
        # all instructions at odd word slots cannot be the even half
        trace = [alu(2 * i + 1, dst=8) for i in range(1000)]
        dual = simulate_trace(trace, BASELINE.dual_issue()).stats
        assert dual.cpi >= 0.95

    def test_two_memory_ops_never_pair(self):
        trace = []
        for i in range(0, 1000, 2):
            trace.append(load(i, 8, NO_REG, 0x1000))
            trace.append(load(i + 1, 9, NO_REG, 0x1000))
        stats = simulate_trace(trace, LARGE.dual_issue()).stats
        # one memory port: at most one per cycle
        assert stats.cpi >= 0.95


class TestLoadBehaviour:
    def test_load_use_stall_matches_dcache_latency(self):
        # load; dependent ALU; repeat (always hitting after warmup)
        trace = []
        pc = 0
        for _ in range(500):
            trace.append(load(pc, 8, NO_REG, 0x1000))
            trace.append(alu(pc + 1, dst=9, s1=8))
            pc += 2
        stats = simulate_trace(trace, LARGE.dual_issue()).stats
        # each load-use pair costs ~(1 + dcache_latency + 1) cycles:
        # address generation, the pipelined 3-cycle array, use
        assert stats.cpi == pytest.approx(2.5, abs=0.4)
        assert stats.stall_cycles[StallKind.LOAD] > 0

    def test_independent_work_hides_load_latency(self):
        trace = []
        pc = 0
        for _ in range(400):
            trace.append(load(pc, 8, NO_REG, 0x1000))
            for k in range(6):
                trace.append(alu(pc + 1 + k, dst=10 + k))
            trace.append(alu(pc + 7, dst=9, s1=8))
            pc += 8
        stats = simulate_trace(trace, LARGE.dual_issue()).stats
        assert stats.cpi < 1.0  # latency overlapped with the filler ops

    def test_miss_costs_memory_latency(self):
        # march through memory: every 8th load misses a 32-byte line
        trace = [
            load(i, 8, NO_REG, 0x10000 + 4 * i) for i in range(2000)
        ]
        fast = simulate_trace(trace, LARGE.with_latency(17).without_prefetch()).stats
        slow = simulate_trace(trace, LARGE.with_latency(35).without_prefetch()).stats
        assert slow.cycles > fast.cycles
        assert fast.dcache_hit_rate == pytest.approx(7 / 8, abs=0.02)

    def test_prefetch_hides_sequential_misses(self):
        trace = [
            load(i, 8, NO_REG, 0x10000 + 4 * i) for i in range(2000)
        ]
        with_pf = simulate_trace(trace, LARGE).stats
        without = simulate_trace(trace, LARGE.without_prefetch()).stats
        assert with_pf.cycles < without.cycles
        assert with_pf.dprefetch_hits > 0


class TestMshrEffects:
    def test_single_mshr_serialises_even_hits(self):
        trace = [load(i, (i % 8) + 8, NO_REG, 0x1000) for i in range(1000)]
        one = simulate_trace(trace, LARGE.with_mshrs(1)).stats
        four = simulate_trace(trace, LARGE.with_mshrs(4)).stats
        assert one.cycles > 1.5 * four.cycles
        assert one.stall_cycles[StallKind.LSU] > 0

    def test_miss_overlap_with_multiple_mshrs(self):
        # strided loads: every access a different line (all miss)
        trace = [load(i, 8, NO_REG, 0x10000 + 64 * i) for i in range(500)]
        config = LARGE.without_prefetch()
        one = simulate_trace(trace, config.with_mshrs(1)).stats
        four = simulate_trace(trace, config.with_mshrs(4)).stats
        assert four.cycles < one.cycles


class TestStoresAndWriteCache:
    def test_sequential_stores_coalesce(self):
        trace = [store(i, 9, 0x10000 + 4 * i) for i in range(800)]
        stats = simulate_trace(trace, BASELINE).stats
        # 8 words per line -> at most ~1/8 of stores go off chip
        assert stats.store_traffic_ratio < 0.25
        assert stats.writecache_hit_rate > 0.8

    def test_scattered_stores_thrash_small_write_cache(self):
        trace = [store(i, 9, 0x10000 + 256 * i) for i in range(800)]
        small_wc = simulate_trace(trace, SMALL).stats
        assert small_wc.store_traffic_ratio > 0.9

    def test_store_counts(self):
        trace = [store(i, 9, 0x1000) for i in range(100)]
        stats = simulate_trace(trace, BASELINE).stats
        assert stats.stores == 100
        assert stats.store_instructions == 100


class TestFetchSide:
    def test_code_fitting_in_icache_hits(self, counting_trace):
        stats = simulate_trace(counting_trace, BASELINE).stats
        assert stats.icache_hit_rate > 0.99

    def test_large_code_footprint_misses(self):
        # 8 KB straight-line code re-run twice > any model's I-cache
        big = [alu(i, dst=8) for i in range(2048)] * 2
        small_stats = simulate_trace(big, SMALL).stats
        large_stats = simulate_trace(big, LARGE).stats
        assert small_stats.icache_hit_rate < 1.0
        assert small_stats.stall_cycles[StallKind.ICACHE] > 0
        assert large_stats.cycles <= small_stats.cycles

    def test_branch_folding_removes_taken_penalty(self):
        # tight taken-branch loop (branch, delay slot) x many
        trace = []
        for i in range(600):
            target = TEXT_BASE
            trace.append((TEXT_BASE, BRANCH, NO_REG, 8, NO_REG, target))
            trace.append((TEXT_BASE + 4, NOP, NO_REG, NO_REG, NO_REG, 0))
        folded = simulate_trace(trace, BASELINE.single_issue()).stats
        unfolded = simulate_trace(
            trace, BASELINE.single_issue().with_(branch_folding=False)
        ).stats
        assert unfolded.cycles > folded.cycles

    def test_register_jumps_always_pay_redirect(self):
        trace = []
        for i in range(0, 900, 3):
            # jr (register jump), delay slot, landing pad
            trace.append((TEXT_BASE + 4 * i, JUMP, NO_REG, 31, NO_REG,
                          TEXT_BASE + 4 * (i + 2)))
            trace.append(alu(i + 1))
            trace.append(alu(i + 2))
        stats = simulate_trace(trace, BASELINE.single_issue()).stats
        assert stats.cpi > 1.0  # the redirect bubble is visible

    @pytest.mark.parametrize("issue", ["single_issue", "dual_issue"])
    def test_back_to_back_taken_jumps_both_pay_redirect(self, issue):
        # Regression: two taken register jumps are in flight at once (the
        # second in the first one's shadow); a scalar pending-redirect
        # slot let the second overwrite the first, silently dropping the
        # first bubble.  The traces below are identical except for the
        # first jump's taken-target field, so any cycle difference is
        # exactly that bubble: the load at the first redirect's landing
        # index issues a cycle later, and its dependent use follows.
        def jump(pc, taken):
            target = TEXT_BASE + 4 * (pc + 2) if taken else 0
            return (TEXT_BASE + 4 * pc, JUMP, NO_REG, 31, NO_REG, target)

        def probe(first_taken):
            return [
                jump(0, first_taken),
                jump(1, True),
                load(2, 8, NO_REG, 0x1000),
                alu(3, dst=9, s1=8),
                alu(4),
            ]

        config = getattr(BASELINE, issue)().without_prefetch()
        both_taken = simulate_trace(probe(True), config).stats.cycles
        first_untaken = simulate_trace(probe(False), config).stats.cycles
        assert both_taken > first_untaken


class TestInflightFillTracking:
    def test_bound_crossing_never_double_requests_pending_line(
        self, monkeypatch
    ):
        # Regression: crossing INFLIGHT_BOUND distinct D-lines wholesale-
        # cleared the in-flight fill map, forgetting fills still on the
        # bus; re-touching such a line issued a second BIU read for data
        # already in flight.  With correct tracking every distinct line
        # is read exactly once: the final re-load of line A must join
        # A's pending fill (A was evicted by an aliasing line, and the
        # line that crosses the bound lands while A's fill is in flight).
        import repro.core.processor as proc_module
        from repro.core.processor import INFLIGHT_BOUND

        counted = {"dread": 0}

        class CountingBIU(proc_module.BusInterfaceUnit):
            def request(self, time, kind):
                if kind == "dread":
                    counted["dread"] += 1
                return super().request(time, kind)

        line_size = 32
        sets = 1024  # 32 KB direct-mapped dcache
        trace = []
        pc = 0
        lines = set()
        k = 1
        # Warm up to INFLIGHT_BOUND - 2 distinct lines, none mapping to
        # set 0 (where the critical lines live).
        while len(lines) < INFLIGHT_BOUND - 2:
            if k % sets != 0:
                trace.append(load(pc, (pc % 8) + 8, NO_REG, k * line_size))
                lines.add(k)
                pc += 1
            k += 1
        # Drain the ROB so the critical tail issues back-to-back.
        for j in range(12):
            trace.append(alu(pc, dst=16 + (j % 8)))
            pc += 1
        line_a = 0
        alias = sets * line_size  # same set as A: evicts it
        crosser = (k + 7) * line_size  # crosses the bound while A fills
        for addr in (line_a, alias, crosser, line_a):
            trace.append(load(pc, (pc % 8) + 8, NO_REG, addr))
            pc += 1
        lines |= {0, sets, k + 7}

        monkeypatch.setattr(proc_module, "BusInterfaceUnit", CountingBIU)
        config = BASELINE.without_prefetch().with_mshrs(8).with_latency(200)
        simulate_trace(trace, config)
        # one read per distinct line; the buggy clear() produced one more
        assert counted["dread"] == len(lines)


class TestConflictReMiss:
    @pytest.mark.xfail(
        strict=True,
        reason="known model bug: a D-cache conflict re-miss of a line "
        "filled earlier is served from the stale in-flight fill map, "
        "with no memory access and no refill",
    )
    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_conflict_remiss_costs_a_full_miss(self, kernel):
        # Load A, evict it with B (same set), reload A; the reload must
        # cost what a miss to a never-touched line C costs.
        from repro.core.kernel import get_kernel

        line_a = 0x100000
        line_b = line_a + BASELINE.dcache_bytes
        line_c = line_a + 4096

        def load_stalls(third):
            trace = [
                load(0, 8, NO_REG, line_a),
                alu(1, dst=20, s1=8),
                load(2, 9, NO_REG, line_b),
                alu(3, dst=20, s1=9),
                load(4, 10, NO_REG, third),
                alu(5, dst=20, s1=10),
            ]
            stats = get_kernel(kernel).simulate_many(trace, [BASELINE])[0].stats
            return stats.stall_cycles[StallKind.LOAD]

        assert load_stalls(line_a) == load_stalls(line_c)


class TestStatsIntegrity:
    @pytest.mark.parametrize("model_name", ["small", "baseline", "large"])
    def test_invariants_on_real_workload(
        self, model_name, espresso_trace_small, models
    ):
        model = {m.name: m for m in models}[model_name]
        stats = simulate_trace(espresso_trace_small, model).stats
        stats.check_invariants()
        assert stats.instructions == len(espresso_trace_small)
        assert stats.cycles >= stats.instructions / 2  # issue width bound

    def test_fp_workload_invariants(self, fp_trace_small, models):
        for model in models:
            stats = simulate_trace(fp_trace_small, model).stats
            stats.check_invariants()
            assert stats.fp_instructions > 0

    def test_violated_invariant_raises_real_exception(self):
        # Regression: bare asserts made check_invariants a no-op under
        # python -O; it must raise an explicit exception type.
        from repro.core.stats import InvariantError, SimStats

        stats = SimStats(instructions=100, cycles=50)
        stats.icache_hits = 10
        stats.icache_accesses = 5  # more hits than accesses
        with pytest.raises(InvariantError, match="icache hits"):
            stats.check_invariants()
        # back-compat: callers that caught the old assert failures
        assert issubclass(InvariantError, AssertionError)

    def test_negative_cycles_violates_invariant(self):
        from repro.core.stats import InvariantError, SimStats

        with pytest.raises(InvariantError, match="negative cycles"):
            SimStats(instructions=1, cycles=-1).check_invariants()

    def test_monotone_in_memory_latency(self, espresso_trace_small):
        cycles = [
            simulate_trace(espresso_trace_small, BASELINE.with_latency(lat)).stats.cycles
            for lat in (5, 17, 35, 70)
        ]
        assert cycles == sorted(cycles)

    def test_model_ordering_on_real_workload(self, espresso_trace_small, models):
        small, baseline, large = models
        cpis = [
            simulate_trace(espresso_trace_small, m.dual_issue()).stats.cpi
            for m in (small, baseline, large)
        ]
        assert cpis[0] >= cpis[1] >= cpis[2]

    def test_summary_renders(self, counting_trace):
        stats = simulate_trace(counting_trace, BASELINE).stats
        text = stats.summary()
        assert "CPI" in text and "instructions" in text

    def test_empty_trace(self):
        stats = simulate_trace([], BASELINE).stats
        assert stats.instructions == 0
        assert stats.cpi == 0.0

    def test_result_carries_config(self, counting_trace):
        result = simulate_trace(counting_trace, SMALL)
        assert result.config is SMALL
        assert result.cpi == result.stats.cpi
