"""Integration tests for the Aurora III timing model.

Synthetic traces with known properties pin down issue, stall and memory
behaviour; the workload fixtures exercise the full machine.
"""

import hashlib
import io
import json
import pathlib

import pytest

from repro.core.config import BASELINE, LARGE, SMALL, FPIssuePolicy, MachineConfig
from repro.core.processor import AuroraProcessor, simulate_trace
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
    def test_conflict_remiss_costs_a_full_miss(self):
        # Load A, evict it with B (same set), reload A; the reload must
        # cost what a miss to a never-touched line C costs.
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
            stats = simulate_trace(trace, BASELINE).stats
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


# ------------------------------------------------------------ pinned digests
#
# SHA-256 of ``SimStats.to_dict()`` JSON and of full NDJSON telemetry
# streams on machine points the paper sweep never reaches, generated
# before the timing loop's structure calls were folded.  A digest change
# means the model's timing changed.

_PINNED_FACTOR = 0.05
_PINNED_INT = ("espresso", "li")
_PINNED_FP = ("ear", "mdljdp2", "ora")


def _fpu_point(**changes):
    # Tight FPU queues put every backpressure path on the timing path.
    fpu = BASELINE.fpu.with_(
        instruction_queue=2, load_queue=1, store_queue=1, rob_entries=3
    )
    return BASELINE.with_(fpu=fpu.with_(**changes))


_PINNED_FP_CONFIGS = {
    f"fpu-{policy.value}-buses{buses}": _fpu_point(
        issue_policy=policy, result_buses=buses
    )
    for policy in FPIssuePolicy
    for buses in (1, 2)
}
_PINNED_FP_CONFIGS["fpu-precise"] = _fpu_point().with_(
    fpu_precise_exceptions=True
)
_PINNED_FP_CONFIGS["fpu-unpipelined"] = _fpu_point(
    add_pipelined=False, mul_pipelined=False, cvt_pipelined=False
)
_PINNED_MEM_CONFIGS = {
    "mshr1-wc1": BASELINE.with_(mshr_entries=1, writecache_lines=1),
    "no-validation": BASELINE.with_(write_validation=False),
    "no-prefetch": BASELINE.without_prefetch().with_latency(35),
    "split-pool": BASELINE.with_(split_prefetch_pool=True),
    "line16": BASELINE.with_(line_bytes=16),
    "line64": BASELINE.with_(line_bytes=64, mshr_entries=3),
    "width1": BASELINE.single_issue().with_(writecache_lines=2),
    # One line per page: every store miss outside a resident line's
    # page validates, and the victim's own page is the only match.
    "page32": BASELINE.with_(page_bytes=32),
    # Eight lines share 64 KB pages: page matches on lines other than
    # the one hit, across many victims.
    "wc8-page64k": BASELINE.with_(writecache_lines=8, page_bytes=65536),
}


def _pinned_points():
    """(trace name, config name, config) for every pinned run."""
    points = []
    for trace_name in _PINNED_INT + _PINNED_FP:
        for name, config in _PINNED_MEM_CONFIGS.items():
            points.append((trace_name, name, config))
    for trace_name in _PINNED_FP:
        for name, config in _PINNED_FP_CONFIGS.items():
            points.append((trace_name, name, config))
    return points


def _stats_digest(stats):
    return hashlib.sha256(json.dumps(stats.to_dict()).encode()).hexdigest()


def _pinned_stats_digests(trace_names):
    from repro.experiments.common import scaled_trace

    digests = {}
    points = _pinned_points()
    for trace_name in trace_names:
        trace = scaled_trace(trace_name, _PINNED_FACTOR)
        for t, name, config in points:
            if t == trace_name:
                stats = AuroraProcessor(config).run(trace).stats
                digests[f"{trace_name}/{name}"] = _stats_digest(stats)
    return digests


_TELEMETRY_POINTS = {
    "espresso/baseline": ("espresso", BASELINE),
    "espresso/mshr1-wc1": ("espresso", _PINNED_MEM_CONFIGS["mshr1-wc1"]),
    "ear/baseline": ("ear", BASELINE),
    "ear/fpu-in_order": (
        "ear",
        BASELINE.with_(
            fpu=BASELINE.fpu.with_(
                issue_policy=FPIssuePolicy.IN_ORDER_COMPLETION
            )
        ),
    ),
}


def _telemetry_digest(trace_name, config):
    from repro.experiments.common import scaled_trace
    from repro.telemetry.events import EventBus, NDJSONSink

    buffer = io.StringIO()
    simulate_trace(
        scaled_trace(trace_name, _PINNED_FACTOR),
        config,
        telemetry=EventBus(NDJSONSink(buffer)),
    )
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


PINNED_STATS_DIGESTS = {
    "espresso/mshr1-wc1": (
        "f5ce47ac61cee29867e77b93d5888644d7b3fbe7e129e68ba4377d3a0f22ebac"
    ),
    "espresso/no-validation": (
        "4504fa0c9d66c70405327855ac36a562785274c8ebf3c5423ba97eb80ebce13d"
    ),
    "espresso/no-prefetch": (
        "7fc3e37bfd4d740944aaf6851cb7119a8671ab5b4536fa9cf9128cba291a1243"
    ),
    "espresso/split-pool": (
        "f2539c89ce502db5e135152960075bfe72699abb1aae8c991d83828231b17a5c"
    ),
    "espresso/line16": (
        "969a79da5906f3256e88e7256274f5e5ce0c290abb2592aabed1a3fe38245beb"
    ),
    "espresso/line64": (
        "bafb8cd56a9e8ee7ba0e8e381ea427506d0e47a6e33d3a809051dfe953db156f"
    ),
    "espresso/width1": (
        "573daf9d7145a5bfb6ca5dbbb28bb97c8245e1c2af5e9ad5fef89e448c170a6b"
    ),
    "li/mshr1-wc1": (
        "1f66ba4c2a1417a23175efc6767cfa4eb02d48eed15859c9c2a3ad7a48202dad"
    ),
    "li/no-validation": (
        "0a8f5c78f532e8800fb4c923804694724baaf06a90f183bf1fca751aa949f9b1"
    ),
    "li/no-prefetch": (
        "6e840f7a7fa0eadb19d2e079453555e5a38afb6773db23566f7b178be9aede20"
    ),
    "li/split-pool": (
        "6709c5fc617081a8e5f75cc0ad82ed4dfb7edbb8aa20f387ffeab0fe43957477"
    ),
    "li/line16": (
        "9c7ad530f8c7c090462b46cf43425a517c3de27444c316d4b242910dfaa88d04"
    ),
    "li/line64": (
        "b685a9e38b6d446821d73d69e990a0e70e077902480c8a09726a48210541540a"
    ),
    "li/width1": (
        "68569b0f4878b1918a061aa82cf8473a7d0a98e40ee028ee443b3e40b0ad7272"
    ),
    "ear/mshr1-wc1": (
        "b727ae134b43b19bbaa6197a0f3c7f1e036fc3a4eba4f41e0839953dc4d942be"
    ),
    "ear/no-validation": (
        "df2b953c115e369ec2af3214991a0e822fabd2a1f3034fd56997ba257c99531f"
    ),
    "ear/no-prefetch": (
        "166931d02094b22607936e87559edc951ba0cef3a54e6504f0704f8664b76aa5"
    ),
    "ear/split-pool": (
        "41c5269273c1c13f0ce9ef82868ec6aa072eebd8d8919f94e98d98bce97cc019"
    ),
    "ear/line16": (
        "55ae58a26a62bd81b224e66215f7fe4d6895b62f97117f10d9b9bffb5ec38b95"
    ),
    "ear/line64": (
        "0377ed4e31f3b80b9c10aaf76b80ea2aa93b690be0301fe48cc79b050878ca6d"
    ),
    "ear/width1": (
        "e07c52435c59017919ec1b42739c2ab0ddf3ebb6051c0427601bae3d2a0e3aac"
    ),
    "ear/fpu-in_order-buses1": (
        "60b52d346ead910b88e5a17ae8694727166d38754dff6999b74fef6078b05fad"
    ),
    "ear/fpu-in_order-buses2": (
        "60b52d346ead910b88e5a17ae8694727166d38754dff6999b74fef6078b05fad"
    ),
    "ear/fpu-single-buses1": (
        "f8a7843814ecc0a805079c21e9b1535bb55dd75d04de0495d3734ff45666e081"
    ),
    "ear/fpu-single-buses2": (
        "f8a7843814ecc0a805079c21e9b1535bb55dd75d04de0495d3734ff45666e081"
    ),
    "ear/fpu-dual-buses1": (
        "8aad0b13435931f527d7d3681095a91a901cfc516cb727d2611dd01d9f2b5132"
    ),
    "ear/fpu-dual-buses2": (
        "8aad0b13435931f527d7d3681095a91a901cfc516cb727d2611dd01d9f2b5132"
    ),
    "ear/fpu-precise": (
        "8468a87733b412897de16aea593cbf7b468d62b0a1d456607ee87e525094c0f0"
    ),
    "ear/fpu-unpipelined": (
        "8aad0b13435931f527d7d3681095a91a901cfc516cb727d2611dd01d9f2b5132"
    ),
    "mdljdp2/mshr1-wc1": (
        "bd8377c5bcde09e22a083be039f81e41e7e85dd28fe91dbb62835f922fbe7609"
    ),
    "mdljdp2/no-validation": (
        "a008b0d2a276c582e8c1cf56b2b8fcb149356c59f4da1a063a2a40a332a87175"
    ),
    "mdljdp2/no-prefetch": (
        "c27da41ab8966deea9d01691a5073f02907c153172c90c0f7fd254e38262e65c"
    ),
    "mdljdp2/split-pool": (
        "a008b0d2a276c582e8c1cf56b2b8fcb149356c59f4da1a063a2a40a332a87175"
    ),
    "mdljdp2/line16": (
        "69de85efba8a59831c406cf788667d30c8b48d271e4a9d60c79ad1aa7c32142f"
    ),
    "mdljdp2/line64": (
        "5082f5ecd74bba1fa675f0c3ac69112e35f61706d65cbce67bf950c21b49f0ce"
    ),
    "mdljdp2/width1": (
        "210fb756634cefea864133c8ccfeb202850fca9d67000bdb6fdec6e0ff9e955c"
    ),
    "mdljdp2/fpu-in_order-buses1": (
        "df7c53c5cd53ba5e643235d4fb61770d96056b3d4278f9511949154f4dc5f634"
    ),
    "mdljdp2/fpu-in_order-buses2": (
        "df7c53c5cd53ba5e643235d4fb61770d96056b3d4278f9511949154f4dc5f634"
    ),
    "mdljdp2/fpu-single-buses1": (
        "167b7544d601a8616c1c92ec9fceeff58e827069ed8c58287d8740560eb53450"
    ),
    "mdljdp2/fpu-single-buses2": (
        "167b7544d601a8616c1c92ec9fceeff58e827069ed8c58287d8740560eb53450"
    ),
    "mdljdp2/fpu-dual-buses1": (
        "8010921dbd02168ddd575c32d96489e2a6efae080a5ee8897338f2e4b429ce70"
    ),
    "mdljdp2/fpu-dual-buses2": (
        "491c8ef025beb7176c8a4728d80aed7f9196de042121ba5eff6039389215839f"
    ),
    "mdljdp2/fpu-precise": (
        "f5f4eb798c5fd1a417308a65648fc954522a513003a1c23ff125e6b50c3520b8"
    ),
    "mdljdp2/fpu-unpipelined": (
        "d8d2c16e1022bd7eaf9114ac062db20a60c2b0fdc5e65bfd3a4dccc20d09d0bf"
    ),
    "ora/mshr1-wc1": (
        "c2007688fbb619e57eb41c44a6260c51c5818afdc806c69ca7c6273953cd31cf"
    ),
    "ora/no-validation": (
        "d22f2a2a1ffef75070eb6ac69f88b8017273826cf3edc975b46e653a980fb032"
    ),
    "ora/no-prefetch": (
        "a2b8e833b4a13a63074b57aa9803931db6de2a165f4a3e71cb5fb4b8d6529827"
    ),
    "ora/split-pool": (
        "f0c97376ca2586afd8ecdc7a77ea402dd5da03d16068ba2d8657e3678015e95c"
    ),
    "ora/line16": (
        "a1118a40c55a97cf005b6de89a8330ed1c49785d6428fa22f3f8c23201f04879"
    ),
    "ora/line64": (
        "335f6e2164ae7cfb1081320a88ceb52967ec26725ac5bb8ade13c63c865ed63c"
    ),
    "ora/width1": (
        "ff1a4d4dd3c5934c9f98af07e41b687375cdfcba90c619fefdd1b15e462fd0d0"
    ),
    "ora/fpu-in_order-buses1": (
        "8cc806122011d100e0d7d0c86781d8b3bd7533a9461e17d15f8d8ef324495de0"
    ),
    "ora/fpu-in_order-buses2": (
        "8cc806122011d100e0d7d0c86781d8b3bd7533a9461e17d15f8d8ef324495de0"
    ),
    "ora/fpu-single-buses1": (
        "16068e50c14a02f6598967f6e1f684528bb60f57e94e8b56802f4a3562bf2bad"
    ),
    "ora/fpu-single-buses2": (
        "16068e50c14a02f6598967f6e1f684528bb60f57e94e8b56802f4a3562bf2bad"
    ),
    "ora/fpu-dual-buses1": (
        "7dfec17e56c48a355ee77d47f425153ae33a60e347bcf2459b1c5b4be119527c"
    ),
    "ora/fpu-dual-buses2": (
        "a9fa54222476f1493395e3263baae6ac1368e9dc5314b071814b3dc786b59e3d"
    ),
    "ora/fpu-precise": (
        "f5cd21761bd025472dd5373c4f2101104481e7845c32841497500aae62021998"
    ),
    "ora/fpu-unpipelined": (
        "a0e6b19233419fb1f260ece8675c42c516084aa87f122de7dbb48b50717b596e"
    ),
    "ear/page32": (
        "05ee9ba17ba78754399c6932a064978db86e7e627c463c777c61b01d5f612c09"
    ),
    "ear/wc8-page64k": (
        "02fc456de7beebdbe18347e525f86999c328d6df73dcf87de890e146187b9049"
    ),
    "espresso/page32": (
        "d44e78d3a2f5ae68a0f930732010dd52b60b7438f661ea8d6387f0895df6453b"
    ),
    "espresso/wc8-page64k": (
        "57fc268c60090b9937bf9606da6243b202e6acdc5ce77a8a146060a192bbc0da"
    ),
    "li/page32": (
        "b338a590ff044697cb49f55cba559fc1356f07425cd1c5de1bf114cc41175799"
    ),
    "li/wc8-page64k": (
        "9b27e71bd7e75e4199e11448d31742c952dfb20ea943a894f5f3902c6aa6c97c"
    ),
    "mdljdp2/page32": (
        "21e87744f9666e16ef9bd562e22eaecc7819c5978b3739150cf722fe465c3fed"
    ),
    "mdljdp2/wc8-page64k": (
        "f82dca3bab19c7961c657a36ba11a0134bf20d592af2d946080c7e3445dc33c1"
    ),
    "ora/page32": (
        "8c470ccdec074f77f8c470c5f5abeb0c346a42c84e0625f2a8e5e81f78f7a754"
    ),
    "ora/wc8-page64k": (
        "59d92339ebc012f75aa3d18d0efaa33718d4f6dfeefeea8bf814e7fc5e03892e"
    ),
}

PINNED_TELEMETRY_DIGESTS = {
    "ear/baseline": (
        "e05c2ce2848aa8a1b245e99ca9e514d29c3a66734a04e9380fd8e805135d5314"
    ),
    "ear/fpu-in_order": (
        "9cd68ab6104cd06d16a112117c0a8707ef928cd3a0bea92d2f51e5a8cd287772"
    ),
    "espresso/baseline": (
        "5387dfae9bb1332a22b956d9b1533cb37a4929c06dc3f0a198f9b88f08678daa"
    ),
    "espresso/mshr1-wc1": (
        "a181828a0d3eb60035dbe03dda1366d72bfd5fb65014f1bfae64f9870beed378"
    ),
}


class TestPinnedDigests:
    def test_stats_digests_are_pinned(self):
        digests = _pinned_stats_digests(_PINNED_INT + _PINNED_FP)
        assert digests == PINNED_STATS_DIGESTS

    @pytest.mark.parametrize("point", sorted(_TELEMETRY_POINTS))
    def test_telemetry_stream_is_pinned(self, point):
        trace_name, config = _TELEMETRY_POINTS[point]
        digest = _telemetry_digest(trace_name, config)
        assert digest == PINNED_TELEMETRY_DIGESTS[point]


# ------------------------------------------------- off-golden geometries
#
# bench/golden.json only reaches 1-4 KB I-caches (at most 128 sets).
# These points hold the larger I-cache geometries (256 to 131,072 sets,
# past the 16-bit set-index width), a 128 KB D-cache and the ablations
# to digests written before the timing columns went compact, and retire
# widths, reorder-buffer sizes and FPU queue depths off the paper's
# models to digests written before the loop's retire and reorder-buffer
# bookkeeping was rewritten.  Rewrite
# tests/data/off_golden_digests.json only for an intended timing change:
#
#     PYTHONPATH=src python -m tests.test_processor

_OFF_GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "off_golden_digests.json"
)
_OFF_GOLDEN_TRACES = ("espresso", "li", "su2cor", "hydro2d")


def _icache(kbytes):
    return BASELINE.with_(icache_bytes=kbytes * 1024)


def _fp_policy(config, policy, **changes):
    return config.with_(fpu=config.fpu.with_(issue_policy=policy, **changes))


_OFF_GOLDEN_CONFIGS = {
    "icache8k": _icache(8),
    "icache16k": _icache(16),
    "icache64k": _icache(64),
    "icache4m": _icache(4096),
    "dcache128k-icache16k": _icache(16).with_(dcache_bytes=128 * 1024),
    "split-pool-icache16k": _icache(16).with_(split_prefetch_pool=True),
    "width1-icache8k": _icache(8).single_issue(),
    "precise-icache64k": _icache(64).with_(fpu_precise_exceptions=True),
    "fpu-in_order-icache8k": _fp_policy(
        _icache(8), FPIssuePolicy.IN_ORDER_COMPLETION
    ),
    "fpu-single-icache16k": _fp_policy(
        _icache(16), FPIssuePolicy.SINGLE_ISSUE
    ),
    "fpu-dual-buses1-icache32k": _fp_policy(
        _icache(32), FPIssuePolicy.DUAL_ISSUE, result_buses=1
    ),
    # Retire widths and reorder-buffer sizes the paper's models never
    # use (they retire two a cycle from ROBs of 2, 6 and 8).
    "retire1": BASELINE.with_(retire_width=1),
    "retire3": BASELINE.with_(retire_width=3),
    "retire4": BASELINE.with_(retire_width=4),
    "rob1": BASELINE.with_(rob_entries=1),
    "rob16": BASELINE.with_(rob_entries=16),
    "retire1-rob1": BASELINE.with_(retire_width=1, rob_entries=1),
    "width1-retire1": BASELINE.single_issue().with_(retire_width=1),
    "fpu-single-rob1-iq1": _fp_policy(
        BASELINE, FPIssuePolicy.SINGLE_ISSUE, rob_entries=1,
        instruction_queue=1,
    ),
}
#: (trace, config) points whose whole telemetry stream is digested; at
#: ``retire1-rob1`` the RETIRE events carry every retire time.
_OFF_GOLDEN_TELEMETRY = (
    ("espresso", "icache16k"),
    ("su2cor", "retire1-rob1"),
)


def _off_golden_digests():
    from repro.experiments.common import scaled_trace

    stats = {}
    for trace_name in _OFF_GOLDEN_TRACES:
        trace = scaled_trace(trace_name, _PINNED_FACTOR)
        for name, config in _OFF_GOLDEN_CONFIGS.items():
            result = AuroraProcessor(config).run(trace)
            stats[f"{trace_name}/{name}"] = _stats_digest(result.stats)
    telemetry = {
        f"{trace_name}/{name}": _telemetry_digest(
            trace_name, _OFF_GOLDEN_CONFIGS[name]
        )
        for trace_name, name in _OFF_GOLDEN_TELEMETRY
    }
    return {"stats": stats, "telemetry": telemetry}


class TestOffGoldenDigests:
    def test_digests_match_fixture(self):
        expected = json.loads(_OFF_GOLDEN_PATH.read_text())
        assert _off_golden_digests() == expected


if __name__ == "__main__":
    _OFF_GOLDEN_PATH.write_text(
        json.dumps(_off_golden_digests(), indent=2, sort_keys=True) + "\n"
    )

