"""Engine parity: the one cache engine must return byte-identical
``CacheResult``s to the per-configuration reference replays — direct
mapped at every Table-6 size, N-way LRU at 1, 2 and 4 ways, with and
without context switches — the differential oracle that gates the
summary walk and the fast-forward optimization.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite.programs import PROGRAMS
from repro.cache import (
    PAPER_CACHE_SIZES,
    CacheConfig,
    MultiCacheStats,
    simulate_multi_cache,
)
from repro.ease import measure_program
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.targets import get_target
from tests.cache.reference_cache import simulate_associative_cache, simulate_cache
from tests.traces import compress, limits

PAPER_CONFIGS = [CacheConfig(size=size) for size in PAPER_CACHE_SIZES]

#: The scaled Table-6 grid as perfbench and ``repro tables`` walk it:
#: 128 B to 1 KB, context switches on and off, in one call.
SCALED_GRID = [CacheConfig(size=size) for size in (128, 256, 512, 1024)] * 2
SCALED_FLAGS = [True] * 4 + [False] * 4


def reference(trace, fetches, config, ctx):
    """The oracle replay of one configuration."""
    oracle = simulate_cache if config.associativity == 1 else simulate_associative_cache
    return oracle(trace, fetches, config, context_switches=ctx)


def assert_parity(trace, fetches, configs, ctx):
    """``ctx``: one bool for every config, or one per config."""
    flags = [ctx] * len(configs) if isinstance(ctx, bool) else ctx
    multi = simulate_multi_cache(trace, fetches, configs, context_switches=ctx)
    assert len(multi) == len(configs)
    for config, flag, got in zip(configs, flags, multi):
        want = reference(trace, fetches, config, flag)
        assert (got.accesses, got.misses, got.fetch_cost, got.flushes) == (
            want.accesses,
            want.misses,
            want.fetch_cost,
            want.flushes,
        ), (config, flag)


def n_way_configs(sizes, interval):
    return [
        CacheConfig(size=size, associativity=ways, context_switch_interval=interval)
        for size in sizes
        for ways in (1, 2, 4)
    ]


@st.composite
def traces(draw):
    """Block ids with loop structure (so fast-forwarding triggers)."""
    n_blocks = draw(st.integers(1, 6))
    fetches = {
        i: draw(
            st.lists(
                st.integers(0, 1 << 11).map(lambda a: a * 4),
                min_size=0,
                max_size=6,
            )
        )
        for i in range(n_blocks)
    }
    blocks = st.integers(0, n_blocks - 1)
    pieces = draw(
        st.lists(
            st.one_of(
                st.lists(blocks, max_size=8),  # literal stretch
                st.tuples(  # repeated loop body
                    st.lists(blocks, min_size=1, max_size=4),
                    st.integers(2, 400),
                ).map(lambda t: t[0] * t[1]),
            ),
            max_size=6,
        )
    )
    trace = [b for piece in pieces for b in piece]
    return trace, fetches


class TestFuzzedTraces:
    @settings(max_examples=120, deadline=None)
    @given(traces(), st.booleans())
    def test_paper_sizes_parity(self, data, ctx):
        trace, fetches = data
        assert_parity(compress(trace), fetches, PAPER_CONFIGS, ctx)

    @settings(max_examples=80, deadline=None)
    @given(traces(), st.booleans())
    def test_tiny_caches_parity(self, data, ctx):
        # Tiny caches + a short flush interval stress conflict misses and
        # the fast-forward/flush boundary far harder than the paper sizes.
        trace, fetches = data
        configs = [
            CacheConfig(size=64, context_switch_interval=50),
            CacheConfig(size=128, context_switch_interval=50),
            CacheConfig(size=1024, context_switch_interval=50),
        ]
        assert_parity(compress(trace), fetches, configs, ctx)

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_mixed_context_flags_parity(self, data):
        # One walk can mix with/without-context-switch states (the full
        # Table-6 grid as 8 states); each must match its own reference.
        trace, fetches = data
        configs = PAPER_CONFIGS * 2
        flags = [False] * len(PAPER_CONFIGS) + [True] * len(PAPER_CONFIGS)
        assert_parity(compress(trace), fetches, configs, flags)

    @settings(max_examples=80, deadline=None)
    @given(traces(), st.booleans())
    def test_n_way_parity(self, data, ctx):
        # 1, 2 and 4 ways at tiny sizes and a short flush interval: LRU
        # fast-forwarding must stop at every flush boundary.
        trace, fetches = data
        configs = n_way_configs((64, 128), interval=50)
        assert_parity(compress(trace), fetches, configs, ctx)

    @settings(max_examples=40, deadline=None)
    @given(traces())
    def test_n_way_and_direct_mapped_in_one_walk(self, data):
        trace, fetches = data
        configs = n_way_configs((64, 256), interval=50) * 2
        flags = [False] * 6 + [True] * 6
        assert_parity(compress(trace), fetches, configs, flags)

    def test_context_flags_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            simulate_multi_cache(compress([0]), {0: [0]}, PAPER_CONFIGS, [True, False])

    @settings(max_examples=60, deadline=None)
    @given(traces(), st.booleans())
    def test_compressed_trace_parity(self, data, ctx):
        # The engine consumes RLE records directly; the reference engine
        # iterates the expanded trace.  Short loop bodies and literal
        # chunks break the trace into many small records and cut loops
        # at arbitrary points: results must still match.
        trace, fetches = data
        with limits(max_body=3, chunk_size=5):
            compressed = compress(trace)
        assert_parity(compressed, fetches, PAPER_CONFIGS, ctx)

    @settings(max_examples=40, deadline=None)
    @given(traces())
    def test_stats_count_records_and_blocks(self, data):
        trace, fetches = data
        compressed = compress(trace)
        stats = MultiCacheStats()
        simulate_multi_cache(compressed, fetches, SCALED_GRID, SCALED_FLAGS, stats=stats)
        assert stats.records == compressed.record_count
        assert stats.raw_blocks == len(compressed) == len(trace)


class TestRealPrograms:
    @pytest.fixture(scope="class")
    def measurements(self):
        out = {}
        target = get_target("sparc")
        for name in ("wc", "sieve", "bubblesort", "queens"):
            for replication in ("none", "jumps"):
                bench = PROGRAMS[name]
                program = compile_c(bench.source)
                optimize_program(
                    program, target, OptimizationConfig(replication=replication)
                )
                m = measure_program(program, target, stdin=bench.stdin, trace=True)
                out[(name, replication)] = (m.trace, m.block_fetches)
        return out

    @pytest.mark.parametrize("ctx", [False, True])
    def test_interpreter_traces_parity(self, measurements, ctx):
        for (name, replication), (trace, fetches) in measurements.items():
            assert_parity(trace, fetches, PAPER_CONFIGS, ctx)

    def test_scaled_table6_grid_parity(self, measurements):
        # The shape perfbench and ``repro tables`` use: every scaled
        # size, switches on and off, as 8 states of one walk.
        for trace, fetches in measurements.values():
            assert_parity(trace, fetches, SCALED_GRID, SCALED_FLAGS)

    def test_n_way_parity(self, measurements):
        # The JUMPS traces only: each LRU oracle replays every access.
        configs = n_way_configs((128, 512), interval=1_000)
        for (name, replication), (trace, fetches) in measurements.items():
            if replication == "jumps":
                assert_parity(trace, fetches, configs, True)

    def test_stats_count_records_and_blocks(self, measurements):
        for trace, fetches in measurements.values():
            stats = MultiCacheStats()
            simulate_multi_cache(
                trace, fetches, SCALED_GRID, SCALED_FLAGS, stats=stats
            )
            assert stats.records == trace.record_count
            assert stats.raw_blocks == len(trace)

    def test_fastforward_actually_fires(self, measurements):
        # The optimization must engage on real loopy programs, not just
        # be correct when idle.
        stats = MultiCacheStats()
        trace, fetches = measurements[("sieve", "none")]
        simulate_multi_cache(trace, fetches, PAPER_CONFIGS, stats=stats)
        assert stats.fastforward_iters > 0
        assert stats.fastforward_hits > 0


class TestZeroFetchBlocks:
    """Regression: block ids absent from ``block_fetches`` (empty basic
    blocks, or a trace replayed against a different layout) must count as
    zero accesses instead of raising ``KeyError``."""

    def test_reference_engine_skips_unknown_blocks(self):
        result = simulate_cache(
            [0, 7, 1, 7], {0: [0], 1: [16]}, CacheConfig(size=64)
        )
        assert result.accesses == 2
        assert result.misses == 2

    def test_multi_engine_skips_unknown_blocks(self):
        results = simulate_multi_cache(
            compress([0, 7, 1, 7]), {0: [0], 1: [16]}, PAPER_CONFIGS
        )
        for result in results:
            assert result.accesses == 2

    def test_empty_fetch_list_counts_nothing(self):
        result = simulate_cache([0, 1, 0], {0: [], 1: [0]}, CacheConfig(size=64))
        assert result.accesses == 1

    def test_associative_engine_skips_unknown_blocks(self):
        config = CacheConfig(size=64, associativity=2)
        assert simulate_associative_cache([0, 9], {0: [0, 4]}, config).accesses == 2
        [result] = simulate_multi_cache(compress([0, 9]), {0: [0, 4]}, [config])
        assert result.accesses == 2


class TestDispatch:
    def test_paper_configurations_engines_agree(self):
        trace = compress([0, 1, 2] * 300 + [3])
        fetches = {i: [i * 32 + j * 4 for j in range(4)] for i in range(4)}
        for ctx in (False, True):
            fast = simulate_multi_cache(
                trace, fetches, PAPER_CONFIGS, context_switches=ctx
            )
            assert len(fast) == len(PAPER_CACHE_SIZES)
            for config, got in zip(PAPER_CONFIGS, fast):
                want = simulate_cache(
                    trace, fetches, config, context_switches=ctx
                )
                assert (
                    want.accesses,
                    want.misses,
                    want.fetch_cost,
                    want.flushes,
                ) == (
                    got.accesses,
                    got.misses,
                    got.fetch_cost,
                    got.flushes,
                )
