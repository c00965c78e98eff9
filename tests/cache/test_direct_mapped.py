"""Direct-mapped cache simulator tests, including hypothesis properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheConfig, CacheResult, direct_mapped
from tests.cache.reference_cache import simulate_cache
from tests.cache.switches import interval


def run(addresses, size=64, ctx=False, units=direct_mapped.CONTEXT_SWITCH_INTERVAL):
    """Replay a flat address list as one block run once, a context switch
    every ``units`` of fetch cost when ``ctx`` is set."""
    with interval(units):
        return simulate_cache(
            [0], {0: list(addresses)}, CacheConfig(size=size), context_switches=ctx
        )


class TestBasics:
    def test_cold_miss_then_hit(self):
        result = run([0, 0, 4, 12])
        # All four accesses fall in line 0: one cold miss, three hits.
        assert result.accesses == 4
        assert result.misses == 1
        assert result.fetch_cost == 1 * 10 + 3 * 1

    def test_distinct_lines_all_miss(self):
        result = run([0, 16, 32, 48])
        assert result.misses == 4

    def test_conflict_misses(self):
        # A 64-byte cache has 4 lines; addresses 0 and 64 map to line 0.
        result = run([0, 64, 0, 64])
        assert result.misses == 4

    def test_no_conflict_in_bigger_cache(self):
        result = run([0, 64, 0, 64], size=128)
        assert result.misses == 2

    def test_miss_ratio(self):
        result = run([0, 0, 0, 64])
        assert result.miss_ratio == pytest.approx(2 / 4)

    def test_multi_block_trace(self):
        config = CacheConfig(size=64)
        fetches = {0: [0, 4], 1: [16]}
        result = simulate_cache([0, 1, 0], fetches, config)
        assert result.accesses == 5
        assert result.misses == 2  # lines 0 and 1 once each

    def test_empty_trace(self):
        result = simulate_cache([], {}, CacheConfig(size=64))
        assert result.accesses == 0
        assert result.miss_ratio == 0.0


class TestContextSwitches:
    def test_flush_causes_rereferences_to_miss(self):
        # With an interval of 10 units, a cost of 10 triggers a flush.
        warm = run([0] * 30, ctx=False, units=10)
        cold = run([0] * 30, ctx=True, units=10)
        assert cold.misses > warm.misses
        assert cold.flushes > 0

    def test_interval_counts_cost_not_accesses(self):
        result = run([0, 16, 32, 48] * 10, ctx=True, units=10)
        # Every miss costs 10 -> a flush roughly every miss.
        assert result.flushes >= result.misses // 2

    def test_no_flushes_without_context_switching(self):
        result = run([0] * 1000, ctx=False, units=10)
        assert result.flushes == 0


class TestConfigValidation:
    def test_bad_line_multiple(self):
        with pytest.raises(ValueError):
            CacheConfig(size=100)

    def test_line_count_power_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig(size=48)

    def test_paper_configuration_defaults(self):
        config = CacheConfig()
        assert (config.size, config.associativity) == (1024, 1)
        assert direct_mapped.LINE_SIZE == 16
        assert (direct_mapped.HIT_TIME, direct_mapped.MISS_PENALTY) == (1, 10)
        assert direct_mapped.CONTEXT_SWITCH_INTERVAL == 10_000


@st.composite
def traces(draw):
    n_blocks = draw(st.integers(1, 5))
    fetches = {
        i: draw(
            st.lists(
                st.integers(0, 1 << 12).map(lambda a: a * 2), min_size=1, max_size=8
            )
        )
        for i in range(n_blocks)
    }
    trace = draw(st.lists(st.integers(0, n_blocks - 1), max_size=40))
    return trace, fetches


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(traces(), st.sampled_from([64, 128, 1024]))
    def test_cost_identity(self, data, size):
        trace, fetches = data
        result = simulate_cache(trace, fetches, CacheConfig(size=size))
        assert result.fetch_cost == result.hits * 1 + result.misses * 10
        assert result.accesses == sum(len(fetches[b]) for b in trace)
        assert 0 <= result.misses <= result.accesses

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_bigger_cache_never_misses_more(self, data):
        trace, fetches = data
        small = simulate_cache(trace, fetches, CacheConfig(size=64))
        # Direct-mapped caches don't obey inclusion in general, but doubling
        # the size while keeping the line size halves index pressure; for a
        # direct-mapped cache this CAN increase misses in adversarial cases,
        # so compare against a fully-covering cache instead.
        huge = simulate_cache(trace, fetches, CacheConfig(size=1 << 16))
        assert huge.misses <= small.misses

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_fully_covering_cache_only_cold_misses(self, data):
        trace, fetches = data
        result = simulate_cache(trace, fetches, CacheConfig(size=1 << 16))
        distinct_lines = {
            addr >> 4 for block in trace for addr in fetches[block]
        }
        assert result.misses == len(distinct_lines)

    @settings(max_examples=40, deadline=None)
    @given(traces())
    def test_context_switching_never_reduces_misses(self, data):
        trace, fetches = data
        config = CacheConfig(size=128)
        with interval(50):
            plain = simulate_cache(trace, fetches, config, context_switches=False)
            flushed = simulate_cache(trace, fetches, config, context_switches=True)
        assert flushed.misses >= plain.misses
