"""N-way LRU caches (``CacheConfig(associativity=...)``), including
equivalence with direct mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheConfig, simulate_multi_cache
from tests.cache.reference_cache import simulate_associative_cache, simulate_cache
from tests.cache.test_direct_mapped import traces
from tests.traces import compress


def run(addresses, size=64, ways=2):
    config = CacheConfig(size=size, associativity=ways)
    [result] = simulate_multi_cache(compress([0]), {0: list(addresses)}, [config])
    return result


class TestBasics:
    def test_two_way_resolves_direct_conflict(self):
        # Lines 0 and 64 conflict in a 64-byte direct-mapped cache; a
        # 2-way cache of the same size holds both.
        direct = simulate_cache([0], {0: [0, 64, 0, 64]}, CacheConfig(size=64))
        assoc = run([0, 64, 0, 64], size=64, ways=2)
        assert direct.misses == 4
        assert assoc.misses == 2

    def test_lru_eviction_order(self):
        # 2-way, one set pair: touch A, B, C (evicts A), then A misses.
        result = run([0, 64, 128, 0], size=32, ways=2)
        # 32B/16B = 2 lines = 1 set of 2 ways: A, B fill; C evicts A; A miss.
        assert result.misses == 4

    def test_lru_keeps_recently_used(self):
        # A, B, A, C: LRU evicts B (not A), so the next A hits.
        result = run([0, 64, 0, 128, 0], size=32, ways=2)
        assert result.misses == 3  # A, B, C miss; both A re-touches hit

    def test_fully_associative(self):
        result = run([0, 16, 32, 48, 0, 16, 32, 48], size=64, ways=4)
        assert result.misses == 4
        assert result.hits == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size=64, associativity=3)
        with pytest.raises(ValueError):
            CacheConfig(size=100)
        with pytest.raises(ValueError):
            CacheConfig(size=64, associativity=0)

    def test_context_switches_are_rejected(self):
        # The §6 associativity table measures no context switches; an
        # N-way cache with its flag set fails before the walk, even in a
        # list whose direct-mapped caches switch.
        configs = [CacheConfig(size=64), CacheConfig(size=64, associativity=2)]
        with pytest.raises(ValueError, match="N-way"):
            simulate_multi_cache(compress([0]), {0: [0]}, configs, [True, True])
        plain, two_way = simulate_multi_cache(
            compress([0]), {0: [0]}, configs, [True, False]
        )
        assert plain.accesses == two_way.accesses == 1


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(traces(), st.sampled_from([64, 128, 256]))
    def test_one_way_equals_direct_mapped(self, data, size):
        trace, fetches = data
        direct = simulate_cache(trace, fetches, CacheConfig(size=size))
        assoc = simulate_associative_cache(trace, fetches, CacheConfig(size=size))
        assert direct.misses == assoc.misses
        assert direct.fetch_cost == assoc.fetch_cost

    @settings(max_examples=60, deadline=None)
    @given(traces(), st.sampled_from([64, 128, 256]))
    def test_lru_inclusion_more_ways_never_miss_more(self, data, size):
        # LRU obeys the inclusion property when varying associativity at a
        # fixed size only if set mappings nest; compare instead against a
        # fully associative cache of the same size, which can only do
        # better than any same-size LRU configuration... which is also not
        # universally true for misses. The robust property: a fully
        # associative LRU cache of *unbounded* size only cold-misses.
        trace, fetches = data
        [big] = simulate_multi_cache(
            compress(trace), fetches, [CacheConfig(size=1 << 15, associativity=1 << 11)]
        )
        distinct = {a >> 4 for b in trace for a in fetches[b]}
        assert big.misses == len(distinct)

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_cost_identity(self, data):
        trace, fetches = data
        [result] = simulate_multi_cache(
            compress(trace), fetches, [CacheConfig(size=128, associativity=2)]
        )
        assert result.fetch_cost == result.hits + 10 * result.misses
