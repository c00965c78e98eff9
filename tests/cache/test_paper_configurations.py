"""Tests for the Table-6 sweep: the four paper sizes in one pass."""

from repro.cache import PAPER_CACHE_SIZES, CacheConfig, simulate_multi_cache
from tests.cache.reference_cache import simulate_cache

PAPER_CONFIGS = [CacheConfig(size) for size in PAPER_CACHE_SIZES]


class TestPaperConfigurations:
    def test_all_four_sizes(self):
        trace = [0] * 5
        fetches = {0: [0, 16, 32, 48]}
        results = simulate_multi_cache(trace, fetches, PAPER_CONFIGS)
        assert len(results) == len(PAPER_CACHE_SIZES)
        assert all(result.accesses == 20 for result in results)

    def test_matches_individual_runs(self):
        trace = [0, 0, 0]
        fetches = {0: [0, 1024, 2048, 16]}
        sweep = simulate_multi_cache(trace, fetches, PAPER_CONFIGS)
        for config, result in zip(PAPER_CONFIGS, sweep):
            single = simulate_cache(trace, fetches, config)
            assert result.misses == single.misses
            assert result.fetch_cost == single.fetch_cost

    def test_context_switch_variant(self):
        trace = [0] * 2000
        fetches = {0: [0, 16]}
        plain = simulate_multi_cache(trace, fetches, PAPER_CONFIGS, False)
        flushed = simulate_multi_cache(trace, fetches, PAPER_CONFIGS, True)
        for plain_result, flushed_result in zip(plain, flushed):
            assert flushed_result.misses >= plain_result.misses
