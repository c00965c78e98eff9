"""Instruction-cache simulation: one engine for every configuration.

:func:`simulate_multi_cache` walks a trace once for any mix of cache
configurations (:class:`CacheConfig`): the paper's direct-mapped Table-6
sizes, with and without context switches, and the §6 N-way LRU caches
(``CacheConfig(associativity=...)``, without context switches).  It
consumes compressed trace records with per-body replay summaries and
steady-state loop fast-forwarding, behind ``repro tables`` and
``repro cache``.  Its test
oracles, per-configuration replays, live beside the tier-1 parity suite
(``tests/cache/test_engine_parity.py``), which checks the engine and
the oracles produce byte-identical :class:`CacheResult`\\ s on fuzzed
and real traces.
"""

from .direct_mapped import PAPER_CACHE_SIZES, CacheConfig, CacheResult
from .multi import MultiCacheStats, simulate_multi_cache

__all__ = [
    "PAPER_CACHE_SIZES",
    "CacheConfig",
    "CacheResult",
    "simulate_multi_cache",
    "MultiCacheStats",
]
