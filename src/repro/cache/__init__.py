"""Instruction-cache simulation (Table 6 substrate + associative extension).

Table 6 runs on the single-pass multi-configuration engine with
steady-state loop fast-forwarding (:func:`simulate_multi_cache`, behind
``repro tables`` and ``repro cache``).  Its test oracle, a
per-configuration replay, lives beside the tier-1 parity suite
(``tests/cache/test_engine_parity.py``), which checks both produce
byte-identical :class:`CacheResult`\\ s on fuzzed and real traces.
"""

from .associative import AssociativeCacheConfig, simulate_associative_cache
from .direct_mapped import PAPER_CACHE_SIZES, CacheConfig, CacheResult
from .multi import MultiCacheStats, simulate_multi_cache

__all__ = [
    "PAPER_CACHE_SIZES",
    "CacheConfig",
    "CacheResult",
    "simulate_multi_cache",
    "MultiCacheStats",
    "AssociativeCacheConfig",
    "simulate_associative_cache",
]
