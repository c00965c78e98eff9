"""Instruction-cache simulation (Table 6 substrate + associative extension).

Table 6 runs on the single-pass multi-configuration engine with
steady-state loop fast-forwarding (:func:`simulate_multi_cache`, behind
the Table-6 harness and ``repro cache``).  The per-configuration replay
:func:`simulate_cache` is its test oracle: the tier-1 parity suite
(``tests/cache/test_engine_parity.py``) checks both produce
byte-identical :class:`CacheResult`\\ s on fuzzed and real traces.
"""

from .associative import AssociativeCacheConfig, simulate_associative_cache
from .direct_mapped import (
    PAPER_CACHE_SIZES,
    CacheConfig,
    CacheResult,
    simulate_cache,
)
from .multi import MultiCacheStats, simulate_multi_cache

__all__ = [
    "PAPER_CACHE_SIZES",
    "CacheConfig",
    "CacheResult",
    "simulate_cache",
    "simulate_multi_cache",
    "MultiCacheStats",
    "AssociativeCacheConfig",
    "simulate_associative_cache",
]
