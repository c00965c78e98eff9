"""Instruction-cache simulation (Table 6 substrate + associative extension).

Table 6 runs on the single-pass multi-configuration engine with
steady-state loop fast-forwarding (:func:`simulate_multi_cache`, behind
:func:`simulate_paper_configurations` and ``repro cache``).  The
per-configuration replay :func:`simulate_cache` is its test oracle: the
parity suites check both produce byte-identical :class:`CacheResult`\\ s.
"""

from .associative import AssociativeCacheConfig, simulate_associative_cache
from .direct_mapped import (
    PAPER_CACHE_SIZES,
    CacheConfig,
    CacheResult,
    simulate_cache,
    simulate_paper_configurations,
)
from .multi import MultiCacheStats, simulate_multi_cache

__all__ = [
    "PAPER_CACHE_SIZES",
    "CacheConfig",
    "CacheResult",
    "simulate_cache",
    "simulate_paper_configurations",
    "simulate_multi_cache",
    "MultiCacheStats",
    "AssociativeCacheConfig",
    "simulate_associative_cache",
]
