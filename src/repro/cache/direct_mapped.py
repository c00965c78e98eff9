"""Instruction-cache configurations and results (§5.3 of the paper).

Parameters follow the paper exactly, as the module constants below:

* cache sizes of 1, 2, 4 and 8 KB are studied, each direct-mapped with
  16 bytes per line (:data:`LINE_SIZE`);
* fetch cost = hits * 1 + misses * 10 (cache access time
  :data:`HIT_TIME`, miss penalty :data:`MISS_PENALTY`, after Smith's
  cache studies);
* context switches are simulated by invalidating the entire cache every
  10 000 units of time (:data:`CONTEXT_SWITCH_INTERVAL`, of accumulated
  fetch cost).

A :class:`CacheConfig` is a size and an associativity.  The paper
studies direct-mapped caches only; ``associativity`` above 1 is the §6
extension, an N-way cache with LRU replacement, simulated without
context switches (the §6 table measures none).  The simulator
(:func:`repro.cache.multi.simulate_multi_cache`) consumes the block-level
trace plus the per-block fetch addresses produced by
:func:`repro.ease.measure.measure_program`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CacheConfig",
    "CacheResult",
    "PAPER_CACHE_SIZES",
]

PAPER_CACHE_SIZES = (1024, 2048, 4096, 8192)

LINE_SIZE = 16
HIT_TIME = 1
MISS_PENALTY = 10  # "misses are ten times as expensive as hits"
CONTEXT_SWITCH_INTERVAL = 10_000


@dataclass(frozen=True)
class CacheConfig:
    """An instruction cache configuration (direct mapped by default)."""

    size: int = 1024
    associativity: int = 1  # ways per set, LRU replacement

    @property
    def lines(self) -> int:
        return self.size // LINE_SIZE

    @property
    def sets(self) -> int:
        return self.lines // self.associativity

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size % LINE_SIZE != 0:
            raise ValueError(
                "cache size must be a positive multiple of the line size"
            )
        if self.lines & (self.lines - 1):
            raise ValueError("number of cache lines must be a power of two")
        if self.associativity < 1 or self.lines % self.associativity:
            raise ValueError(
                "associativity must be at least 1 and divide the line count"
            )


@dataclass
class CacheResult:
    """Counts from one cache simulation."""

    accesses: int
    misses: int
    fetch_cost: int
    flushes: int

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def __repr__(self) -> str:
        return (
            f"<CacheResult accesses={self.accesses} misses={self.misses} "
            f"ratio={self.miss_ratio:.4f} cost={self.fetch_cost}>"
        )
