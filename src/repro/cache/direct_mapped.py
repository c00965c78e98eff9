"""Direct-mapped instruction-cache simulation (§5.3 of the paper).

Parameters follow the paper exactly:

* cache sizes of 1, 2, 4 and 8 KB are studied, each direct-mapped with
  16 bytes per line;
* fetch cost = hits * 1 + misses * 10 (cache access time 1, miss penalty
  10, after Smith's cache studies);
* context switches are simulated by invalidating the entire cache every
  10 000 units of time (of accumulated fetch cost).

The simulator consumes the block-level trace plus the per-block fetch
addresses produced by :func:`repro.ease.measure.measure_program`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = [
    "CacheConfig",
    "CacheResult",
    "simulate_cache",
    "PAPER_CACHE_SIZES",
]

PAPER_CACHE_SIZES = (1024, 2048, 4096, 8192)

@dataclass(frozen=True)
class CacheConfig:
    """A direct-mapped instruction cache configuration."""

    size: int = 1024
    line_size: int = 16
    hit_time: int = 1
    miss_penalty: int = 10  # "misses are ten times as expensive as hits"
    context_switch_interval: int = 10_000

    @property
    def lines(self) -> int:
        return self.size // self.line_size

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size % self.line_size != 0:
            raise ValueError(
                "cache size must be a positive multiple of the line size"
            )
        if self.lines & (self.lines - 1):
            raise ValueError("number of cache lines must be a power of two")


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


def simulate_cache(
    trace: Sequence[int],
    block_fetches: Dict[int, List[int]],
    config: CacheConfig,
    context_switches: bool = False,
) -> CacheResult:
    """Replay an instruction-fetch stream through a direct-mapped cache.

    :param trace: executed basic blocks as global block ids, in order.
    :param block_fetches: per block id, the fetch address of each machine
        instruction in the block.
    :param context_switches: flush the cache every
        ``config.context_switch_interval`` time units when set.
    """
    line_shift = config.line_size.bit_length() - 1
    index_mask = config.lines - 1

    # Precompute each block's line-number sequence once.
    block_lines: Dict[int, List[int]] = {
        block_id: [addr >> line_shift for addr in fetches]
        for block_id, fetches in block_fetches.items()
    }
    # A traced block with no fetch addresses (an empty basic block, or a
    # trace from another layout) contributes zero accesses.
    no_fetches: List[int] = []

    cache: List[int] = [-1] * config.lines
    accesses = 0
    misses = 0
    cost = 0
    flushes = 0
    hit_time = config.hit_time
    # "fetch cost = cache hits * cache access time + cache misses * miss
    # penalty" — a miss costs the penalty (10 units), not penalty + hit.
    miss_time = config.miss_penalty
    interval = config.context_switch_interval
    next_flush = interval if context_switches else None

    for block_id in trace:
        for line in block_lines.get(block_id, no_fetches):
            accesses += 1
            slot = line & index_mask
            if cache[slot] == line:
                cost += hit_time
            else:
                cache[slot] = line
                misses += 1
                cost += miss_time
            if next_flush is not None and cost >= next_flush:
                cache = [-1] * config.lines
                flushes += 1
                next_flush += interval
    return CacheResult(accesses, misses, cost, flushes)
