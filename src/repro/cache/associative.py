"""Set-associative instruction caches (extension).

The paper simulates direct-mapped caches only; its methodology follows
Smith's cache survey, which studies associativity as the other first-order
parameter.  This extension adds an N-way set-associative LRU cache so the
replication trade-off can be examined when conflict misses are softened:
code replication's extra conflict misses on small caches are partly an
artifact of direct mapping, and associativity recovers some of them.

``associativity=1`` reduces to direct-mapped behaviour (property-tested
against the direct-mapped reference replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .direct_mapped import CacheResult

__all__ = ["AssociativeCacheConfig", "simulate_associative_cache"]


@dataclass(frozen=True)
class AssociativeCacheConfig:
    """An N-way set-associative instruction cache with LRU replacement."""

    size: int = 1024
    line_size: int = 16
    associativity: int = 2
    hit_time: int = 1
    miss_penalty: int = 10
    context_switch_interval: int = 10_000

    @property
    def lines(self) -> int:
        return self.size // self.line_size

    @property
    def sets(self) -> int:
        return self.lines // self.associativity

    def __post_init__(self) -> None:
        if self.size % self.line_size != 0:
            raise ValueError("cache size must be a multiple of the line size")
        if self.associativity < 1:
            raise ValueError("associativity must be at least 1")
        if self.lines % self.associativity != 0:
            raise ValueError("line count must be a multiple of associativity")
        if self.sets & (self.sets - 1):
            raise ValueError("number of sets must be a power of two")


def simulate_associative_cache(
    trace: Sequence[int],
    block_fetches: Dict[int, List[int]],
    config: AssociativeCacheConfig,
    context_switches: bool = False,
) -> CacheResult:
    """Replay an instruction-fetch stream through an N-way LRU cache."""
    line_shift = config.line_size.bit_length() - 1
    index_mask = config.sets - 1
    ways = config.associativity

    block_lines: Dict[int, List[int]] = {
        block_id: [addr >> line_shift for addr in fetches]
        for block_id, fetches in block_fetches.items()
    }
    no_fetches: List[int] = []

    # Per set: a most-recent-first list of resident line numbers.
    sets: List[List[int]] = [[] for _ in range(config.sets)]
    accesses = 0
    misses = 0
    cost = 0
    flushes = 0
    hit_time = config.hit_time
    miss_time = config.miss_penalty
    interval = config.context_switch_interval
    next_flush = interval if context_switches else None

    for block_id in trace:
        for line in block_lines.get(block_id, no_fetches):
            accesses += 1
            bucket = sets[line & index_mask]
            try:
                position = bucket.index(line)
            except ValueError:
                position = -1
            if position >= 0:
                cost += hit_time
                if position != 0:
                    bucket.insert(0, bucket.pop(position))
            else:
                misses += 1
                cost += miss_time
                bucket.insert(0, line)
                if len(bucket) > ways:
                    bucket.pop()
            if next_flush is not None and cost >= next_flush:
                sets = [[] for _ in range(config.sets)]
                flushes += 1
                next_flush += interval
    return CacheResult(accesses, misses, cost, flushes)
