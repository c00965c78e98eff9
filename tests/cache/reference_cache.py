"""The per-configuration cache replays, kept as test oracles.

Each replays every instruction fetch through one cache configuration,
the way §5.3 of the paper describes the simulation:
:func:`simulate_cache` a direct-mapped cache, and
:func:`simulate_associative_cache` an N-way LRU one.  The product engine,
:func:`repro.cache.simulate_multi_cache`, walks the trace once for many
configurations and fast-forwards steady-state loops; the parity suite
(``test_engine_parity.py``) checks they agree byte for byte.  They live
beside the tests that use them, outside the installed package, because
nothing else calls them.  A trace is a run's ``CompressedTrace``,
replayed expanded, or a plain list of block ids.  Line size, hit and
miss costs and the context-switch interval are the constants of
:mod:`repro.cache.direct_mapped`, read as a replay starts (a test may
lower the interval with :func:`tests.cache.switches.interval`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro.cache import CacheConfig, CacheResult, direct_mapped
from repro.ease.trace import CompressedTrace
from tests.traces import expand

Trace = Union[CompressedTrace, Sequence[int]]


def _block_ids(trace: Trace) -> Sequence[int]:
    return expand(trace) if isinstance(trace, CompressedTrace) else trace


def simulate_cache(
    trace: Trace,
    block_fetches: Dict[int, List[int]],
    config: CacheConfig,
    context_switches: bool = False,
) -> CacheResult:
    """Replay an instruction-fetch stream through a direct-mapped cache.

    :param trace: executed basic blocks as global block ids, in order.
    :param block_fetches: per block id, the fetch address of each machine
        instruction in the block.
    :param context_switches: flush the cache every
        ``CONTEXT_SWITCH_INTERVAL`` time units when set.
    """
    line_shift = direct_mapped.LINE_SIZE.bit_length() - 1
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
    hit_time = direct_mapped.HIT_TIME
    # "fetch cost = cache hits * cache access time + cache misses * miss
    # penalty" — a miss costs the penalty (10 units), not penalty + hit.
    miss_time = direct_mapped.MISS_PENALTY
    interval = direct_mapped.CONTEXT_SWITCH_INTERVAL
    next_flush = interval if context_switches else None

    for block_id in _block_ids(trace):
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


def simulate_associative_cache(
    trace: Trace,
    block_fetches: Dict[int, List[int]],
    config: CacheConfig,
    context_switches: bool = False,
) -> CacheResult:
    """Replay an instruction-fetch stream through an N-way LRU cache.

    ``config.associativity`` ways per set; one way is a direct-mapped
    cache.
    """
    line_shift = direct_mapped.LINE_SIZE.bit_length() - 1
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
    hit_time = direct_mapped.HIT_TIME
    miss_time = direct_mapped.MISS_PENALTY
    interval = direct_mapped.CONTEXT_SWITCH_INTERVAL
    next_flush = interval if context_switches else None

    for block_id in _block_ids(trace):
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
