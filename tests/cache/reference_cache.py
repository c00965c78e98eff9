"""The per-configuration direct-mapped replay, kept as a test oracle.

It replays every instruction fetch through one cache configuration, the
way §5.3 of the paper describes the simulation.  The product engine,
:func:`repro.cache.simulate_multi_cache`, walks the trace once for many
configurations and fast-forwards steady-state loops; the parity suite
(``test_engine_parity.py``) checks the two agree byte for byte.  It
lives beside the tests that use it, outside the installed package,
because nothing else calls it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cache import CacheConfig, CacheResult


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
