"""The instruction-cache engine: every configuration in one trace walk.

The Table-6 evaluation simulates every traced run against many cache
configurations, and the §6 extension adds N-way LRU caches.  This
engine serves them all from one walk over the trace:

* each block's cache-line sequence is derived **once** (every
  configuration has the paper's 16-byte line, so line numbers are
  configuration-independent — only the index mask differs);
* it consumes the records of a
  :class:`~repro.ease.trace.CompressedTrace` directly.  Trace bodies are
  *interned*, so for each distinct body and direct-mapped geometry a
  **replay summary** is computed once (one walk of the body fills every
  geometry's): per touched cache slot, the first
  and last line fetched, plus the body's internal (tag-change) miss
  count.  Replaying a body from any cache state costs those internal
  misses plus one per touched slot whose resident line differs from the
  slot's first line, and leaves each touched slot holding its last line.
  Every iteration after the first of a ``(body, n)`` loop record starts
  from the body's own last lines, so it costs the same *steady* count;
* one pass over a record charges every direct-mapped configuration
  inline, with no per-configuration call.  A state without context
  switches only counts first-iteration mismatches and installs the last
  lines; its accesses and its base and steady misses are folded in once
  per body at the end, from how many records and iterations referenced
  that body;
* an N-way LRU state, simulated without context switches (the §6
  table measures none), replays a record's first iteration access by
  access and charges the rest at the cost of an iteration from the
  body's LRU fixed point, found once per body: after a full iteration
  each set holds the body's lines by last use, then older residents in
  their old order, and a further iteration leaves that unchanged.

Context-switch flush accounting stays *exact*: a record is charged in
bulk only when its exact final cost stays below the next flush boundary
(cost only grows, so no access inside it can trigger the flush either).
Otherwise its iterations are charged in runs that stay below the
boundary, and the one that reaches it is simulated line by line, so
flush counts, positions and post-flush cold misses match the
per-configuration reference replays (``tests/cache/reference_cache.py``)
bit for bit; ``tests/cache/test_engine_parity.py`` asserts it.  The
flush interval is :data:`~repro.cache.direct_mapped.CONTEXT_SWITCH_INTERVAL`,
read from that module, so a test may lower it around a call.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from math import inf
from operator import itemgetter, ne
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from . import direct_mapped
from .direct_mapped import HIT_TIME, LINE_SIZE, MISS_PENALTY, CacheConfig, CacheResult

if TYPE_CHECKING:
    from ..ease.trace import CompressedTrace

__all__ = ["simulate_multi_cache", "MultiCacheStats"]


class MultiCacheStats:
    """Fast-forward accounting of one :func:`simulate_multi_cache` call."""

    __slots__ = ("fastforward_iters", "fastforward_hits", "records", "raw_blocks")

    def __init__(self) -> None:
        self.fastforward_iters = 0  # loop iterations charged arithmetically
        self.fastforward_hits = 0  # hit accesses charged arithmetically
        self.records = 0  # compressed records consumed
        self.raw_blocks = 0  # block ids the records expand to


class _Summary:
    """Replay algebra of one body in one direct-mapped geometry.

    For each touched slot, a direct-mapped cache's accesses to that slot
    form a line subsequence ``L1..Lk``; replaying from resident line
    ``t`` misses ``changes(L1..Lk) + (1 if t != L1 else 0)`` times and
    leaves ``Lk`` resident.  Summing over slots: ``base`` internal misses
    plus one per mismatched first line, final state = the last lines —
    independent of access order, which is why a record needs no per-line
    walk unless a flush falls inside it.
    """

    __slots__ = (
        "n_access", "base", "steady", "first", "last", "get", "firsts",
        "multi", "moves",
    )

    def __init__(self, n_access: int, first: dict, last: dict, base: int) -> None:
        #: Per touched slot, the first and the last line fetched.
        self.first = first
        self.last = last
        self.n_access = n_access
        self.base = base
        #: Misses of every iteration after the first, when the body
        #: repeats back to back: each touched slot then starts at its
        #: own last line.
        self.steady = base + sum(
            map(ne, first.values(), map(last.__getitem__, first))
        )
        # The walk reads the touched slots with one C call and compares
        # them with the first lines as a whole: ``get(cache)`` is a
        # tuple, or a lone line when one slot is touched (``multi``
        # false).  ``moves``: some slot's last line is not its first.
        self.get = itemgetter(*first)
        self.firsts = self.get(first)
        self.multi = len(first) > 1
        self.moves = first != last


def _summaries(n_access: int, runs: list, masks: list) -> Dict[int, _Summary]:
    """A body's summary per index mask, from one walk of its ``runs`` (a
    repeated line hits and changes nothing).  ``masks`` ascend, and a cache
    holds every line a smaller one holds: a hit ends a line's walk up them.
    """
    geometries = [(mask, {}, {}, i) for i, mask in enumerate(masks)]
    bases = [0] * len(geometries)
    for line in runs:
        for mask, first, last, i in geometries:
            slot = line & mask
            resident = last.get(slot, -1)
            if resident == line:
                break
            if resident < 0:
                first[slot] = line
            else:
                bases[i] += 1
            last[slot] = line
    return {mask: _Summary(n_access, first, last, bases[i])
            for mask, first, last, i in geometries}


class _State:
    """One configuration's counters, read and written inline by the walk.

    ``misses`` and the fast-forward counters hold only what the records
    cost beyond the per-body fold: first-iteration misses and flush
    corrections.  ``cost`` is kept only under context switches.
    """

    __slots__ = (
        "mask", "ways", "next_flush", "cache", "accesses", "misses", "cost",
        "flushes", "ff_iters", "ff_hits",
    )

    def __init__(self, config: CacheConfig, switches: bool) -> None:
        self.mask = config.sets - 1
        self.ways = config.associativity
        self.next_flush = direct_mapped.CONTEXT_SWITCH_INTERVAL if switches else inf
        # Direct mapped: slot -> resident line (-1: empty), a dict so a
        # body's last lines install with one update.  N-way (never
        # flushed): per set, its resident lines, most recently used
        # first.  A flush clears it in place, so the walk's plans may
        # hold it.
        self.cache = (
            dict.fromkeys(range(config.sets), -1)
            if self.ways == 1
            else [[] for _ in range(config.sets)]
        )
        self.accesses = 0
        self.misses = 0
        self.cost = 0
        self.flushes = 0
        self.ff_iters = 0
        self.ff_hits = 0

    def flush(self) -> None:
        """A context switch: invalidate every line of a direct-mapped cache."""
        self.cache.update(dict.fromkeys(self.cache, -1))
        self.flushes += 1
        self.next_flush += direct_mapped.CONTEXT_SWITCH_INTERVAL

    def result(self) -> CacheResult:
        hits = self.accesses - self.misses
        cost = hits * HIT_TIME + self.misses * MISS_PENALTY
        return CacheResult(self.accesses, self.misses, cost, self.flushes)


def _charge_across_flush(
    state: _State, summary: _Summary, lines: Sequence[int], count: int
) -> None:
    """Charge a record that reaches a direct-mapped state's next flush.

    Runs of iterations that stay below the boundary are charged from the
    summary; the iteration that reaches it is replayed line by line,
    byte-identical to the reference loop.
    """
    n_access = summary.n_access
    base = summary.base
    steady = summary.steady
    first = summary.first.items()
    extra = MISS_PENALTY - HIT_TIME
    steady_cost = n_access * HIT_TIME + steady * extra
    cache = state.cache
    mask = state.mask
    misses = ff_iters = 0
    remaining = count
    while remaining:
        delta = base + sum(cache[slot] != line for slot, line in first)
        first_end = state.cost + n_access * HIT_TIME + delta * extra
        if first_end >= state.next_flush:
            for line in lines:
                slot = line & mask
                if cache[slot] == line:
                    state.cost += HIT_TIME
                else:
                    cache[slot] = line
                    misses += 1
                    state.cost += MISS_PENALTY
                if state.cost >= state.next_flush:
                    state.flush()
            remaining -= 1
            continue
        # Every iteration after the first costs ``steady_cost`` (the tags
        # are at their fixed point): charge the longest run whose final
        # cost stays below the boundary.
        iters = remaining
        if steady_cost:
            iters = min(iters, 1 + (state.next_flush - 1 - first_end) // steady_cost)
        misses += delta + (iters - 1) * steady
        state.cost = first_end + (iters - 1) * steady_cost
        ff_iters += iters - 1
        cache.update(summary.last)
        remaining -= iters
    # The per-body fold charges every record ``base + (count - 1) *
    # steady`` misses and ``count - 1`` fast-forwarded iterations: book
    # the difference.
    state.misses += misses - base - (count - 1) * steady
    lost = count - 1 - ff_iters
    state.ff_iters -= lost
    state.ff_hits -= lost * (n_access - steady)


def _lru_pass(sets, lines: Sequence[int], mask: int, ways: int) -> int:
    """Replay ``lines`` through N-way LRU ``sets`` with no flush; the misses."""
    misses = 0
    for line in lines:
        bucket = sets[line & mask]
        if line in bucket:
            if bucket[0] != line:
                bucket.remove(line)
                bucket.insert(0, line)
        else:
            misses += 1
            bucket.insert(0, line)
            if len(bucket) > ways:
                bucket.pop()
    return misses


def _lru_steady(runs: Sequence[int], mask: int, ways: int) -> int:
    """Misses of one iteration of a body from its LRU fixed point.

    After a whole iteration with no flush, each set holds the body's
    lines by last use (its ``ways`` most recent), then older residents
    in their old order.  An iteration from there only reorders the
    body's own lines, so what it misses depends on the body alone: the
    second of two passes from empty sets.
    """
    sets = defaultdict(list)
    _lru_pass(sets, runs, mask, ways)
    return _lru_pass(sets, runs, mask, ways)


def simulate_multi_cache(
    trace: CompressedTrace,
    block_fetches: Dict[int, List[int]],
    configs: Sequence[CacheConfig],
    context_switches=False,
    stats: Optional[MultiCacheStats] = None,
) -> List[CacheResult]:
    """Simulate all ``configs`` in one walk over ``trace``.

    :param trace: the run's block trace, walked record by record.
    :param configs: direct-mapped or N-way LRU caches, in any mix.
    :param context_switches: a single bool for every config, or one bool
        per config — the full Table-6 grid (sizes x with/without context
        switches) thus runs in a single walk, sharing one plan build per
        distinct body.  An N-way cache takes ``False``: a
        ``ValueError`` is raised, before the walk, for one with its
        flag set.
    :param stats: optional accounting object filled with fast-forward
        coverage counters.
    :returns: one :class:`CacheResult` per config, in input order —
        each byte-identical to the per-configuration reference replay.
    """
    if isinstance(context_switches, bool):
        flags = [context_switches] * len(configs)
    else:
        flags = [bool(flag) for flag in context_switches]
        if len(flags) != len(configs):
            raise ValueError(
                "context_switches must be a bool or one flag per config "
                f"(got {len(flags)} flags for {len(configs)} configs)"
            )
    for config, flag in zip(configs, flags):
        if flag and config.associativity > 1:
            raise ValueError(
                "an N-way cache is simulated without context switches "
                f"(got {config.associativity} ways with context switches)"
            )
    states = [_State(config, flag) for config, flag in zip(configs, flags)]
    shift = LINE_SIZE.bit_length() - 1
    table = {
        block_id: [addr >> shift for addr in fetches]
        for block_id, fetches in block_fetches.items()
    }
    # The direct-mapped index masks, ascending.
    masks = sorted({state.mask for state in states if state.ways == 1})
    extra = MISS_PENALTY - HIT_TIME

    def build_plan(body) -> tuple:
        """What every state does with one body, built on first sight.

        ``(body, [records, iterations], plain, switching, lru, folds)``:
        the inline arguments of the direct-mapped states without and
        with context switches and of the N-way states, and per state
        what the end-of-walk fold needs.
        """
        lines: List[int] = []
        for block_id in body:
            lines.extend(table.get(block_id, ()))
        plain, switching, lru, folds = [], [], [], []
        if not lines:
            return body, [0, 0], plain, switching, lru, folds
        runs = [line for line, _ in groupby(lines)]
        summaries = _summaries(len(lines), runs, masks)
        steadies: Dict[tuple, int] = {}
        for state, flag in zip(states, flags):
            if state.ways > 1:
                key = (state.mask, state.ways)
                steady = steadies.get(key)
                if steady is None:
                    steady = steadies[key] = _lru_steady(runs, state.mask, state.ways)
                folds.append((state, len(lines), 0, steady))
                # With no flush a repeated line is a hit: replay runs.
                lru.append((state, state.cache, runs, state.mask, state.ways))
                continue
            s = summaries[state.mask]
            folds.append((state, s.n_access, s.base, s.steady))
            inline = (state, state.cache, s.get, s.firsts, s.last, s.multi, s.moves)
            if not flag:
                plain.append(inline)
                continue
            hit_cost = s.n_access * HIT_TIME
            first_cost = hit_cost + s.base * extra
            steady_cost = hit_cost + s.steady * extra
            switching.append(inline + (first_cost, steady_cost, s, lines))
        return body, [0, 0], plain, switching, lru, folds

    # Per interned body, its plan, keyed by identity: the trace holds
    # every body for the whole walk.
    plans: Dict[int, tuple] = {}
    for body, count in trace.records():
        entry = plans.get(id(body))
        if entry is None:
            entry = plans[id(body)] = build_plan(body)
        tally = entry[1]
        tally[0] += 1
        tally[1] += count
        # No context switches: count the first lines not resident and
        # install the last ones; the fold charges the rest.
        for state, cache, get, firsts, lasts, multi, moves in entry[2]:
            now = get(cache)
            if now != firsts:
                state.misses += sum(map(ne, now, firsts)) if multi else 1
                cache.update(lasts)
            elif moves:
                cache.update(lasts)
        # Context switches: the same, when the record's exact final cost
        # stays below the next flush.
        for (state, cache, get, firsts, lasts, multi, moves,
             first_cost, steady_cost, summary, lines) in entry[3]:
            now = get(cache)
            delta = 0
            if now != firsts:
                delta = sum(map(ne, now, firsts)) if multi else 1
            end = state.cost + first_cost + delta * extra + (count - 1) * steady_cost
            if end < state.next_flush:
                state.cost = end
                if delta:
                    state.misses += delta
                    cache.update(lasts)
                elif moves:
                    cache.update(lasts)
            else:
                _charge_across_flush(state, summary, lines, count)
        # N-way: the first iteration replayed, the rest at the fixed
        # point, charged by the fold.
        for state, sets, runs, mask, ways in entry[4]:
            state.misses += _lru_pass(sets, runs, mask, ways)

    # The per-body fold, for every state: the accesses, each record's
    # base misses (direct mapped) and, for every iteration after a
    # record's first, its steady misses as a fast-forwarded iteration.
    records = raw_blocks = 0
    for body, (body_records, iters), *_, folds in plans.values():
        records += body_records
        raw_blocks += len(body) * iters
        repeats = iters - body_records
        for state, n_access, base, steady in folds:
            state.accesses += n_access * iters
            state.misses += body_records * base + repeats * steady
            state.ff_iters += repeats
            state.ff_hits += repeats * (n_access - steady)

    ff_iters = sum(state.ff_iters for state in states)
    ff_hits = sum(state.ff_hits for state in states)
    if stats is not None:
        stats.records += records
        stats.raw_blocks += raw_blocks
        stats.fastforward_iters = ff_iters
        stats.fastforward_hits = ff_hits
    _observe(ff_iters, ff_hits)
    return [state.result() for state in states]


def _observe(ff_iters: int, ff_hits: int) -> None:
    """Publish fast-forward coverage to the ambient observer."""
    from ..obs import active as _active_observer

    metrics = _active_observer().metrics
    metrics.inc("cachesim.multi.runs")
    metrics.inc("cachesim.fastforward.iters", ff_iters)
    metrics.inc("cachesim.fastforward.hits", ff_hits)
