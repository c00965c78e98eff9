"""Single-pass multi-configuration cache engine with loop fast-forwarding.

The Table-6 evaluation simulates every traced run against four direct-
mapped cache sizes.  The reference path replays the full block trace
once *per configuration*, re-deriving per-block line sequences each
time; on the longer benchmarks that is four passes over millions of
block ids.  This engine:

* derives each block's cache-line sequence **once** (all paper
  configurations share the 16-byte line size, so line numbers are
  configuration-independent — only the index mask differs);
* walks the trace **once**, maintaining every configuration's cache
  state side by side;
* consumes the compressed records of a
  :class:`~repro.ease.trace.CompressedTrace` directly, exploiting the
  fact that trace bodies are *interned*: for each distinct body and
  configuration a **replay summary** is computed once — per touched
  cache slot, the first and last line fetched, plus the body's internal
  (tag-change) miss count.  Direct-mapped state evolution within a body
  is fully determined by those: replaying a body from any cache state
  costs ``base_misses`` plus one miss per touched slot whose resident
  tag differs from the slot's first line, and leaves each touched slot
  holding its last line.  A record is therefore charged in
  O(touched slots) — and a ``(body, n)`` loop record in O(1) per
  steady-state iteration — instead of O(instruction fetches);
* keeps the exact per-line replay as the fallback for records that
  might cross a context-switch boundary.

Context-switch flush accounting stays *exact*: the summary path is only
taken when the record's final cost provably stays below the next flush
boundary (cost grows monotonically, so no intermediate access can
trigger the flush either); a record that might cross the boundary is
simulated line by line, so flush counts, positions and post-flush cold
misses match the reference engine bit for bit.  Parity with the
per-configuration reference replay (``tests/cache/reference_cache.py``)
over every program, size and context-switch setting is asserted in
``tests/cache/test_engine_parity.py`` and gated in CI.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .direct_mapped import CacheConfig, CacheResult

__all__ = ["simulate_multi_cache", "MultiCacheStats"]


class MultiCacheStats:
    """Fast-forward accounting of one :func:`simulate_multi_cache` call."""

    __slots__ = ("fastforward_iters", "fastforward_hits", "records", "raw_blocks")

    def __init__(self) -> None:
        self.fastforward_iters = 0  # loop iterations charged arithmetically
        self.fastforward_hits = 0  # hit accesses charged arithmetically
        self.records = 0  # compressed records consumed
        self.raw_blocks = 0  # block ids the records expand to


class _BodySummary:
    """Replay algebra of one body under one index mask.

    For each touched slot, a direct-mapped cache's accesses to that slot
    form a line subsequence ``L1..Lk``; replaying from resident tag ``t``
    misses ``changes(L1..Lk) + (1 if t != L1 else 0)`` times and leaves
    ``Lk`` resident.  Summing over slots: ``base`` internal misses plus
    one per mismatched first line, final state = ``last`` — independent
    of access order, which is why the summary path needs no per-line
    walk (order only matters to flush timing, and the summary path is
    gated on no flush being reachable).
    """

    __slots__ = ("n_access", "base", "touched", "steady")

    def __init__(self, lines: Sequence[int], index_mask: int) -> None:
        prev: Dict[int, int] = {}
        first: List[Tuple[int, int]] = []
        base = 0
        for line in lines:
            slot = line & index_mask
            resident = prev.get(slot)
            if resident is None:
                first.append((slot, line))
            elif resident != line:
                base += 1
            prev[slot] = line
        self.n_access = len(lines)
        self.base = base
        #: Per touched slot: (slot, first line fetched, last line fetched).
        self.touched = [
            (slot, line, prev[slot]) for slot, line in first
        ]
        #: Misses of every iteration after the first, when the body
        #: repeats back to back: each touched slot then starts at its
        #: own last line.
        self.steady = base + sum(
            1 for slot, line in first if prev[slot] != line
        )


class _CacheState:
    """One configuration's live simulation state."""

    __slots__ = (
        "index_mask",
        "lines",
        "hit_time",
        "miss_time",
        "interval",
        "next_flush",
        "cache",
        "accesses",
        "misses",
        "cost",
        "flushes",
        "ff_iters",
        "ff_hits",
    )

    def __init__(self, config: CacheConfig, context_switches: bool) -> None:
        self.index_mask = config.lines - 1
        self.lines = config.lines
        self.hit_time = config.hit_time
        self.miss_time = config.miss_penalty
        self.interval = config.context_switch_interval
        self.next_flush: Optional[int] = (
            self.interval if context_switches else None
        )
        self.cache: List[int] = [-1] * config.lines
        self.accesses = 0
        self.misses = 0
        self.cost = 0
        self.flushes = 0
        self.ff_iters = 0
        self.ff_hits = 0

    # --- exact per-line fallback (flush boundaries) ---------------------------

    def replay(self, lines: Sequence[int]) -> None:
        """Replay one line sequence — byte-identical to the reference loop."""
        cache = self.cache
        index_mask = self.index_mask
        hit_time = self.hit_time
        miss_time = self.miss_time
        next_flush = self.next_flush
        accesses = self.accesses
        misses = self.misses
        cost = self.cost
        if next_flush is None:
            for line in lines:
                accesses += 1
                slot = line & index_mask
                if cache[slot] == line:
                    cost += hit_time
                else:
                    cache[slot] = line
                    misses += 1
                    cost += miss_time
        else:
            interval = self.interval
            for line in lines:
                accesses += 1
                slot = line & index_mask
                if cache[slot] == line:
                    cost += hit_time
                else:
                    cache[slot] = line
                    misses += 1
                    cost += miss_time
                if cost >= next_flush:
                    cache = self.cache = [-1] * self.lines
                    self.flushes += 1
                    next_flush += interval
            self.next_flush = next_flush
        self.accesses = accesses
        self.misses = misses
        self.cost = cost

    # --- summary fast path ----------------------------------------------------

    def replay_record_noflush(
        self, summary: _BodySummary, lines: Sequence[int], count: int
    ) -> None:
        """Replay ``count`` body iterations with context switches off.

        With no flush boundary to respect the whole record collapses to
        one fused pass over the touched slots: count the first
        iteration's mismatch misses, install the final tags, and charge
        the remaining ``count - 1`` iterations at the steady-state rate.
        ``lines`` is unused (no exact fallback is ever needed); it is
        accepted so both replay methods share a call shape.
        """
        n_access = summary.n_access
        if n_access == 0 or count <= 0:
            return
        cache = self.cache
        delta = summary.base
        for slot, first, last in summary.touched:
            if cache[slot] != first:
                delta += 1
            cache[slot] = last
        steady = summary.steady
        delta += (count - 1) * steady
        n = n_access * count
        self.accesses += n
        self.misses += delta
        self.cost += n * self.hit_time + delta * (self.miss_time - self.hit_time)
        if count > 1:
            self.ff_iters += count - 1
            self.ff_hits += (count - 1) * (n_access - steady)

    def replay_record(
        self, summary: _BodySummary, lines: Sequence[int], count: int
    ) -> None:
        """Replay ``count`` iterations of one record's body."""
        n_access = summary.n_access
        if n_access == 0 or count <= 0:
            return
        touched = summary.touched
        base = summary.base
        steady = summary.steady
        hit_time = self.hit_time
        extra = self.miss_time - hit_time
        hit_cost = n_access * hit_time
        steady_cost = hit_cost + steady * extra
        # Worst-case first-iteration cost: every touched slot misses.
        worst_cost = hit_cost + (base + len(touched)) * extra
        cache = self.cache
        remaining = count
        while remaining > 0:
            next_flush = self.next_flush
            if next_flush is not None and self.cost + worst_cost < next_flush:
                # Even an all-miss iteration stays below the boundary:
                # fuse the miss scan and the tag install into one pass.
                delta = base
                for slot, first, last in touched:
                    if cache[slot] != first:
                        delta += 1
                    cache[slot] = last
                first_end = self.cost + hit_cost + delta * extra
                iters = 1
                if remaining > 1:
                    if steady_cost:
                        fit = (next_flush - 1 - first_end) // steady_cost
                        if fit > remaining - 1:
                            fit = remaining - 1
                    else:
                        fit = remaining - 1
                    iters += fit
                delta += (iters - 1) * steady
                n = n_access * iters
                self.accesses += n
                self.misses += delta
                self.cost += n * hit_time + delta * extra
                if iters > 1:
                    self.ff_iters += iters - 1
                    self.ff_hits += (iters - 1) * (n_access - steady)
                remaining -= iters
                continue
            # Misses of the next iteration, from the current tags.
            delta = base
            for slot, first, _last in touched:
                if cache[slot] != first:
                    delta += 1
            if next_flush is None:
                iters = remaining
            else:
                first_end = self.cost + hit_cost + delta * extra
                if first_end >= next_flush:
                    # The flush boundary is reachable inside this
                    # iteration: simulate it line by line (exact flush
                    # accounting).
                    self.replay(lines)
                    cache = self.cache
                    remaining -= 1
                    continue
                # Cost is monotone, so any prefix of iterations whose
                # *final* cost stays below the boundary cannot trigger
                # the flush at an intermediate access either; every
                # iteration after the first costs exactly ``steady_cost``
                # (tags are at their fixpoint).  Charge the longest
                # provably-safe prefix.
                iters = 1
                if remaining > 1:
                    if steady_cost:
                        fit = (next_flush - 1 - first_end) // steady_cost
                        if fit > remaining - 1:
                            fit = remaining - 1
                    else:
                        fit = remaining - 1
                    iters += fit
            delta += (iters - 1) * steady
            n = n_access * iters
            self.accesses += n
            self.misses += delta
            self.cost += n * hit_time + delta * extra
            for slot, _first, last in touched:
                cache[slot] = last
            if iters > 1:
                self.ff_iters += iters - 1
                self.ff_hits += (iters - 1) * (n_access - steady)
            remaining -= iters

    def result(self) -> CacheResult:
        return CacheResult(self.accesses, self.misses, self.cost, self.flushes)


def _records_of(trace) -> Iterable[Tuple[Sequence[int], int]]:
    """The ``(body, count)`` record stream of any trace representation."""
    records = getattr(trace, "records", None)
    if callable(records):
        return records()
    return [(trace, 1)]


def simulate_multi_cache(
    trace,
    block_fetches: Dict[int, List[int]],
    configs: Sequence[CacheConfig],
    context_switches=False,
    stats: Optional[MultiCacheStats] = None,
) -> List[CacheResult]:
    """Simulate all ``configs`` in one walk over ``trace``.

    :param trace: a ``CompressedTrace`` (fast path: compressed records,
        per-body replay summaries, loop fast-forwarding) or any iterable
        of global block ids.
    :param context_switches: a single bool for every config, or one bool
        per config — the full Table-6 grid (4 sizes x with/without
        context switches) can thus run as 8 states in a single walk,
        sharing one plan build per distinct body.
    :param stats: optional accounting object filled with fast-forward
        coverage counters.
    :returns: one :class:`CacheResult` per config, in input order —
        each byte-identical to the per-configuration reference replay.
    """
    if isinstance(context_switches, bool):
        ctx_flags = [context_switches] * len(configs)
    else:
        ctx_flags = [bool(flag) for flag in context_switches]
        if len(ctx_flags) != len(configs):
            raise ValueError(
                "context_switches must be a bool or one flag per config "
                f"(got {len(ctx_flags)} flags for {len(configs)} configs)"
            )
    states = [
        _CacheState(config, ctx) for config, ctx in zip(configs, ctx_flags)
    ]

    # One line table per distinct line size (a single one in practice:
    # every paper configuration uses 16-byte lines), and per (body,
    # shift) one flattened line list / per (body, mask) one summary —
    # bodies are interned, so identity-keyed memos pay off across the
    # thousands of records a hot loop seals.
    tables: Dict[int, Dict[int, List[int]]] = {}
    shifts: List[int] = []
    for config in configs:
        shift = config.line_size.bit_length() - 1
        shifts.append(shift)
        if shift not in tables:
            tables[shift] = {
                block_id: [addr >> shift for addr in fetches]
                for block_id, fetches in block_fetches.items()
            }

    no_fetches: List[int] = []
    # Per interned body: [(state, summary, lines), ...] — built on first
    # sight, reused by every later record referencing the same body.
    plans: Dict[int, tuple] = {}

    def build_plan(body) -> List[tuple]:
        flats: Dict[int, List[int]] = {}
        # dict.fromkeys, not set(): first-seen order is hash-seed
        # independent, so plan construction (and any float accumulation
        # downstream) is identical run to run under randomized hashing.
        for shift in dict.fromkeys(shifts):
            table = tables[shift]
            lines: List[int] = []
            extend = lines.extend
            for block_id in body:
                extend(table.get(block_id, no_fetches))
            flats[shift] = lines
        plan = []
        seen: Dict[Tuple[int, int], _BodySummary] = {}
        for state, shift, ctx in zip(states, shifts, ctx_flags):
            key = (shift, state.index_mask)
            summary = seen.get(key)
            if summary is None:
                summary = seen[key] = _BodySummary(
                    flats[shift], state.index_mask
                )
            # A state with no flush boundary gets the fused single-pass
            # replay; summaries are shared across the two context-switch
            # settings (they only depend on shift and mask).
            replay = state.replay_record if ctx else state.replay_record_noflush
            plan.append((replay, summary, flats[shift]))
        return plan

    # Record/block totals are O(1) on a CompressedTrace; only unknown
    # record streams need per-record counting inside the hot loop.
    inline_stats = None
    if stats is not None:
        record_count = getattr(trace, "record_count", None)
        if record_count is not None:
            stats.records += record_count
            stats.raw_blocks += len(trace)
        else:
            inline_stats = stats

    for body, count in _records_of(trace):
        if inline_stats is not None:
            inline_stats.records += 1
            inline_stats.raw_blocks += len(body) * count
        entry = plans.get(id(body))
        if entry is None or entry[0] is not body:
            # Key by identity but pin the body in the entry: a custom
            # record stream could yield ephemeral bodies whose ids get
            # recycled after collection.
            entry = plans[id(body)] = (body, build_plan(body))
        for replay, summary, lines in entry[1]:
            replay(summary, lines, count)

    if stats is not None:
        stats.fastforward_iters = sum(state.ff_iters for state in states)
        stats.fastforward_hits = sum(state.ff_hits for state in states)
    _observe(states, stats)
    return [state.result() for state in states]


def _observe(states: List[_CacheState], stats: Optional[MultiCacheStats]) -> None:
    """Publish fast-forward coverage to the ambient observer."""
    from ..obs import active as _active_observer

    metrics = _active_observer().metrics
    metrics.inc("cachesim.multi.runs")
    metrics.inc(
        "cachesim.fastforward.iters", sum(state.ff_iters for state in states)
    )
    metrics.inc(
        "cachesim.fastforward.hits", sum(state.ff_hits for state in states)
    )
