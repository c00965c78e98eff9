"""Streaming block-trace layer: the RLE/loop-compressed trace.

The interpreter used to materialize every executed block id into one
Python ``List[int]`` — millions of pointer-sized entries on the longer
benchmarks, replayed four separate times by the Table-6 cache sweep.
A traced run instead feeds each id to an :class:`RleTraceSink`, which
compresses the stream *while it is produced*: literal stretches are
buffered into chunked ``array('i')`` segments (4-byte entries instead of
8-byte pointers), and hot-loop bodies — repeated block *sequences*,
detected online via a last-occurrence digram table — are folded into
``(body, repeat_count)`` run records.

The result, a :class:`CompressedTrace`, is the one trace form: its
consumers — the single-pass multi-configuration cache engine and the
taken-transfer count — walk :meth:`CompressedTrace.records` and
fast-forward steady-state loops instead of touching every executed
block.

Compression is loss-free by construction: a run record is only created
after the candidate body has been verified element-by-element against
the buffered tail, so expansion always reproduces the raw stream
(property-tested in ``tests/ease/test_trace_sink.py``).
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "RleTraceSink",
    "CompressedTrace",
    "TraceRecord",
    "MAX_LOOP_BODY",
    "LITERAL_CHUNK",
]

#: Longest loop body (in blocks) the online detector folds into a run.
MAX_LOOP_BODY = 64

#: Literal buffer size; a full buffer is sealed into one array record.
LITERAL_CHUNK = 4096

#: One compressed record: a block-id sequence and its repeat count.
#: Literal segments are ``array('i')`` with count 1; loop bodies are
#: tuples with count >= 2.
TraceRecord = Tuple[Sequence[int], int]


class CompressedTrace:
    """An RLE/loop-compressed block trace.

    :meth:`records` yields it as ``(body, count)`` records in execution
    order; ``len`` is the raw number of executed blocks.

    Storage is packed: bodies (loop-body tuples and literal ``array('i')``
    segments) are *interned* — each distinct sequence is stored once, no
    matter how many records reference it — and the record stream is one
    ``array('i')`` of signed tokens: a non-negative token is a body index
    with an implicit repeat count of 1 (a literal segment); a negative
    token ``-(index + 1)`` takes its count from the parallel run-count
    array.  A hot loop that seals and restarts thousands of times (a
    data-dependent branch in the body) therefore costs 4–8 bytes per
    record plus one shared body, instead of a fresh tuple each time.
    Body identity is also what the multi-configuration cache engine keys
    its per-body replay summaries on.
    """

    __slots__ = ("_bodies", "_seq", "_counts", "_raw_length")

    def __init__(
        self,
        bodies: List[Sequence[int]],
        seq: array,
        counts: array,
        raw_length: int,
    ) -> None:
        self._bodies = bodies
        self._seq = seq
        self._counts = counts
        self._raw_length = raw_length

    # --- compressed view -------------------------------------------------------

    def records(self) -> Iterator[TraceRecord]:
        """Yield ``(body, count)`` records in trace order.

        Bodies are shared objects: the same interned sequence reappears
        (same identity) every time a record references it.
        """
        bodies = self._bodies
        counts = iter(self._counts)
        for token in self._seq:
            if token >= 0:
                yield bodies[token], 1
            else:
                yield bodies[-token - 1], next(counts)

    @property
    def record_count(self) -> int:
        return len(self._seq)

    @property
    def compression_ratio(self) -> float:
        """Raw trace length over *stored* elements (interned bodies store
        each distinct sequence once; >= 1.0, higher is better)."""
        stored = sum(len(body) for body in self._bodies)
        stored += len(self._seq) + len(self._counts)  # the record stream
        if stored == 0:
            return 1.0
        return self._raw_length / stored

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the compressed representation."""
        total = (
            sys.getsizeof(self._bodies)
            + sys.getsizeof(self._seq)
            + sys.getsizeof(self._counts)
        )
        for body in self._bodies:
            total += sys.getsizeof(body)
        return total

    def __len__(self) -> int:
        return self._raw_length

    def __repr__(self) -> str:
        return (
            f"<CompressedTrace len={self._raw_length} "
            f"records={len(self._seq)} "
            f"ratio={self.compression_ratio:.1f}x>"
        )

    # --- pickling (``__slots__`` classes need explicit state) ------------------

    def __getstate__(self) -> Tuple[List[Sequence[int]], array, array, int]:
        return (self._bodies, self._seq, self._counts, self._raw_length)

    def __setstate__(
        self, state: Tuple[List[Sequence[int]], array, array, int]
    ) -> None:
        self._bodies, self._seq, self._counts, self._raw_length = state


class RleTraceSink:
    """Online loop-compressing sink.

    Literal ids accumulate in a bounded ``array('i')`` buffer.  For each
    id the sink remembers where in the buffer it last occurred; when the
    id recurs at distance ``d <=`` :data:`MAX_LOOP_BODY` and the last ``d`` buffered
    ids equal the ``d`` before them, those ``2d`` entries fold into an
    active run ``(body, count=2)``.  While a run is active each incoming
    id is matched against the body cursor — one compare per block — and
    every completed lap increments the count.  A mismatch seals the run
    record and re-buffers the partially matched prefix as literals.
    """

    __slots__ = (
        "_bodies",
        "_body_index",
        "_seq",
        "_counts",
        "_pending",
        "_last_index",
        "_run_body",
        "_run_len",
        "_run_count",
        "_run_pos",
        "_finished",
    )

    def __init__(self) -> None:
        # Packed record storage (see CompressedTrace): interned bodies
        # plus the signed token stream and run-count array.
        self._bodies: List[Sequence[int]] = []
        self._body_index: Dict[object, int] = {}
        self._seq: array = array("i")
        self._counts: array = array("i")
        self._pending: array = array("i")
        self._last_index: Dict[int, int] = {}
        self._run_body: Optional[Tuple[int, ...]] = None
        self._run_len = 0
        self._run_count = 0
        self._run_pos = 0
        self._finished: Optional[CompressedTrace] = None

    # --- hot path --------------------------------------------------------------

    def emit(self, block_id: int) -> None:
        body = self._run_body
        while body is not None:
            pos = self._run_pos
            if body[pos] == block_id:
                pos += 1
                if pos == self._run_len:
                    self._run_pos = 0
                    self._run_count += 1
                else:
                    self._run_pos = pos
                return
            # Mismatch: seal the run, then retry against the (possibly
            # new) run the re-buffered prefix may have started.
            self._seal_run()
            body = self._run_body
        # Literal path, inlined (one call frame per executed block).
        pending = self._pending
        position = len(pending)
        pending.append(block_id)
        last_index = self._last_index
        previous = last_index.get(block_id)
        last_index[block_id] = position
        if previous is not None:
            distance = position - previous
            if (
                distance <= MAX_LOOP_BODY
                and position + 1 >= 2 * distance
                # One-element precheck: the candidate's final interior
                # pair must match before paying for the slice compare.
                and (
                    distance == 1
                    or pending[position - 1] == pending[position - 1 - distance]
                )
                and pending[-distance:] == pending[-2 * distance : -distance]
            ):
                run = tuple(pending[-distance:])
                del pending[len(pending) - 2 * distance :]
                self._flush_pending()
                self._run_body = run
                self._run_len = distance
                self._run_count = 2
                self._run_pos = 0
                return
        if position + 1 >= LITERAL_CHUNK:
            self._flush_pending()

    # --- record management -----------------------------------------------------

    #: ``array('i')`` is signed 32-bit; counts above this are split into
    #: several records of the same (shared) body.
    _MAX_COUNT = 0x7FFFFFFF

    def _append_record(self, key: object, body: Sequence[int], count: int) -> None:
        """Intern ``body`` (by content ``key``) and append one record.

        Encoding: count 1 appends the bare body index; count > 1 appends
        ``-(index + 1)`` and pushes the count onto the run-count array.
        """
        index = self._body_index.get(key)
        if index is None:
            index = len(self._bodies)
            self._body_index[key] = index
            self._bodies.append(body)
        while count > self._MAX_COUNT:
            self._seq.append(-index - 1)
            self._counts.append(self._MAX_COUNT)
            count -= self._MAX_COUNT
        if count == 1:
            self._seq.append(index)
        else:
            self._seq.append(-index - 1)
            self._counts.append(count)

    def _flush_pending(self) -> None:
        pending = self._pending
        if pending:
            key = pending.tobytes()
            # Re-materialize from the bytes so the stored body is
            # exact-sized (append growth over-allocates).
            self._append_record(key, array("i", key), 1)
            self._pending = array("i")
        self._last_index.clear()

    def _seal_run(self) -> None:
        body = self._run_body
        assert body is not None
        self._append_record(body, body, self._run_count)
        prefix = body[: self._run_pos]
        self._run_body = None
        self._run_len = 0
        self._run_count = 0
        self._run_pos = 0
        # Re-buffer the partially matched lap through ``emit`` so a
        # repetition inside the prefix can itself start a run — and so
        # later prefix blocks are matched against that nested run (each
        # nested prefix is strictly shorter, so this terminates).
        for block_id in prefix:
            self.emit(block_id)

    def finish(self) -> CompressedTrace:
        if self._finished is None:
            if self._run_body is not None:
                self._seal_run()
            self._flush_pending()
            # The raw length falls out of the records — no per-emit
            # counter on the hot path.
            lengths = [len(body) for body in self._bodies]
            counts = iter(self._counts)
            raw_length = 0
            for token in self._seq:
                if token >= 0:
                    raw_length += lengths[token]
                else:
                    raw_length += lengths[-token - 1] * next(counts)
            self._finished = CompressedTrace(
                self._bodies, self._seq, self._counts, raw_length
            )
        return self._finished

