"""Block traces for tests: a list of block ids to and from a ``CompressedTrace``.

A traced run yields a :class:`~repro.ease.trace.CompressedTrace` and
nothing else; tests that think in raw block ids build one with
:func:`compress` (through the product sink, so every record shape the
product makes can appear) and read one back with :func:`expand`;
:func:`folded` counts its folded loop records; :func:`limits` shortens
the sink's loop-body bound and literal chunk, so short traces break
into many records.
"""

from typing import Iterable, List
from unittest import mock

import repro.ease.trace as trace_module
from repro.ease.trace import CompressedTrace, RleTraceSink


def compress(ids: Iterable[int]) -> CompressedTrace:
    """The trace a run executing blocks ``ids`` in order records."""
    sink = RleTraceSink()
    for block_id in ids:
        sink.emit(block_id)
    return sink.finish()


def expand(trace: CompressedTrace) -> List[int]:
    """The executed block ids of ``trace``, in order."""
    return [
        block_id
        for body, count in trace.records()
        for _ in range(count)
        for block_id in body
    ]


def folded(trace: CompressedTrace) -> int:
    """How many records of ``trace`` are folded loop bodies (count > 1)."""
    return sum(1 for _, count in trace.records() if count > 1)


def limits(
    max_body: int = trace_module.MAX_LOOP_BODY,
    chunk_size: int = trace_module.LITERAL_CHUNK,
):
    """Within the ``with`` block, fold loop bodies of at most
    ``max_body`` blocks and seal literals every ``chunk_size`` ids."""
    return mock.patch.multiple(
        trace_module, MAX_LOOP_BODY=max_body, LITERAL_CHUNK=chunk_size
    )
