"""Trace-layer tests: RLE round-trip, chunk/flush edges, the traced run."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.ease.interp as interp_module
from repro.benchsuite.programs import PROGRAMS
from repro.ease import Interpreter
from repro.ease.trace import CompressedTrace, RleTraceSink
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.targets import get_target
from tests.traces import compress, expand, folded, limits


class TestRoundTrip:
    def test_empty(self):
        trace = compress([])
        assert expand(trace) == []
        assert len(trace) == 0
        assert trace.record_count == 0

    def test_plain_literals(self):
        ids = [1, 2, 3, 4, 5]
        trace = compress(ids)
        assert expand(trace) == ids
        assert len(trace) == len(ids)

    def test_simple_loop_folds(self):
        ids = [7, 8, 9] * 500
        trace = compress(ids)
        assert expand(trace) == ids
        assert folded(trace) >= 1
        assert trace.compression_ratio > 100

    def test_partial_final_lap(self):
        # The run ends mid-body: the matched prefix must re-surface.
        ids = [1, 2, 3] * 10 + [1, 2, 99]
        trace = compress(ids)
        assert expand(trace) == ids

    def test_nested_repetition_in_prefix(self):
        # Sealing a run re-buffers its prefix; a repetition inside the
        # prefix may itself start a run.  Expansion must survive both.
        ids = ([5, 5, 6] * 8) + [5, 5, 99] + [4] * 20
        trace = compress(ids)
        assert expand(trace) == ids

    def test_single_block_loop(self):
        ids = [3] * 1000
        trace = compress(ids)
        assert expand(trace) == ids
        assert trace.record_count <= 2

    def test_body_longer_than_max_not_folded(self):
        body = list(range(10))
        ids = body * 6
        with limits(max_body=4):
            trace = compress(ids)
        assert expand(trace) == ids
        assert folded(trace) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 6), max_size=300),
        st.sampled_from([1, 2, 3, 8, 64]),
        st.sampled_from([2, 3, 17, 4096]),
    )
    def test_fuzzed_round_trip(self, ids, max_body, chunk_size):
        with limits(max_body, chunk_size):
            trace = compress(ids)
        assert expand(trace) == ids
        assert len(trace) == len(ids)


class TestChunkAndFlushEdges:
    def test_chunk_boundary_splits_literals(self):
        ids = list(range(10))
        with limits(chunk_size=4):
            trace = compress(ids)
        assert expand(trace) == ids
        assert trace.record_count >= 2

    def test_loop_spanning_chunk_boundary(self):
        # Detection state resets at a chunk seal; correctness must not.
        ids = [1, 2] * 50
        for chunk in (2, 3, 5, 7):
            with limits(chunk_size=chunk):
                assert expand(compress(ids)) == ids

    def test_finish_idempotent(self):
        sink = RleTraceSink()
        for block_id in [1, 2, 1, 2, 1, 2]:
            sink.emit(block_id)
        first = sink.finish()
        second = sink.finish()
        assert first is second

    def test_finish_seals_open_run(self):
        ids = [4, 5] * 100  # run still active at finish time
        trace = compress(ids)
        assert expand(trace) == ids


class TestCompressedTraceBehaviour:
    def test_pickle_round_trip(self):
        ids = [1, 2, 3] * 40 + [7, 8]
        trace = compress(ids)
        clone = pickle.loads(pickle.dumps(trace))
        assert isinstance(clone, CompressedTrace)
        assert list(clone.records()) == list(trace.records())
        assert expand(clone) == ids
        assert clone.record_count == trace.record_count

    def test_nbytes_smaller_than_raw_for_loops(self):
        import sys

        ids = [1, 2, 3, 4] * 5000
        trace = compress(ids)
        assert trace.nbytes < sys.getsizeof(ids) / 10


class RecordingSink:
    """The product sink, with the raw stream it was fed kept beside it."""

    def __init__(self):
        self.sink = RleTraceSink()
        self.raw = []

    def emit(self, block_id):
        self.raw.append(block_id)
        self.sink.emit(block_id)

    def finish(self):
        return self.sink.finish()


class TestInterpreterIntegration:
    def run_traced(self, name, monkeypatch):
        """A traced run of ``name`` and the raw block stream it emitted."""
        bench = PROGRAMS[name]
        program = compile_c(bench.source)
        target = get_target("sparc")
        optimize_program(program, target, OptimizationConfig(replication="jumps"))
        sinks = []

        def recording_sink():
            sinks.append(RecordingSink())
            return sinks[-1]

        monkeypatch.setattr(interp_module, "RleTraceSink", recording_sink)
        interp = Interpreter(program, trace=True)
        result = interp.run(bench.stdin)
        (sink,) = sinks
        return interp, result, sink.raw

    @pytest.mark.parametrize("name", ["wc", "sieve", "queens"])
    def test_compressed_equals_raw_sink_output(self, name, monkeypatch):
        interp, result, raw = self.run_traced(name, monkeypatch)
        assert isinstance(result.trace, CompressedTrace)
        assert expand(result.trace) == raw
        assert len(result.trace) == len(raw)
        # The stream is the executed blocks: it agrees with the counts.
        counts = [0] * len(result.block_counts)
        for block_id in raw:
            counts[block_id] += 1
        assert counts == result.block_counts

    def test_loopy_program_compresses(self, monkeypatch):
        _, result, _ = self.run_traced("sieve", monkeypatch)
        assert result.trace.compression_ratio > 5
