"""Observability snapshots crossing the parallel execution layer."""

from repro.exec import CellSpec, ParallelRunner, ResultCache, execute_cell
from repro.obs import active, deactivate, observing


class TestExecuteCell:
    def test_result_carries_snapshot(self):
        result = execute_cell(CellSpec(program="wc", replication="jumps"))
        assert result.ok
        assert result.obs is not None
        # Metrics and decisions are always collected; spans only when
        # asked for.
        assert result.obs["spans"] == []
        assert result.obs["metrics"]["counters"]["ease.runs"] == 1
        assert any(
            d["outcome"] == "accepted" for d in result.obs["decisions"]
        )

    def test_observe_flag_collects_spans(self):
        result = execute_cell(
            CellSpec(program="wc", replication="jumps", observe=True)
        )
        names = {s["name"] for s in result.obs["spans"]}
        assert "exec.cell" in names
        assert "opt.function" in names

    def test_ambient_tracer_implies_spans(self):
        with observing():
            result = execute_cell(CellSpec(program="wc"))
        assert any(s["name"] == "exec.cell" for s in result.obs["spans"])

    def test_ambient_observer_restored_and_not_polluted(self):
        with observing() as obs:
            before = len(obs.tracer.spans)
            execute_cell(CellSpec(program="wc"))
            # execute_cell records into its own observer; the ambient one
            # is restored untouched (merging is the runner's job).
            assert active() is obs
            assert len(obs.tracer.spans) == before
        assert not active().tracer.enabled

    def test_failed_cell_still_ships_snapshot(self):
        result = execute_cell(CellSpec(program="int main( {"))
        assert not result.ok
        assert result.obs is not None

    def test_observe_excluded_from_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        plain = CellSpec(program="wc", replication="jumps")
        observed = CellSpec(program="wc", replication="jumps", observe=True)
        assert cache.key(plain) == cache.key(observed)


class TestRunnerMerging:
    def _specs(self):
        return [
            CellSpec(program="wc", replication="jumps"),
            CellSpec(program="queens", replication="jumps"),
        ]

    def test_inline_run_merges_into_ambient(self):
        with observing(spans=False) as obs:
            ParallelRunner(workers=1).run(self._specs())
        assert obs.metrics.counters["ease.runs"] == 2
        assert len(obs.decisions) >= 2

    def test_pool_run_merges_spans_from_workers(self):
        with observing() as obs:
            ParallelRunner(workers=2).run(self._specs())
        cell_spans = [s for s in obs.tracer.spans if s.name == "exec.cell"]
        assert len(cell_spans) == 2
        assert obs.metrics.counters["ease.runs"] == 2

    def test_no_ambient_observer_is_fine(self):
        default = active()
        assert not default.tracer.enabled and not default.decisions.enabled
        results = ParallelRunner(workers=1).run(self._specs())
        assert all(r.ok for r in results)

    def test_disabled_streams_drop_worker_spans_and_decisions(self):
        spec = CellSpec(program="wc", replication="jumps", observe=True)
        with observing(spans=False, decisions=False) as obs:
            (result,) = ParallelRunner(workers=1).run([spec])
        assert result.obs["spans"] and result.obs["decisions"]
        assert obs.tracer.spans == []
        assert len(obs.decisions) == 0
        assert obs.metrics.counters["ease.runs"] == 1

    def test_cache_hits_not_double_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = self._specs()
        with observing(spans=False) as obs:
            ParallelRunner(workers=1, cache=cache).run(specs)
            assert obs.metrics.counters["ease.runs"] == 2
            # Second pass: all hits; the cells' stored snapshots must not
            # be merged again.
            ParallelRunner(workers=1, cache=cache).run(specs)
        assert obs.metrics.counters["ease.runs"] == 2
        assert obs.metrics.counters["exec.cache.hits"] == 2

    def test_cache_counters_reach_ambient_observer(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = CellSpec(program="wc")
        with observing(spans=False) as obs:
            ParallelRunner(workers=1, cache=cache).run([spec])
        assert obs.metrics.counters["exec.cache.misses"] == 1
        assert obs.metrics.counters["exec.cache.writes"] == 1


class TestBenchsuiteRunner:
    def test_run_benchmark_merges_fresh_run(self):
        from repro.benchsuite.runner import clear_cache, run_benchmark

        clear_cache()
        try:
            with observing(spans=False) as obs:
                run_benchmark("wc", replication="jumps", use_cache=False)
            assert obs.metrics.counters["ease.runs"] == 1
            assert len(obs.decisions) >= 1
        finally:
            clear_cache()

    def teardown_method(self):
        deactivate()
