"""Observations crossing the parallel execution layer.

A cell records into the observer of the process that runs it: inline,
the caller's; in a pool, a worker observer whose snapshot ships beside
the result and is merged once.  Results carry no observations.
"""

from repro.exec import CellSpec, ParallelRunner, ResultCache, execute_cell
from repro.exec.runner import _observed_cell
from repro.obs import ReplicationDecision, active, deactivate, observing

#: Optimizes and compiles, then fails at run time (getchar() is -1).
DIVIDES_BY_ZERO = "int main() { int a; a = getchar(); return 5 / (a + 1); }"


class TestExecuteCell:
    def test_result_carries_no_snapshot(self):
        with observing():
            result = execute_cell(CellSpec(program="wc", replication="jumps"))
        assert result.ok
        assert not hasattr(result, "obs")

    def test_inline_cell_records_into_ambient_observer(self):
        with observing(spans=False) as obs:
            execute_cell(CellSpec(program="wc", replication="jumps"))
            assert active() is obs
        assert obs.metrics.counters["ease.runs"] == 1
        assert any(d.outcome == "accepted" for d in obs.decisions.decisions)
        assert not active().tracer.enabled

    def test_ambient_tracer_implies_spans(self):
        with observing() as obs:
            execute_cell(CellSpec(program="wc"))
        names = {s.name for s in obs.tracer.spans}
        assert {"exec.cell", "opt.function"} <= names

    def test_failed_cell_still_ships_snapshot(self):
        result, snapshot = _observed_cell(
            CellSpec(program=DIVIDES_BY_ZERO), spans=True, decisions=True
        )
        assert not result.ok and "ZeroDivisionError" in result.error
        assert snapshot["metrics"]["counters"]["opt.pass_invocations"] > 0
        assert any(s["name"] == "exec.cell" for s in snapshot["spans"])

    def test_quiet_default_builds_no_decisions(self, monkeypatch):
        """Decision events are built only for a log that records them."""
        built = []
        original = ReplicationDecision.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ReplicationDecision, "__init__", counting)
        spec = CellSpec(program="wc", replication="jumps")
        deactivate()
        assert not active().decisions.enabled
        assert execute_cell(spec).ok
        assert built == []
        with observing(spans=False) as obs:
            execute_cell(spec)
        assert len(built) == len(obs.decisions) > 0

    def teardown_method(self):
        deactivate()


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
        """A pool cell's spans and decisions reach the parent once: as
        many as the same cells record inline."""
        with observing() as inline:
            ParallelRunner(workers=1).run(self._specs())
        with observing() as obs:
            ParallelRunner(workers=2).run(self._specs())
        cell_spans = [s for s in obs.tracer.spans if s.name == "exec.cell"]
        assert len(cell_spans) == 2
        assert len(obs.tracer.spans) == len(inline.tracer.spans)
        assert obs.decisions.as_dicts() and len(obs.decisions) == len(inline.decisions)
        assert obs.metrics.counters["ease.runs"] == 2
        for name in ("opt.pass_invocations", "replication.accepted"):
            assert obs.metrics.counters[name] == inline.metrics.counters[name]

    def test_pool_failures_ship_partial_counters(self):
        specs = [CellSpec(program=DIVIDES_BY_ZERO), CellSpec(program=DIVIDES_BY_ZERO)]
        with observing(spans=False) as obs:
            results = ParallelRunner(workers=2).run(specs)
        assert not any(r.ok for r in results)
        assert obs.metrics.counters["opt.pass_invocations"] > 0
        assert obs.metrics.counters["ease.compile.functions"] > 0

    def test_no_ambient_observer_is_fine(self):
        default = active()
        assert not default.tracer.enabled and not default.decisions.enabled
        results = ParallelRunner(workers=1).run(self._specs())
        assert all(r.ok for r in results)

    def test_disabled_streams_drop_worker_spans_and_decisions(self):
        with observing(spans=False, decisions=False) as obs:
            results = ParallelRunner(workers=2).run(self._specs())
        assert all(r.ok for r in results)
        assert obs.tracer.spans == []
        assert len(obs.decisions) == 0
        assert obs.metrics.counters["ease.runs"] == 2

    def test_cache_hits_not_double_counted(self, tmp_path):
        """A cache hit adds only ``exec.cache.*`` counters: no spans, no
        decisions, none of the work an earlier run did."""
        cache = ResultCache(tmp_path)
        specs = self._specs()
        with observing(spans=False) as cold:
            ParallelRunner(workers=1, cache=cache).run(specs)
        assert cold.metrics.counters["ease.runs"] == 2
        with observing() as warm:
            results = ParallelRunner(workers=1, cache=cache).run(specs)
        assert all(r.cache_hit for r in results)
        assert warm.metrics.snapshot()["counters"] == {"exec.cache.hits": 2}
        assert warm.tracer.spans == [] and len(warm.decisions) == 0

    def test_cache_counters_reach_ambient_observer(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = CellSpec(program="wc")
        with observing(spans=False) as obs:
            ParallelRunner(workers=1, cache=cache).run([spec])
        assert obs.metrics.counters["exec.cache.misses"] == 1
        assert obs.metrics.counters["exec.cache.writes"] == 1


class TestBenchsuiteRunner:
    def test_run_matrix_merges_fresh_run(self):
        from repro.benchsuite import run_matrix

        with observing(spans=False) as obs:
            run_matrix(
                names=["wc"], targets=["sparc"], configs=["jumps"],
                workers=1, use_memo=False,
            )
        assert obs.metrics.counters["ease.runs"] == 1
        assert len(obs.decisions) >= 1

    def teardown_method(self):
        deactivate()
