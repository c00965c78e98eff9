"""Observer bundle: ambient installation, observing(), JSONL export."""

from repro.obs import Observer, active, deactivate, install, observing
from repro.obs.sink import read_events

_DECISION = dict(
    function="f",
    block="B1",
    target="L1",
    mode="jumps",
    policy="shortest",
    outcome="accepted",
)


class TestAmbient:
    def teardown_method(self):
        deactivate()

    def test_install_active_deactivate(self):
        default = active()
        assert not default.tracer.enabled and not default.decisions.enabled
        obs = Observer()
        assert install(obs) is obs
        assert active() is obs
        assert deactivate() is obs
        assert active() is default

    def test_observing_installs_and_restores(self):
        outer = install(Observer())
        with observing() as inner:
            assert active() is inner
            assert inner is not outer
        assert active() is outer
        deactivate()

    def test_observing_restores_on_exception(self):
        default = active()
        assert not default.tracer.enabled
        try:
            with observing():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert active() is default

    def test_observing_spans_flag(self):
        with observing(spans=False) as obs:
            assert obs.span("x").__class__.__name__ == "_NullSpan"
            assert obs.tracer.spans == []


class TestSnapshotMerge:
    def test_snapshot_merge_round_trip(self):
        worker = Observer()
        with worker.span("work"):
            worker.metrics.inc("n", 3)
            worker.metrics.observe("h", 2)
        worker.decisions.merge_dicts([_DECISION])

        parent = Observer()
        parent.metrics.inc("n", 1)
        parent.merge_snapshot(worker.snapshot())
        assert parent.metrics.counters["n"] == 4
        assert [s.name for s in parent.tracer.spans] == ["work"]
        assert len(parent.decisions) == 1

    def test_disabled_streams_drop_merged_rows(self):
        worker = Observer()
        with worker.span("work"):
            worker.metrics.inc("n")
        worker.decisions.merge_dicts([_DECISION])
        quiet = Observer(spans=False, decisions=False)
        quiet.merge_snapshot(worker.snapshot())
        assert quiet.tracer.spans == []
        assert len(quiet.decisions) == 0
        # Metrics have no off switch: they merge as always.
        assert quiet.metrics.counters["n"] == 1

    def test_merge_empty_snapshot_is_noop(self):
        obs = Observer()
        obs.merge_snapshot(None)
        obs.merge_snapshot({})
        assert obs.tracer.spans == []
        assert obs.metrics.is_empty()


class TestJsonl:
    def test_events_cover_all_three_streams(self):
        obs = Observer()
        with obs.span("work"):
            obs.metrics.inc("n")
        obs.decisions.merge_dicts(
            [
                dict(
                    function="f",
                    block="B1",
                    target="L1",
                    mode="jumps",
                    policy="shortest",
                    outcome="kept",
                    reason="self_loop",
                )
            ]
        )
        kinds = {e["event"] for e in obs.events()}
        assert kinds == {"span", "metrics", "replication.decision"}

    def test_observing_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with observing(jsonl_path=path, label="unit") as obs:
            with obs.span("work"):
                obs.metrics.inc("n")
        events, problems = read_events(path)
        assert problems == []
        meta = events[0]
        assert meta["event"] == "meta" and meta["label"] == "unit"
        assert any(e["event"] == "span" for e in events)
        assert any(e["event"] == "metrics" for e in events)

    def test_observing_writes_jsonl_on_exception(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        try:
            with observing(jsonl_path=path) as obs:
                obs.metrics.inc("n")
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        events, _ = read_events(path)
        assert any(e["event"] == "metrics" for e in events)
