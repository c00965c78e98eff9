"""End-to-end span coverage: the phases the tentpole promises to trace."""

from repro.api import compile_and_measure
from repro.obs import active, observing
from repro.obs.passes import PassTimeline

JUMPS_STEPS = {
    "jumps.sweep",
    "jumps.step1.shortest_paths",
    "jumps.step2.select",
    "jumps.step3.complete_loops",
    "jumps.step4_5.apply",
    "jumps.step6.reducibility",
}


class TestSpanCoverage:
    def test_all_phases_traced(self):
        with observing() as obs:
            compile_and_measure("wc", replication="jumps")
        names = {s.name for s in obs.tracer.spans}
        # Front end.
        assert {"frontend.parse", "frontend.codegen"} <= names
        # Optimizer: the function wrapper plus per-pass spans.
        assert "opt.function" in names
        assert "opt.replication" in names
        assert "opt.dead_code" in names
        # All six JUMPS steps.
        assert JUMPS_STEPS <= names
        # EASE measurement.
        assert {"ease.layout", "ease.interp", "ease.account"} <= names

    def test_pass_spans_nest_under_function_span(self):
        with observing() as obs:
            compile_and_measure("wc", replication="jumps")
        by_id = {s.span_id: s for s in obs.tracer.spans}
        for span in obs.tracer.spans:
            if span.name.startswith("opt.") and span.name != "opt.function":
                parent = by_id[span.parent_id]
                assert parent.name == "opt.function"
            if span.name == "jumps.sweep":
                parent = by_id[span.parent_id]
                assert parent.name in ("opt.replication", "opt.replication_final")
            if span.name.startswith("jumps.step"):
                parent = by_id[span.parent_id]
                assert parent.name in ("jumps.sweep", "jumps.step2.select")

    def test_function_span_attrs(self):
        with observing() as obs:
            compile_and_measure("wc", replication="jumps")
        func_spans = [s for s in obs.tracer.spans if s.name == "opt.function"]
        assert func_spans
        for span in func_spans:
            assert "function" in span.attrs
            assert span.attrs["iterations"] >= 1
            assert span.attrs["replication"] == "jumps"

    def test_metrics_recorded(self):
        with observing() as obs:
            compile_and_measure("wc", replication="jumps")
        counters = obs.metrics.counters
        assert counters["opt.pass_invocations"] > 0
        assert counters["ease.runs"] == 1
        assert counters["replication.accepted"] >= 1
        hist = obs.metrics.histograms
        assert "replication.sequence_rtls" in hist
        assert "opt.loop_iterations" in hist

    def test_no_observer_records_nothing(self):
        assert active() is None
        result = compile_and_measure("wc", replication="jumps")
        assert result.replication_stats.jumps_replaced >= 1

    def test_spans_disabled_still_collects_metrics_and_decisions(self):
        with observing(spans=False) as obs:
            compile_and_measure("wc", replication="jumps")
        assert obs.tracer.spans == []
        assert not obs.metrics.is_empty()
        assert len(obs.decisions) >= 1


class TestInstrumentShim:
    """Per-pass instrumentation: :class:`repro.obs.passes.PassTimeline`."""

    def test_from_dicts_rebuilds_records(self):
        inst = PassTimeline.from_dicts(
            [
                dict(
                    name="dead_code",
                    seconds=0.1,
                    rtl_delta=-1,
                    jumps_removed=0,
                    changed=True,
                )
            ]
        )
        assert isinstance(inst, PassTimeline)
        assert inst.aggregate()["dead_code"]["calls"] == 1

    def test_instrumentation_still_fills_alongside_observer(self):
        from repro.opt.driver import OptimizationConfig, optimize_program
        from repro.frontend.codegen import compile_c
        from repro.targets.machine import get_target
        from repro.benchsuite.programs import PROGRAMS

        program = compile_c(PROGRAMS["wc"].source)
        inst = PassTimeline()
        with observing():
            optimize_program(
                program,
                get_target("sparc"),
                OptimizationConfig(replication="jumps"),
                inst,
            )
        assert inst.records
        assert inst.total_seconds > 0
