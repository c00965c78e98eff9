"""End-to-end span coverage: the phases the tentpole promises to trace."""

import pytest

from repro.api import compile_and_measure
from repro.benchsuite.programs import PROGRAMS
from repro.frontend.codegen import compile_c
from repro.obs import active, observing, pass_table
from repro.opt.driver import OptimizationConfig, optimize_program
from repro.targets.machine import get_target

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
        default = active()
        assert not default.tracer.enabled and not default.decisions.enabled
        result = compile_and_measure("wc", replication="jumps")
        assert result.replication_stats.jumps_replaced >= 1
        assert default.tracer.spans == []
        assert len(default.decisions) == 0

    def test_spans_disabled_still_collects_metrics_and_decisions(self):
        with observing(spans=False) as obs:
            compile_and_measure("wc", replication="jumps")
        assert obs.tracer.spans == []
        assert not obs.metrics.is_empty()
        assert len(obs.decisions) >= 1


class TestPassTable:
    """The ``opt.<pass>`` spans are the one per-pass record;
    :func:`repro.obs.digest.pass_table` folds them."""

    def test_fold_sums_pass_spans(self):
        census = dict(rtl_delta=-2, jumps_removed=1, changed=True)
        spans = [
            {"name": "opt.function", "duration": 1.0, "attrs": {"function": "f"}},
            {"name": "opt.dead_code", "duration": 0.25, "attrs": census},
            {
                "name": "opt.dead_code",
                "duration": 0.5,
                "attrs": dict(rtl_delta=0, jumps_removed=0, changed=False),
            },
            {"name": "jumps.sweep", "duration": 0.1, "attrs": {}},
        ]
        assert pass_table(spans) == {
            "dead_code": {
                "calls": 2,
                "changed": 1,
                "seconds": 0.75,
                "rtl_delta": -2,
                "jumps_removed": 1,
            }
        }

    def test_driver_spans_carry_the_census(self):
        with observing() as obs:
            compile_and_measure("wc", replication="jumps")
        table = pass_table(span.as_dict() for span in obs.tracer.spans)
        assert {"dead_code", "replication", "regalloc"} <= set(table)
        calls = sum(row["calls"] for row in table.values())
        assert calls == obs.metrics.counters["opt.pass_invocations"]
        assert sum(row["seconds"] for row in table.values()) > 0

    @pytest.mark.parametrize("replication", ["none", "loops", "jumps"])
    @pytest.mark.parametrize("target", ["sparc", "m68020"])
    @pytest.mark.parametrize("name", ["wc", "queens", "sieve"])
    def test_census_adds_up(self, name, target, replication):
        """Per-pass deltas sum exactly to the program's static change."""
        program = compile_c(PROGRAMS[name].source)
        insns, jumps = program.insn_count(), program.jump_count()
        with observing() as obs:
            optimize_program(
                program, get_target(target), OptimizationConfig(replication)
            )
        table = pass_table(span.as_dict() for span in obs.tracer.spans)
        rtl_delta = sum(row["rtl_delta"] for row in table.values())
        jumps_removed = sum(row["jumps_removed"] for row in table.values())
        assert rtl_delta == program.insn_count() - insns
        assert jumps_removed == jumps - program.jump_count()
