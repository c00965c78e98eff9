"""Top-level API and report-formatting tests."""

import pytest

from repro import CompilationResult, compile_and_measure
from repro.report import format_table, mean, pct


class TestCompileAndMeasure:
    def test_inline_source(self):
        result = compile_and_measure("int main() { return 6 * 7; }")
        assert isinstance(result, CompilationResult)
        assert result.exit_code == 42

    def test_benchmark_by_name_uses_default_workload(self):
        result = compile_and_measure("wc", target="m68020")
        assert result.output.strip() != b""

    def test_stdin_override(self):
        result = compile_and_measure(
            "int main() { return getchar(); }", stdin=b"A"
        )
        assert result.exit_code == ord("A")

    def test_policy_by_string(self):
        result = compile_and_measure(
            "sieve", replication="jumps", policy="returns"
        )
        assert result.measurement.dynamic_jumps == 0

    def test_bad_policy_raises(self):
        with pytest.raises(KeyError):
            compile_and_measure("sieve", policy="fastest")

    def test_trace_requested(self):
        result = compile_and_measure("int main() { return 0; }", trace=True)
        assert result.measurement.trace is not None

    def test_replication_stats_exposed(self):
        result = compile_and_measure("wc", replication="jumps")
        assert result.replication_stats.jumps_replaced > 0


class TestReport:
    def test_pct_formatting(self):
        assert pct(110, 100) == "+10.00%"
        assert pct(95, 100) == "-5.00%"
        assert pct(5, 0) == "   n/a"

    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # perfectly aligned
