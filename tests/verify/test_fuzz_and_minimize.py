"""The fuzz campaign, the delta minimizer, and their cooperation."""

from repro.verify import (
    generate_program,
    minimize_source,
    run_campaign,
    verify_source,
)
from repro.verify.minimize import ddmin_lines


class TestGenerator:
    def test_deterministic_per_seed(self):
        assert generate_program(7) == generate_program(7)
        assert generate_program(7) != generate_program(8)

    def test_generated_programs_compile_and_run(self):
        from tests.conftest import run_c

        for seed in range(5):
            output, exit_code = run_c(generate_program(seed))
            assert output.endswith(b"\n")
            assert 0 <= exit_code <= 255


class TestVerifySource:
    def test_clean_program_full_mode(self):
        report = verify_source(
            "int main() { int a; a = 3; return a * 2; }",
            replication="jumps",
            mode="full",
        )
        assert "failure" not in report
        assert report["oracle_runs"] >= 2

    def test_campaign_small_slice_is_clean(self):
        # Unbounded by default: the max_rtls=64 workaround is gone now
        # that the convergence guard stops the §5.2 cascade at its root.
        result = run_campaign(4, seed=0)
        assert result.ok
        assert result.programs_run == 4
        assert result.totals["pass_invocations"] > 0
        assert result.totals["oracle_runs"] >= 8
        assert result.totals["valve_trips"] == 0
        assert 0 < result.totals["sanitize_skipped"] < result.totals["sanitize_checks"]

    def test_unbounded_campaign_covers_cascading_seed(self):
        # Seed 10 is the historical switch-into-loop cascade shape; an
        # unbounded campaign over it must converge guard-stopped, with
        # the backstop valves silent.
        result = run_campaign(1, seed=10, minimize=False)
        assert result.ok
        assert result.totals["valve_trips"] == 0
        assert result.totals["valve_block_trips"] == 0
        assert result.totals["valve_budget_trips"] == 0

    def test_report_carries_valve_accounting(self):
        report = verify_source(
            "int main() { int a; a = 3; return a * 2; }",
            replication="jumps",
            mode="sanitize",
        )
        for key in (
            "valve_trips",
            "valve_block_trips",
            "valve_budget_trips",
            "guard_stops",
        ):
            assert report[key] == 0


class TestDdmin:
    def test_minimizes_to_single_culprit_line(self):
        lines = [f"line{i}" for i in range(16)]

        def fails(candidate):
            return "line11" in candidate

        kept = ddmin_lines(lines, fails)
        assert kept == ["line11"]

    def test_two_interacting_lines_both_kept(self):
        lines = [f"line{i}" for i in range(10)]

        def fails(candidate):
            return "line2" in candidate and "line7" in candidate

        kept = ddmin_lines(lines, fails)
        assert kept == ["line2", "line7"]

    def test_probe_budget_respected(self):
        calls = []

        def fails(candidate):
            calls.append(1)
            return "x" in candidate

        minimize_source("\n".join(["a"] * 50 + ["x"] + ["b"] * 50), fails,
                        max_probes=20)
        assert len(calls) <= 21  # budget plus the initial sanity probe

    def test_invalid_candidates_are_just_nonfailing(self):
        # A candidate that would crash the compiler counts as "does not
        # fail" — the predicate wrapper absorbs it (mirrors _still_fails).
        lines = ["keep", "noise1", "noise2"]

        def fails(candidate):
            if "noise1" in candidate and "keep" not in candidate:
                raise RuntimeError("broken candidate")
            return "keep" in candidate

        def safe(candidate):
            try:
                return fails(candidate)
            except RuntimeError:
                return False

        assert ddmin_lines(lines, safe) == ["keep"]
