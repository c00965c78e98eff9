"""Mode resolution and how verification threads through the layers:
the high-level API, the exec layer's cache hygiene, and the CLI flag.
"""

import pytest

from repro.exec import CellSpec, CellResult, ParallelRunner, ResultCache
from repro.verify import MiscompileError, Verifier
from repro.verify.verifier import resolve_mode

SRC = "int main() { int a; a = 6; return a * 7; }"


class TestResolveMode:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "full")
        assert resolve_mode("off") == "off"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "sanitize")
        assert resolve_mode(None) == "sanitize"
        monkeypatch.delenv("REPRO_VERIFY")
        assert resolve_mode(None) == "off"

    def test_env_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "  FULL ")
        assert resolve_mode(None) == "full"
        monkeypatch.setenv("REPRO_VERIFY", "")
        assert resolve_mode(None) == "off"

    def test_bad_mode_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_mode("paranoid")
        monkeypatch.setenv("REPRO_VERIFY", "paranoid")
        with pytest.raises(ValueError):
            resolve_mode(None)


class TestApiWiring:
    def test_report_attached(self):
        from repro.api import compile_and_measure

        result = compile_and_measure(SRC, replication="jumps", verify="full")
        assert result.exit_code == 42
        assert result.verification is not None
        assert result.verification["mode"] == "full"
        assert result.verification["oracle_runs"] >= 2

    def test_off_means_no_report(self):
        from repro.api import compile_and_measure

        result = compile_and_measure(SRC, replication="jumps")
        assert result.verification is None

    def test_miscompile_propagates(self, monkeypatch):
        import repro.opt.driver as driver
        from repro.api import compile_and_measure
        from repro.rtl.insn import CondBranch

        real = driver.strength_reduce

        def evil(func):
            changed = real(func)
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, CondBranch) and term.rel == "<":
                    term.rel = "<="
                    return True
            return changed

        monkeypatch.setattr(driver, "strength_reduce", evil)
        source = """
        int main() {
            int i; int s;
            s = 0;
            for (i = 0; i < 5; i++) { s = s + i; }
            return s;
        }
        """
        with pytest.raises(MiscompileError):
            compile_and_measure(source, replication="jumps", verify="full")


class TestExecCacheHygiene:
    def _runner(self, tmp_path):
        return ParallelRunner(workers=1, cache=ResultCache(tmp_path / "cache"))

    def test_verified_cell_bypasses_cache_both_ways(self, tmp_path):
        runner = self._runner(tmp_path)
        spec = CellSpec(program=SRC, replication="jumps", verify="full")
        first = runner.run([spec])[0]
        assert first.ok and not first.cache_hit
        assert first.verification is not None
        # Nothing was written: a second verified run is also fresh.
        second = runner.run([spec])[0]
        assert not second.cache_hit
        # And a clean run of the same cell doesn't see a verified entry.
        clean = runner.run([CellSpec(program=SRC, replication="jumps")])[0]
        assert not clean.cache_hit
        assert clean.verification is None

    def test_clean_cell_still_caches(self, tmp_path):
        runner = self._runner(tmp_path)
        spec = CellSpec(program=SRC, replication="jumps")
        assert not runner.run([spec])[0].cache_hit
        assert runner.run([spec])[0].cache_hit

    def test_env_mode_bypasses_cache(self, tmp_path, monkeypatch):
        runner = self._runner(tmp_path)
        spec = CellSpec(program=SRC, replication="jumps")
        runner.run([spec])  # seed the cache with a clean entry
        monkeypatch.setenv("REPRO_VERIFY", "sanitize")
        result = runner.run([spec])[0]
        assert not result.cache_hit
        assert result.verification is not None
        monkeypatch.delenv("REPRO_VERIFY")
        assert runner.run([spec])[0].cache_hit

    def test_invalid_env_mode_fails_the_run_not_the_cache(
        self, tmp_path, monkeypatch
    ):
        runner = self._runner(tmp_path)
        spec = CellSpec(program=SRC, replication="jumps")
        runner.run([spec])
        monkeypatch.setenv("REPRO_VERIFY", "bogus")
        result = runner.run([spec])[0]
        # The configuration error surfaces from an actual run (captured
        # in the envelope) instead of being masked by a stale cache hit.
        assert not result.cache_hit
        assert not result.ok
        assert "bogus" in (result.error or "")


class TestVerifierReportShape:
    def test_report_keys(self):
        verifier = Verifier("sanitize")
        report = verifier.report()
        assert set(report) == {
            "mode",
            "pass_invocations",
            "sanitize_checks",
            "sanitize_skipped",
            "oracle_runs",
            "bisect_steps",
        }
