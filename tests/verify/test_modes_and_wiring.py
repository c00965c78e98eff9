"""The verify mode and how it threads through the layers: the
high-level API, the exec layer's cache hygiene, and the CLI flag.
"""

import pytest

from repro.exec import CellSpec, CellResult, ParallelRunner, ResultCache
from repro.verify import MiscompileError, Verifier

SRC = "int main() { int a; a = 6; return a * 7; }"


class TestResolveMode:
    def test_default_is_off(self):
        assert CellSpec(program="wc").verify == "off"
        assert Verifier().mode == "off"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="paranoid"):
            CellSpec(program="wc", verify="paranoid")
        with pytest.raises(ValueError, match="paranoid"):
            Verifier("paranoid")
        with pytest.raises(ValueError):
            CellSpec(program="wc", verify=None)


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
    """Verified cells and the result cache, on disk; the subclass below
    runs every case again on an in-memory cache."""

    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def test_verified_cell_bypasses_cache_both_ways(self, cache):
        runner = ParallelRunner(workers=1, cache=cache)
        spec = CellSpec(program=SRC, replication="jumps", verify="full")
        first = runner.run([spec])[0]
        assert first.ok and not first.cache_hit
        assert first.verification is not None
        # Nothing was written: a second verified run is also fresh.
        second = runner.run([spec])[0]
        assert not second.cache_hit
        assert (cache.hits, cache.misses, cache.writes) == (0, 0, 0)
        # And a clean run of the same cell doesn't see a verified entry.
        clean = runner.run([CellSpec(program=SRC, replication="jumps")])[0]
        assert not clean.cache_hit
        assert clean.verification is None

    @pytest.mark.parametrize("mode", ["sanitize", "full"])
    def test_warm_cache_skips_verified(self, cache, mode):
        runner = ParallelRunner(workers=1, cache=cache)
        spec = CellSpec(program=SRC, replication="jumps")
        runner.run([spec])  # seed the cache with a clean entry
        verified = CellSpec(program=SRC, replication="jumps", verify=mode)
        assert cache.key(verified) == cache.key(spec)  # one entry, two modes
        result = runner.run([verified])[0]
        assert not result.cache_hit
        assert result.verification["mode"] == mode
        assert cache.writes == 1  # the verified run wrote nothing
        assert runner.run([spec])[0].cache_hit

    def test_clean_cell_still_caches(self, cache):
        runner = ParallelRunner(workers=1, cache=cache)
        spec = CellSpec(program=SRC, replication="jumps")
        assert not runner.run([spec])[0].cache_hit
        assert runner.run([spec])[0].cache_hit


class TestMemoryCacheHygiene(TestExecCacheHygiene):
    @pytest.fixture
    def cache(self):
        return ResultCache(None)


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


class TestBudgetedReplay:
    """``Verifier("off", budget=k)`` — the bisection replay — lets
    exactly ``k`` pass invocations run and skips every later one."""

    @staticmethod
    def _optimize(verifier):
        from repro.frontend import compile_c
        from repro.obs import observing
        from repro.opt.driver import OptimizationConfig, optimize_program

        with observing(spans=False) as obs:
            optimize_program(
                compile_c(SRC), "sparc", OptimizationConfig("jumps"), verifier
            )
        return obs.metrics.counters.get("opt.pass_invocations", 0)

    @pytest.mark.parametrize("which", ["zero", "one", "all"])
    def test_budget_runs_exactly_k_passes(self, which):
        full = Verifier("off")
        assert self._optimize(full) == len(full.pass_trace) > 1
        k = {"zero": 0, "one": 1, "all": len(full.pass_trace)}[which]
        replay = Verifier("off", budget=k)
        assert self._optimize(replay) == k
        assert len(replay.pass_trace) == k
        assert replay.pass_trace == full.pass_trace[:k]
