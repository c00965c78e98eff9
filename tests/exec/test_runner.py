"""Unit tests for the parallel matrix runner and its failure capture."""

import pytest

from repro.benchsuite import clear_cache, run_benchmark, run_matrix
from repro.benchsuite import runner as benchsuite_runner
from repro.core.replication import Policy
from repro.exec import (
    CellResult,
    CellSpec,
    ParallelRunner,
    ResultCache,
    execute_cell,
)

GOOD = CellSpec(program="int main() { return 41; }")
CRASHING = CellSpec(program="int main( {")  # syntax error
GOOD2 = CellSpec(program="int main() { return 43; }")


# --- execute_cell -----------------------------------------------------------------


def test_execute_cell_success_envelope():
    result = execute_cell(CellSpec(program="wc", replication="jumps"))
    assert result.ok
    assert result.measurement.dynamic_jumps == 0
    assert result.replication_stats["jumps_replaced"] > 0
    assert result.obs["metrics"]["counters"]["opt.pass_invocations"] > 0
    assert result.optimize_seconds > 0 and result.measure_seconds > 0
    assert "wc/sparc/jumps" in result.summary()


def test_execute_cell_reference_run():
    result = execute_cell(CellSpec(program="int main() { return 5; }", optimize=False))
    assert result.ok
    assert result.measurement.exit_code == 5
    assert result.replication_stats is None


def test_execute_cell_records_ease_engine():
    """``ease_engine="interp"`` runs the closure interpreter (no compiled
    functions are counted) and gives counts identical to the default."""
    default = execute_cell(CellSpec(program="wc"))
    interp = execute_cell(CellSpec(program="wc", ease_engine="interp"))
    assert default.ok and interp.ok
    assert default.obs["metrics"]["counters"]["ease.compile.functions"] > 0
    assert "ease.compile.functions" not in interp.obs["metrics"]["counters"]
    for field in ("static_insns", "dynamic_insns", "dynamic_jumps", "output"):
        assert getattr(interp.measurement, field) == getattr(
            default.measurement, field
        ), field


def test_execute_cell_captures_failure():
    result = execute_cell(CRASHING)
    assert not result.ok
    assert "CompileError" in result.error
    assert result.measurement is None
    assert "FAILED" in result.summary()


# --- ParallelRunner ---------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_runner_preserves_order_and_isolates_failures(workers):
    specs = [GOOD, CRASHING, GOOD2]
    results = ParallelRunner(workers=workers).run(specs)
    assert [r.spec for r in results] == specs
    assert results[0].ok and results[0].measurement.exit_code == 41
    assert not results[1].ok and "CompileError" in results[1].error
    assert results[2].ok and results[2].measurement.exit_code == 43


def test_runner_uses_and_fills_cache(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [GOOD, CRASHING]
    cold = ParallelRunner(workers=1, cache=cache).run(specs)
    assert not any(r.cache_hit for r in cold)
    assert len(cache) == 1 and cache.writes == 1  # failures are never cached

    warm_cache = ResultCache(tmp_path)
    warm = ParallelRunner(workers=1, cache=warm_cache).run(specs)
    assert warm[0].cache_hit and warm[0].measurement.exit_code == 41
    assert not warm[1].cache_hit and not warm[1].ok  # recomputed, fails again
    assert warm_cache.hits == 1
    assert warm_cache.writes == 0  # the published entry is adopted, not redone


def test_runner_on_result_callback():
    seen = []
    ParallelRunner(workers=1).run([GOOD, GOOD2], on_result=seen.append)
    assert len(seen) == 2 and all(isinstance(r, CellResult) for r in seen)


def test_runner_parallel_matches_serial():
    specs = [
        CellSpec(program="wc", target=target, replication=config)
        for target in ("sparc", "m68020")
        for config in ("none", "jumps")
    ]
    serial = ParallelRunner(workers=1).run(specs)
    parallel = ParallelRunner(workers=2).run(specs)
    for s, p in zip(serial, parallel):
        assert s.spec == p.spec
        assert s.measurement.static_insns == p.measurement.static_insns
        assert s.measurement.dynamic_insns == p.measurement.dynamic_insns
        assert s.measurement.output == p.measurement.output


# --- the benchsuite facade --------------------------------------------------------


@pytest.fixture
def default_cache(monkeypatch):
    """A fresh in-memory default cache for the benchsuite facade."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    clear_cache()
    yield lambda: benchsuite_runner._cache(None, True)
    clear_cache()


def test_run_matrix_shape_and_memo(default_cache):
    matrix = run_matrix(
        names=["wc"], targets=["sparc"], configs=["none", "jumps"], workers=1
    )
    assert set(matrix) == {("sparc", "none", "wc"), ("sparc", "jumps", "wc")}
    # The matrix seeded the default cache: run_benchmark is now a hit
    # and returns the very same Measurement objects.
    assert run_benchmark("wc", "sparc", "jumps") is matrix[("sparc", "jumps", "wc")]
    stats = default_cache().stats()
    assert (stats["entries"], stats["writes"], stats["hits"]) == (2, 2, 1)
    # Opting out of the default cache runs the cell afresh.
    fresh = run_benchmark("wc", "sparc", "jumps", use_cache=False)
    assert fresh is not matrix[("sparc", "jumps", "wc")]
    assert default_cache().stats()["hits"] == 1


def test_run_matrix_reports_failures(default_cache, monkeypatch):
    def explode(spec):
        return CellResult(spec=spec, error="boom")

    monkeypatch.setattr("repro.exec.runner.execute_cell", explode)
    with pytest.raises(RuntimeError, match="matrix cell"):
        run_matrix(names=["wc"], targets=["sparc"], configs=["none"], workers=1)


def test_run_benchmark_uses_persistent_cache(tmp_path, monkeypatch, default_cache):
    cache = ResultCache(tmp_path)
    first = run_benchmark("wc", "sparc", "jumps", cache=cache)
    again = run_benchmark("wc", "sparc", "jumps", cache=cache)
    assert cache.hits == 1 and cache.writes == 1
    assert again.dynamic_insns == first.dynamic_insns
    # REPRO_CACHE_DIR makes that directory the default cache.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    from_env = run_benchmark("wc", "sparc", "jumps")
    assert from_env.dynamic_insns == first.dynamic_insns
    assert default_cache().root == tmp_path
    assert default_cache().stats()["hits"] == 1


def test_run_benchmark_verified_run_bypasses_cache(tmp_path, monkeypatch):
    """Under REPRO_VERIFY=full a warm cache neither answers nor is written."""
    cache = ResultCache(tmp_path)
    monkeypatch.setenv("REPRO_VERIFY", "full")
    run_benchmark("wc", "sparc", "jumps", use_cache=False, cache=cache)
    assert cache.writes == 0 and len(cache) == 0

    monkeypatch.delenv("REPRO_VERIFY")
    run_benchmark("wc", "sparc", "jumps", use_cache=False, cache=cache)
    assert cache.writes == 1  # now warm

    monkeypatch.setenv("REPRO_VERIFY", "full")
    run_benchmark("wc", "sparc", "jumps", use_cache=False, cache=cache)
    assert cache.hits == 0 and cache.writes == 1


def test_memo_is_bypassed_under_verification(default_cache, monkeypatch):
    """Under REPRO_VERIFY=full the default in-memory cache neither
    answers nor is seeded: a verified run must actually run."""
    plain = run_benchmark("wc", "sparc", "jumps")
    matrix = run_matrix(names=["wc"], targets=["sparc"], configs=["jumps"], workers=1)
    assert matrix[("sparc", "jumps", "wc")] is plain  # cache hit

    monkeypatch.setenv("REPRO_VERIFY", "full")
    verified = run_benchmark("wc", "sparc", "jumps")
    assert verified is not plain
    assert verified.dynamic_insns == plain.dynamic_insns
    matrix = run_matrix(names=["wc"], targets=["sparc"], configs=["jumps"], workers=1)
    assert matrix[("sparc", "jumps", "wc")] not in (plain, verified)

    monkeypatch.delenv("REPRO_VERIFY")
    assert run_benchmark("wc", "sparc", "jumps") is plain  # not reseeded
    stats = default_cache().stats()
    assert (stats["writes"], stats["hits"]) == (1, 2)


@pytest.mark.parametrize("policy", ["returns", Policy.FAVOR_RETURNS])
def test_run_benchmark_resolves_policy(tmp_path, policy):
    """A policy given by name or by value is the cell measured; an
    unknown name is an error, as an unknown benchmark is."""
    cache = ResultCache(tmp_path)
    run_benchmark("wc", "sparc", "jumps", policy=policy, cache=cache)
    returns = CellSpec(program="wc", replication="jumps", policy="returns")
    assert cache.get_spec(returns) is not None
    with pytest.raises(KeyError, match="unknown policy"):
        run_benchmark("wc", "sparc", "jumps", policy="bogus", cache=cache)


def test_run_benchmark_unknown_name():
    with pytest.raises(KeyError, match="unknown benchmark"):
        run_benchmark("nonesuch")
