"""Unit tests for the parallel matrix runner and its failure capture."""

import pytest

from repro import compile_and_measure
from repro.benchsuite import clear_cache, run_matrix
from repro.benchsuite import runner as benchsuite_runner
from repro.core.replication import Policy
from repro.exec import (
    CellResult,
    CellSpec,
    ParallelRunner,
    ResultCache,
    execute_cell,
)
from repro.obs import observing

GOOD = CellSpec(program="int main() { return 41; }")
CRASHING = CellSpec(program="int main( {")  # syntax error
GOOD2 = CellSpec(program="int main() { return 43; }")


# --- execute_cell -----------------------------------------------------------------


def test_execute_cell_success_envelope():
    with observing(spans=False) as obs:
        result = execute_cell(CellSpec(program="wc", replication="jumps"))
    assert result.ok
    assert result.measurement.dynamic_jumps == 0
    assert result.replication_stats["jumps_replaced"] > 0
    assert obs.metrics.counters["opt.pass_invocations"] > 0
    assert result.optimize_seconds > 0 and result.measure_seconds > 0
    assert "wc/sparc/jumps" in result.summary()


def test_execute_cell_reference_run():
    result = execute_cell(CellSpec(program="int main() { return 5; }", optimize=False))
    assert result.ok
    assert result.measurement.exit_code == 5
    assert result.replication_stats is None


@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_execute_cell_runs_profile_guided_jumps(threshold):
    """A ``profile_threshold`` cell trains on its own stdin and measures
    what :func:`profile_guided_replication` compiles; the hot/cold jump
    counts ride in ``replication_stats``."""
    from repro.benchsuite import PROGRAMS
    from repro.core.profile_guided import profile_guided_replication
    from repro.ease.measure import measure_program
    from repro.frontend import compile_c
    from repro.targets import get_target

    result = execute_cell(CellSpec("wc", replication="jumps", profile_threshold=threshold))
    assert result.ok, result.error
    bench, sparc = PROGRAMS["wc"], get_target("sparc")
    program = compile_c(bench.source)
    guided = profile_guided_replication(
        program, sparc, train_stdin=bench.stdin, threshold=threshold
    )
    expected = measure_program(program, sparc, stdin=bench.stdin)
    m = result.measurement
    assert (m.static_insns, m.dynamic_insns, m.output) == (
        expected.static_insns, expected.dynamic_insns, expected.output
    )
    stats = result.replication_stats
    assert (stats["hot_jumps"], stats["cold_jumps"]) == (guided.hot_jumps, guided.cold_jumps)
    assert stats["jumps_replaced"] == guided.stats.jumps_replaced


def test_execute_cell_records_ease_engine():
    """``ease_engine="interp"`` runs the closure interpreter (no compiled
    functions are counted) and gives counts identical to the default."""
    with observing(spans=False) as default_obs:
        default = execute_cell(CellSpec(program="wc"))
    with observing(spans=False) as interp_obs:
        interp = execute_cell(CellSpec(program="wc", ease_engine="interp"))
    assert default.ok and interp.ok
    assert default_obs.metrics.counters["ease.compile.functions"] > 0
    assert "ease.compile.functions" not in interp_obs.metrics.counters
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


def test_failed_cache_write_keeps_every_cell(tmp_path, monkeypatch):
    """A full disk loses cache entries, never computed cells: every cell
    comes back ok, each failed write is counted, and no ``.tmp`` is left."""
    import errno
    import os

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)

    monkeypatch.setattr(os, "replace", disk_full)
    cache = ResultCache(tmp_path)
    specs = [CellSpec(program=name) for name in ("wc", "sieve", "queens")]
    with observing(spans=False) as obs:
        results = ParallelRunner(workers=1, cache=cache).run(specs)
    assert [r.spec for r in results] == specs and all(r.ok for r in results)
    assert cache.write_errors == 3 and cache.writes == 0 and len(cache) == 0
    assert obs.metrics.counters["exec.cache.write_errors"] == 3
    assert not list(tmp_path.rglob("*.tmp"))


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


def test_inline_run_stops_on_keyboard_interrupt(monkeypatch):
    """Ctrl-C in an inline cell ends the run instead of becoming an
    error envelope for that cell and moving on to the next."""
    attempts = []

    def interrupted(spec, result):
        attempts.append(spec.program)
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.exec.runner.run_pipeline", interrupted)
    specs = [CellSpec(program=name) for name in ("wc", "sieve", "queens")]
    with pytest.raises(KeyboardInterrupt):
        ParallelRunner(workers=1, cache=None).run(specs)
    assert attempts == ["wc"]


def _die_on_sieve(spec):
    """``execute_cell``, except that a sieve cell kills its worker."""
    import os

    if spec.program == "sieve":
        os._exit(137)
    return execute_cell(spec)


def test_dying_worker_fails_only_its_own_cell(monkeypatch):
    """A worker killed mid-cell breaks its pool; the cells that pool lost
    rerun alone, so only the killer's cells fail, and each death counts."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched execute_cell reaches workers only by fork")
    specs = [
        CellSpec(program=name, replication=config)
        for name in ("wc", "sieve", "queens", "od")
        for config in ("none", "loops", "jumps")
    ]
    serial = ParallelRunner(workers=1).run(specs)
    monkeypatch.setattr("repro.exec.runner.execute_cell", _die_on_sieve)
    with observing(spans=False) as obs:
        results = ParallelRunner(workers=2, cache=None).run(specs)
    assert [r.spec for r in results] == specs
    for want, got in zip(serial, results):
        if got.spec.program == "sieve":
            assert not got.ok and "worker died" in got.error
            assert got.measurement is None
        else:
            assert got.ok, got.error
            assert vars(got.measurement) == vars(want.measurement)
    assert obs.metrics.counters["exec.worker_deaths"] == 3


# --- the benchsuite matrix --------------------------------------------------------


@pytest.fixture
def default_cache():
    """A fresh in-memory default cache for ``run_matrix``."""
    clear_cache()
    yield lambda: benchsuite_runner._default_cache
    clear_cache()


def test_run_matrix_shape_and_memo(default_cache):
    matrix = run_matrix(
        names=["wc"], targets=["sparc"], configs=["none", "jumps"], workers=1
    )
    assert set(matrix) == {("sparc", "none", "wc"), ("sparc", "jumps", "wc")}
    assert default_cache().root is None  # in memory, whatever the environment
    # The matrix seeded the default cache: a rerun hits and returns the
    # very same Measurement objects.
    again = run_matrix(names=["wc"], targets=["sparc"], configs=["jumps"], workers=1)
    assert again[("sparc", "jumps", "wc")] is matrix[("sparc", "jumps", "wc")]
    stats = default_cache().stats()
    assert (stats["entries"], stats["writes"], stats["hits"]) == (2, 2, 1)
    # Opting out of the default cache runs the cell afresh.
    fresh = run_matrix(
        names=["wc"], targets=["sparc"], configs=["jumps"], workers=1, use_memo=False
    )
    assert fresh[("sparc", "jumps", "wc")] is not matrix[("sparc", "jumps", "wc")]
    assert default_cache().stats()["hits"] == 1


def test_run_matrix_reports_failures(default_cache, monkeypatch):
    def explode(spec):
        return CellResult(spec=spec, error="boom")

    monkeypatch.setattr("repro.exec.runner.execute_cell", explode)
    with pytest.raises(RuntimeError, match="matrix cell"):
        run_matrix(names=["wc"], targets=["sparc"], configs=["none"], workers=1)


@pytest.mark.parametrize("policy", ["returns", Policy.FAVOR_RETURNS])
def test_compile_and_measure_resolves_policy(policy):
    """A policy given by name or by value is the cell measured; an
    unknown name is an error."""
    got = compile_and_measure("wc", "sparc", "jumps", policy=policy)
    returns = execute_cell(CellSpec(program="wc", replication="jumps", policy="returns"))
    assert got.config.policy is Policy.FAVOR_RETURNS
    assert vars(got.measurement) == vars(returns.measurement)
    with pytest.raises(KeyError, match="unknown policy"):
        compile_and_measure("wc", "sparc", "jumps", policy="bogus")
