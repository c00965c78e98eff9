"""End-to-end decision parity: Dijkstra and the Floyd/Warshall oracle.

The acceptance bar for demand-driven step 1 is not "equally good"
replication but *the same* replication as the paper's dense matrix:
identical decision logs (every candidate jump examined, in order, with
the same outcome, sequence kind and sizes) and identical final RTL.  This is checked on the adversarial
random-CFG fuzzer (unstructured graphs: backward branches, multiple
returns), on deterministic unstructured CFGs of 200-400 blocks (the
regime where the dense O(n³) matrix hurts), on random mini-C programs
(while / do-while / bounded forward goto — the shapes the paper is
about) and on all 14 Table-3 programs, the last two through the full
optimizer pipeline.  The oracle is swapped in by patching the one name
the replicator builds step 1 from.
"""

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.benchsuite import PROGRAMS, program_names
from repro.core import CodeReplicator, Policy, ReplicationMode, clone_function
from repro.frontend import compile_c
from repro.obs import observing
from repro.opt import OptimizationConfig, optimize_program
from repro.rtl import format_function
from repro.targets import get_target
from tests.core.floyd_warshall import ShortestPathMatrix
from repro.verify import check_sanitized
from tests.core.test_random_cfgs import fuzzed_function, random_functions
from tests.integration.test_random_programs import programs

ENGINES = ("lazy", "dense")


def step1(engine):
    """Context running replication on ``engine``: the product or the oracle."""
    if engine == "lazy":
        return nullcontext()
    return mock.patch("repro.core.replication.ShortestPaths", ShortestPathMatrix)


def _bounded():
    return CodeReplicator(
        mode=ReplicationMode.JUMPS,
        policy=Policy.SHORTEST,
        max_replications_per_function=60,
        max_function_blocks=120,
    )


def _assert_engine_ran(obs, engine):
    if engine == "dense":  # the patch took: no Dijkstra ran
        assert "sssp.dijkstra_runs" not in obs.metrics.counters


def _run_engine(func, engine, make_replicator=_bounded):
    """(decision rows, final RTL text) of one bounded JUMPS run."""
    work = clone_function(func)
    with observing(spans=False) as obs, step1(engine):
        make_replicator().run(work)
    check_sanitized(work, "jumps")
    _assert_engine_ran(obs, engine)
    return obs.decisions.as_dicts(), format_function(work)


def _pipeline(source, engine):
    """(decision rows, final RTL text) of one full JUMPS optimization."""
    program = compile_c(source)
    with observing(spans=False) as obs, step1(engine):
        optimize_program(
            program,
            get_target("sparc"),
            OptimizationConfig(replication="jumps"),
        )
    _assert_engine_ran(obs, engine)
    rtl = "\n\n".join(format_function(f) for f in program.functions.values())
    return obs.decisions.as_dicts(), rtl


class TestFuzzedCFGParity:
    @settings(max_examples=50, deadline=None)
    @given(random_functions())
    def test_identical_decision_log_and_rtl(self, func):
        lazy_decisions, lazy_rtl = _run_engine(func, "lazy")
        dense_decisions, dense_rtl = _run_engine(func, "dense")
        assert lazy_decisions == dense_decisions
        assert lazy_rtl == dense_rtl

    @settings(max_examples=30, deadline=None)
    @given(random_functions())
    def test_loops_mode_parity(self, func):
        results = {}
        for engine in ENGINES:
            work = clone_function(func)
            with observing(spans=False) as obs, step1(engine):
                CodeReplicator(
                    mode=ReplicationMode.LOOPS,
                    policy=Policy.FAVOR_LOOPS,
                ).run(work)
            results[engine] = (obs.decisions.as_dicts(), format_function(work))
        assert results["lazy"] == results["dense"]


class TestLargeCFGParity:
    """Bounded JUMPS (§6 ``max_rtls``) on ≥200-block unstructured CFGs.

    The bound keeps the run on step 1: without it the pass spends most
    of its time applying, checking and undoing long hopeless sequences,
    work both engines share.
    """

    @pytest.mark.parametrize(
        "n_blocks, seed", [(200, 1000), (300, 1001), (400, 1002)]
    )
    def test_identical_decision_log_and_rtl(self, n_blocks, seed):
        func = fuzzed_function(n_blocks, seed)

        def bounded():
            return CodeReplicator(
                mode=ReplicationMode.JUMPS,
                policy=Policy.SHORTEST,
                max_replications_per_function=80,
                max_function_blocks=len(func.blocks) * 2,
                max_rtls=16,
            )

        lazy_decisions, lazy_rtl = _run_engine(func, "lazy", bounded)
        dense_decisions, dense_rtl = _run_engine(func, "dense", bounded)
        assert lazy_decisions, "no replication decision was made"
        assert lazy_decisions == dense_decisions
        assert lazy_rtl == dense_rtl


class TestMiniCPipelineParity:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(programs())
    def test_full_pipeline_identical_output(self, source):
        lazy = _pipeline(source, "lazy")
        dense = _pipeline(source, "dense")
        assert lazy[0] == dense[0], source
        assert lazy[1] == dense[1], source


class TestSuiteParity:
    @pytest.mark.parametrize("name", program_names())
    def test_identical_decision_log_and_rtl(self, name):
        lazy = _pipeline(PROGRAMS[name].source, "lazy")
        dense = _pipeline(PROGRAMS[name].source, "dense")
        assert lazy[0] == dense[0]
        assert lazy[1] == dense[1]
