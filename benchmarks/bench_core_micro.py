"""Micro-benchmarks of the core machinery itself.

These use pytest-benchmark conventionally (multiple rounds) to time:

* the Floyd/Warshall shortest-path matrix (the step-1 test oracle),
* one full JUMPS run on a branchy function,
* the Figure-3 optimizer pipeline on a mid-size program,
* the direct-mapped cache simulator's replay loop.
"""

from __future__ import annotations

from repro.benchsuite import PROGRAMS, run_benchmark
from repro.cache import CacheConfig, simulate_cache
from repro.cfg import build_function
from repro.core import clone_function, replicate_jumps
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_program
from repro.rtl import parse_insns
from repro.targets import get_target
from repro.verify.floyd_warshall import ShortestPathMatrix

_BRANCHY = """
  NZ=d[0]?1;
  PC=NZ==0,L2;
  d[1]=1;
  PC=L9;
L2:
  NZ=d[0]?2;
  PC=NZ==0,L3;
  d[1]=2;
  PC=L9;
L3:
  NZ=d[0]?3;
  PC=NZ==0,L4;
  d[1]=3;
  PC=L9;
L4:
  d[1]=4;
L9:
  d[2]=d[1]*2;
  PC=RT;
"""


def _branchy_function():
    return build_function("branchy", parse_insns(_BRANCHY))


def test_shortest_path_matrix(benchmark):
    func = _branchy_function()
    benchmark(ShortestPathMatrix, func)


def test_jumps_replication(benchmark):
    template = _branchy_function()

    def run():
        func = clone_function(template)
        replicate_jumps(func)
        return func

    result = benchmark(run)
    assert result.jump_count() == 0


def test_full_pipeline_wc(benchmark):
    target = get_target("sparc")
    source = PROGRAMS["wc"].source

    def run():
        program = compile_c(source)
        optimize_program(program, target, OptimizationConfig(replication="jumps"))
        return program

    program = benchmark(run)
    assert program.jump_count() == 0


def test_cache_replay(benchmark):
    m = run_benchmark("wc", target="sparc", replication="jumps", trace=True)
    config = CacheConfig(size=1024)
    result = benchmark(
        simulate_cache, m.trace, m.block_fetches, config, False
    )
    assert result.accesses > 0
