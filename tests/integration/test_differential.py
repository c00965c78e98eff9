"""Differential testing of the whole pipeline on the Table-3 suite.

The observable behaviour (stdout + exit code) of every benchmark must be
identical across: unoptimized front-end output, and both targets under
all three paper configurations (SIMPLE / LOOPS / JUMPS).

The whole matrix — optimized cells plus the unoptimized references — is
produced once per session by the parallel execution layer
(:class:`repro.exec.ParallelRunner`); each test then only asserts over
the envelopes.  Every optimized cell runs with ``verify="sanitize"``, so
the sanitizer executes after every optimizer pass across the entire
differential matrix (verified cells bypass the result cache).

Environment knobs:

* ``REPRO_TEST_PARALLEL`` — worker processes for the matrix (default
  ``0`` = inline in this process);
* ``REPRO_CACHE_DIR`` — reuse/populate a persistent result cache.
"""

import os

import pytest

from repro.exec import CellSpec, ParallelRunner, ResultCache

# Small programs run in every configuration; the heavyweights get a
# reduced matrix so the suite stays fast.
FAST_PROGRAMS = [
    "banner",
    "cal",
    "deroff",
    "od",
    "sort",
    "wc",
    "queens",
    "quicksort",
    "grep",
]
HEAVY_PROGRAMS = ["compact", "bubblesort", "matmult", "sieve", "mincost"]
HEAVY_M68020 = ["compact", "sieve"]


def _matrix_specs():
    specs = []
    for name in FAST_PROGRAMS:
        for target in ("m68020", "sparc"):
            for replication in ("none", "loops", "jumps"):
                specs.append(
                    CellSpec(
                        program=name,
                        target=target,
                        replication=replication,
                        verify="sanitize",
                    )
                )
    for name in HEAVY_PROGRAMS:
        specs.append(
            CellSpec(
                program=name,
                target="sparc",
                replication="jumps",
                verify="sanitize",
            )
        )
    for name in HEAVY_M68020:
        specs.append(
            CellSpec(
                program=name,
                target="m68020",
                replication="jumps",
                verify="sanitize",
            )
        )
    # Unoptimized front-end runs: the semantic references.
    for name in FAST_PROGRAMS + HEAVY_PROGRAMS:
        specs.append(CellSpec(program=name, optimize=False))
    return specs


@pytest.fixture(scope="session")
def matrix():
    workers = int(os.environ.get("REPRO_TEST_PARALLEL", "0") or 0)
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    runner = ParallelRunner(
        workers=workers, cache=ResultCache(cache_dir) if cache_dir else None
    )
    results = {}
    for result in runner.run(_matrix_specs()):
        key = (
            result.spec.program,
            result.spec.target if result.spec.optimize else None,
            result.spec.replication if result.spec.optimize else None,
        )
        results[key] = result
    return results


def check(matrix, name, target_name, replication):
    result = matrix[(name, target_name, replication)]
    assert result.ok, f"{name}/{target_name}/{replication} crashed:\n{result.error}"
    reference = matrix[(name, None, None)]
    assert reference.ok, f"{name} reference crashed:\n{reference.error}"
    m = result.measurement
    assert m.output == reference.measurement.output, (
        f"{name}/{target_name}/{replication} output differs"
    )
    assert m.exit_code == reference.measurement.exit_code
    return m


@pytest.mark.parametrize("replication", ["none", "loops", "jumps"])
@pytest.mark.parametrize("target_name", ["m68020", "sparc"])
@pytest.mark.parametrize("name", FAST_PROGRAMS)
def test_fast_programs_full_matrix(matrix, name, target_name, replication):
    check(matrix, name, target_name, replication)


@pytest.mark.parametrize("name", HEAVY_PROGRAMS)
def test_heavy_programs_jumps_config(matrix, name):
    check(matrix, name, "sparc", "jumps")


@pytest.mark.parametrize("name", HEAVY_M68020)
def test_heavy_programs_m68020(matrix, name):
    check(matrix, name, "m68020", "jumps")


@pytest.mark.parametrize("name", FAST_PROGRAMS)
def test_jumps_eliminates_dynamic_jumps(matrix, name):
    m = check(matrix, name, "sparc", "jumps")
    assert m.dynamic_jumps == 0


@pytest.mark.parametrize("name", FAST_PROGRAMS)
def test_replication_never_slows_execution(matrix, name):
    simple = check(matrix, name, "sparc", "none")
    jumps = check(matrix, name, "sparc", "jumps")
    assert jumps.dynamic_insns <= simple.dynamic_insns
