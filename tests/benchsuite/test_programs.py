"""Benchmark-suite plumbing tests."""

import pytest

from repro import compile_and_measure
from repro.benchsuite import PROGRAMS, clear_cache, program_names, run_matrix


class TestCatalog:
    def test_fourteen_programs(self):
        assert len(PROGRAMS) == 14
        assert len(program_names()) == 14
        assert set(program_names()) == set(PROGRAMS)

    def test_categories_match_table3(self):
        categories = {p.category for p in PROGRAMS.values()}
        assert categories == {"Utilities", "Benchmarks", "User code"}
        utilities = [p for p in PROGRAMS.values() if p.category == "Utilities"]
        assert len(utilities) == 8

    def test_workloads_deterministic(self):
        from repro.benchsuite.programs import _lcg_text

        assert _lcg_text(5, 100) == _lcg_text(5, 100)
        assert _lcg_text(5, 100) != _lcg_text(6, 100)


class TestRunner:
    @pytest.fixture(autouse=True)
    def fresh_default_cache(self):
        clear_cache()
        yield
        clear_cache()

    def test_unknown_program_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark 'doom'"):
            run_matrix(names=["doom"], workers=1)

    def test_compile_and_measure_returns_program(self):
        program = compile_and_measure("wc", target="sparc").program
        assert "main" in program.functions

    def test_memoization_returns_same_object(self):
        cell = ("sparc", "none", "wc")
        a = run_matrix(names=["wc"], targets=["sparc"], configs=["none"], workers=1)
        b = run_matrix(names=["wc"], targets=["sparc"], configs=["none"], workers=1)
        assert a[cell] is b[cell]

    def test_cache_bypass(self):
        cell = ("sparc", "none", "wc")
        a = run_matrix(names=["wc"], targets=["sparc"], configs=["none"], workers=1)
        b = run_matrix(
            names=["wc"], targets=["sparc"], configs=["none"], workers=1,
            use_memo=False,
        )
        assert a[cell] is not b[cell]
        assert a[cell].dynamic_insns == b[cell].dynamic_insns

    @pytest.mark.parametrize("name", ["wc", "sieve", "queens"])
    def test_known_outputs(self, name):
        expected = {
            "wc": b"    362    1469    9000\n",
            "sieve": b"564 primes\n",
            "queens": b"92 solutions\n",
        }
        m = compile_and_measure(name, target="m68020", replication="jumps").measurement
        assert m.output == expected[name]
