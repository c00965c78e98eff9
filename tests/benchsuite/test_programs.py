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

    def test_workload_stdin_is_pinned(self):
        """Every workload's stdin bytes are part of its cache key and of
        the goldens: a faster generator must reproduce them exactly."""
        import hashlib

        digests = {
            name: hashlib.sha256(program.stdin).hexdigest()
            for name, program in PROGRAMS.items()
        }
        empty = hashlib.sha256(b"").hexdigest()
        assert digests == {
            "banner": "7df53764f0e4448c3ec8fc2067c8a38288b3d9ceaf0682b0846ee3d313fbc630",
            "cal": empty,
            "compact": "d3f33d5e1b74612896d919ccb5365043856fe515cff50118aadf22ce6b7bc728",
            "deroff": "282d38f360f3986b9c109ddd9f92a20b7f7c077c982a7ea80244da199501c9d3",
            "grep": "0718e3fe336ad332322cea93d16357bb958e87702f00c4e7473e6daefa3c6bb5",
            "od": "501d380a97a5ea28d1227af25ee9cdda0f353ed9222901240a27dba7347c453d",
            "sort": "f518773fe9b07c3a8b3079c10e598d99ff145e0337683090f46cf65b2e560d0d",
            "wc": "57098633c54c4629ced6f581dd2e81881926fb049e09b25c3856dc87a9079e08",
            "bubblesort": empty,
            "matmult": empty,
            "sieve": empty,
            "queens": empty,
            "quicksort": empty,
            "mincost": empty,
        }


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
