"""The autotuner's candidate space and function isolation."""

import pytest

from repro.exec.envelope import CellSpec
from repro.opt.driver import PASS_ORDERS
from repro.tune import (
    Candidate,
    Cutout,
    TuneGrid,
    baseline_candidate,
    function_names,
    normalize_rows,
)


class TestGrid:
    def test_default_grid_enumerates_cross_product(self):
        grid = TuneGrid()
        candidates = list(grid.candidates())
        assert len(candidates) == len(grid)
        assert len(candidates) == len(set(candidates))  # no duplicates
        assert len(grid) == 3 * 4 * 3  # policies x bounds x orders
        # The paper's fixed global configuration is always a grid point,
        # so tuning can never lose to it.
        assert Candidate("shortest", None, "standard") in candidates

    def test_enumeration_order_is_deterministic(self):
        assert list(TuneGrid().candidates()) == list(TuneGrid().candidates())

    def test_parse_defaults_and_overrides(self):
        assert TuneGrid.parse() == TuneGrid()
        grid = TuneGrid.parse(policies=["returns"], bounds=[8], orders=["late"])
        assert list(grid.candidates()) == [Candidate("returns", 8, "late")]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policies": ("fastest",)},
            {"bounds": (0,)},
            {"bounds": ("8",)},
            {"orders": ("reversed",)},
        ],
    )
    def test_rejects_invalid_grid_axes(self, kwargs):
        with pytest.raises(ValueError):
            TuneGrid(**kwargs)

    def test_candidate_as_row(self):
        row = Candidate("returns", 8, "late").as_row("main")
        assert row == ("main", "returns", 8, "late")

    def test_orders_match_driver_vocabulary(self):
        assert TuneGrid().orders == PASS_ORDERS


class TestFunctionNames:
    def test_inline_source(self):
        names = function_names(
            "int helper() { return 1; } int main() { return helper(); }"
        )
        assert names == ["helper", "main"]

    def test_benchmark_name(self):
        assert "main" in function_names("wc")


class TestNormalizeRows:
    BASELINE = Candidate("shortest", None, "standard")

    def test_baseline_rows_vanish(self):
        assert normalize_rows({"main": self.BASELINE}, self.BASELINE) is None

    def test_empty_rows_vanish(self):
        assert normalize_rows({}, self.BASELINE) is None

    def test_rows_sort_by_function_name(self):
        rows = normalize_rows(
            {
                "zeta": Candidate("returns", None, "standard"),
                "alpha": Candidate("loops", 8, "late"),
            },
            self.BASELINE,
        )
        assert rows == (
            ("alpha", "loops", 8, "late"),
            ("zeta", "returns", None, "standard"),
        )

    def test_mixed_rows_keep_only_non_baseline(self):
        rows = normalize_rows(
            {
                "main": self.BASELINE,
                "helper": Candidate("returns", None, "standard"),
            },
            self.BASELINE,
        )
        assert rows == (("helper", "returns", None, "standard"),)


class TestCutout:
    BASE = CellSpec(program="wc", replication="jumps")

    def test_baseline_candidate_reflects_spec_globals(self):
        spec = CellSpec(program="wc", policy="returns", max_rtls=8)
        assert baseline_candidate(spec) == Candidate("returns", 8, "standard")

    def test_candidate_equal_to_baseline_shares_the_baseline_cell(self):
        # The normalization invariant the cache sharing relies on: a
        # cutout candidate identical to the global config produces the
        # very same spec (hence the same cache key and the same
        # single-flight lock).
        cutout = Cutout("wc", "main")
        spec = cutout.spec_for(self.BASE, Candidate("shortest", None, "standard"))
        assert spec == self.BASE
        assert spec.tuned is None

    def test_non_baseline_candidate_gets_tuned_rows(self):
        cutout = Cutout("wc", "main")
        spec = cutout.spec_for(self.BASE, Candidate("returns", 8, "nofinal"))
        assert spec.tuned == (("main", "returns", 8, "nofinal"),)
        assert spec.program == "wc"
        assert spec.policy == self.BASE.policy  # globals untouched
