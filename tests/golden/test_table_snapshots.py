"""Golden-snapshot regression tests for the paper's Tables 4, 5, 6 and §5.2.

Every cell's integers — static and dynamic instruction and jump counts
(``table45_counts.json``), executed no-ops and control transfers
(``sec52_counts.json``), and misses and fetch cost at every Table-6
cache size with context switches on and off (``table6_counts.json``) —
are pinned and compared against one fresh traced matrix.  Any change
that silently shifts the paper's numbers fails here, with a per-cell
diff.  EXPERIMENTS.md's rendered tables are pinned to the goldens too.

If a shift is *intended* (a pass genuinely improved), regenerate with::

    PYTHONPATH=src python tests/golden/regen_table_snapshots.py

and commit the JSON and EXPERIMENTS.md alongside the change, so the
diff is reviewed.
"""

import pytest

from repro.benchsuite import program_names, run_matrix
from repro.report import TABLE_TITLES, matrix_cells, render

from tests.golden.regen_table_snapshots import EXPERIMENTS, marked_tables

TARGETS = ("sparc", "m68020")
CONFIGS = ("none", "loops", "jumps")


@pytest.fixture(scope="session")
def measured():
    return matrix_cells(run_matrix(targets=TARGETS, configs=CONFIGS, trace=True))


def _assert_matches(golden, measured, section, cells):
    mismatches = [
        f"{section} {cell}: pinned {golden[section][cell]}, measured {measured[section][cell]}"
        for cell in cells
        if golden[section][cell] != measured[section][cell]
    ]
    assert not mismatches, (
        f"{section} shifted from the pinned snapshot:\n  "
        + "\n  ".join(mismatches)
        + f"\nIf intended, regenerate tests/golden/{section}_counts.json "
        "(see module docstring)."
    )


def test_golden_file_covers_the_full_matrix(golden):
    expected = {
        f"{target}/{config}/{name}"
        for target in TARGETS
        for config in CONFIGS
        for name in program_names()
    }
    for section in ("table45", "sec52", "table6"):
        assert set(golden[section]) == expected, section


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("config", CONFIGS)
def test_counts_match_golden(golden, measured, target, config):
    cells = [f"{target}/{config}/{name}" for name in program_names()]
    _assert_matches(golden, measured, "table45", cells)


@pytest.mark.parametrize("section", ("sec52", "table6"))
def test_matrix_section_matches_golden(golden, measured, section):
    _assert_matches(golden, measured, section, sorted(golden[section]))


def test_experiments_marks_every_table():
    assert list(marked_tables(EXPERIMENTS.read_text())) == list(TABLE_TITLES)


@pytest.mark.parametrize("name", TABLE_TITLES)
def test_experiments_table_is_rendered_from_goldens(golden, name):
    written = marked_tables(EXPERIMENTS.read_text()).get(name)
    assert written == render(golden)[name], (
        f"EXPERIMENTS.md's {name!r} table differs from the goldens; "
        "regenerate it (see module docstring) instead of editing it by hand."
    )
