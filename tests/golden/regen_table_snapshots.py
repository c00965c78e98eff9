"""Regenerate the table goldens and EXPERIMENTS.md's rendered tables.

Run after an *intended* change to a reproduced number::

    PYTHONPATH=src python tests/golden/regen_table_snapshots.py

It measures every table once (:func:`repro.report.collect`: one
parallel run of every cell through ``.repro-cache`` in the working
directory, so a re-run after ``repro tables`` reads the cache and runs
no cell), writes each section's integers to
``<section>_counts.json`` next to this file, and rewrites every block of
EXPERIMENTS.md between ``<!-- repro tables: NAME -->`` and
``<!-- /repro tables -->`` with :func:`repro.report.render` of them.
Commit the JSON and EXPERIMENTS.md diffs with the change that moved them.
"""

import json
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent
EXPERIMENTS = GOLDEN_DIR.parents[1] / "EXPERIMENTS.md"
SECTIONS = ("table45", "sec52", "table6", "maxlen", "policy", "profile", "assoc", "pipeline")
MARKED = re.compile(
    r"(<!-- repro tables: (\S+) -->\n)(.*?)(\n<!-- /repro tables -->)", re.DOTALL
)


def golden_path(section: str) -> Path:
    return GOLDEN_DIR / f"{section}_counts.json"


def load_goldens() -> dict:
    return {section: json.loads(golden_path(section).read_text()) for section in SECTIONS}


def marked_tables(text: str) -> dict:
    """EXPERIMENTS.md's rendered blocks, by table name."""
    return {match.group(2): match.group(3) for match in MARKED.finditer(text)}


def main() -> None:
    from repro.report import collect, render

    cells = collect()
    for section in SECTIONS:
        golden_path(section).write_text(
            json.dumps(cells[section], indent=1, sort_keys=True) + "\n"
        )
    tables = render(cells)
    text = EXPERIMENTS.read_text()
    unmatched = set(tables) ^ set(marked_tables(text))
    if unmatched:
        raise SystemExit(f"EXPERIMENTS.md markers and tables differ: {sorted(unmatched)}")
    EXPERIMENTS.write_text(
        MARKED.sub(lambda m: m.group(1) + tables[m.group(2)] + m.group(4), text)
    )
    print(f"wrote {len(SECTIONS)} goldens in {GOLDEN_DIR} and {len(tables)} tables")


if __name__ == "__main__":
    main()
