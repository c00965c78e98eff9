"""Regenerate the optimized-RTL golden, ``rtl_digests.json``.

Run after an *intended* change to what the optimizer emits::

    PYTHONPATH=src python tests/golden/regen_rtl_digests.py

For each of the 84 suite cells (14 programs x 2 targets x SIMPLE /
LOOPS / JUMPS) it optimizes the program with the Figure-3 driver and
records the SHA-256 of the optimized RTL (``format_function`` of every
function, in program order) and of the replication decision log.
``test_rtl_digests.py`` recomputes them; any drift fails there.
Commit the JSON with the change that moved it.
"""

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "rtl_digests.json"
TARGETS = ("sparc", "m68020")
CONFIGS = ("none", "loops", "jumps")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_digests(target: str, config: str, name: str) -> dict:
    """The RTL and decision-log digests of one optimized suite cell."""
    from repro.benchsuite import PROGRAMS
    from repro.frontend import compile_c
    from repro.obs import observing
    from repro.opt import OptimizationConfig, optimize_program
    from repro.rtl import format_function

    program = compile_c(PROGRAMS[name].source)
    with observing(spans=False) as obs:
        optimize_program(program, target, OptimizationConfig(replication=config))
    rtl = "\n\n".join(format_function(f) for f in program.functions.values())
    decisions = json.dumps(obs.decisions.as_dicts(), sort_keys=True)
    return {"rtl": _sha256(rtl), "decisions": _sha256(decisions)}


def cells() -> list:
    from repro.benchsuite import program_names

    return [
        f"{target}/{config}/{name}"
        for target in TARGETS
        for config in CONFIGS
        for name in program_names()
    ]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def main() -> None:
    digests = {cell: cell_digests(*cell.split("/")) for cell in cells()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cells to {GOLDEN}")


if __name__ == "__main__":
    main()
