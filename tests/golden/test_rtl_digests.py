"""The optimized RTL and the decision log of every suite cell are pinned.

``rtl_digests.json`` holds, for each of the 84 suite cells, the SHA-256
of the optimized RTL and of the replication decision log
(``regen_rtl_digests.py``).  A refactor of the optimizer or of the CFG
layer must leave both byte-identical; if a change to the output is
*intended*, regenerate with::

    PYTHONPATH=src python tests/golden/regen_rtl_digests.py
"""

import pytest

from tests.golden.regen_rtl_digests import CONFIGS, TARGETS, cell_digests, cells, load_golden


def test_golden_covers_every_suite_cell():
    assert sorted(load_golden()) == sorted(cells())


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("config", CONFIGS)
def test_optimized_rtl_matches_golden(target, config):
    golden = load_golden()
    drifted = [
        f"{cell}: {kind}"
        for cell in cells()
        if cell.startswith(f"{target}/{config}/")
        for kind, digest in cell_digests(*cell.split("/")).items()
        if golden[cell][kind] != digest
    ]
    assert not drifted, (
        "optimized output drifted from tests/golden/rtl_digests.json:\n  "
        + "\n  ".join(drifted)
        + "\nIf intended, run tests/golden/regen_rtl_digests.py."
    )
