"""The paper's qualitative claims, checked on the table goldens.

Each test is one shape claim about Tables 4–6, §5.2 or the §6
extensions, and its docstring quotes the sentence it checks.  The tests
read the goldens rather than measuring: ``test_table_snapshots.py``
ties every golden, the §6 ones included, to one fresh
:func:`repro.report.collect`.
"""

import pytest

from repro.benchsuite import program_names
from repro.report import mean

NAMES = program_names()
TARGETS = ("sparc", "m68020")
FIELDS = ("static_insns", "dynamic_insns")


def column(golden, target, config, field):
    """One Table-4/5 count of every program, in suite order."""
    return [golden["table45"][f"{target}/{config}/{name}"][field] for name in NAMES]


def jump_share(golden, target, config):
    """Mean percent of executed instructions that are unconditional jumps."""
    jumps = column(golden, target, config, "dynamic_jumps")
    insns = column(golden, target, config, "dynamic_insns")
    return mean([100.0 * j / i for j, i in zip(jumps, insns)])


def change(new, base):
    """Mean per-program change of ``new`` against ``base``, in percent."""
    return mean([100.0 * (n - b) / b for n, b in zip(new, base)])


def section_field(golden, section, label, index):
    return [golden[section][f"{label}/{name}"][index] for name in NAMES]


def table6(golden, target, config, size, ctx):
    """Per program: (miss ratio, fetch cost) at one cache size."""
    rows = [golden["table6"][f"{target}/{config}/{name}"] for name in NAMES]
    return [(row[f"{size}/{ctx}"][0] / row["accesses"], row[f"{size}/{ctx}"][1]) for row in rows]


@pytest.mark.parametrize("target", TARGETS)
def test_table4_each_configuration_leaves_fewer_jumps(golden, target):
    """§5.1, Table 4: LOOPS removes part of the executed unconditional
    jumps, and after JUMPS "practically no unconditional jumps are left"."""
    simple, loops, jumps = (jump_share(golden, target, c) for c in ("none", "loops", "jumps"))
    assert simple > loops > jumps
    assert jumps < 0.5


@pytest.mark.parametrize("target", TARGETS)
def test_table5_jumps_saves_more_than_loops_and_grows_code(golden, target):
    """§5.1, Table 5: JUMPS executes fewer instructions than LOOPS, which
    executes fewer than SIMPLE (SPARC: −5.71 % against −2.39 %), and JUMPS
    pays for it in code size (+56.53 % static against +3.97 %)."""
    simple, loops, jumps = (
        column(golden, target, c, "dynamic_insns") for c in ("none", "loops", "jumps")
    )
    loops_saving, jumps_saving = -change(loops, simple), -change(jumps, simple)
    assert jumps_saving >= loops_saving >= 0
    assert jumps_saving > 0.5
    static = {c: mean(column(golden, target, c, "static_insns")) for c in ("loops", "jumps")}
    assert static["jumps"] >= static["loops"] * 0.98


@pytest.mark.parametrize("ctx", ("on", "off"))
@pytest.mark.parametrize("target", TARGETS)
def test_table6_fetch_cost_falls_once_the_program_fits(golden, target, ctx):
    """§5.3, Table 6: "the average fetch cost is actually reduced except
    for small caches" (at 1 KB every scaled program fits)."""
    base = [cost for _, cost in table6(golden, target, "none", 1024, ctx)]
    jumps = [cost for _, cost in table6(golden, target, "jumps", 1024, ctx)]
    assert change(jumps, base) < 0


@pytest.mark.parametrize("target", TARGETS)
def test_table6_miss_ratio_changes_concentrate_in_small_caches(golden, target):
    """§5.3, Table 6: replication changes the miss ratio little, and the
    change is largest on the smallest cache, which the grown code no
    longer fits (capacity misses)."""

    def spread(size):
        pairs = zip(table6(golden, target, "jumps", size, "off"),
                    table6(golden, target, "none", size, "off"))
        return mean([abs(j - b) for (j, _), (b, _) in pairs])

    assert spread(128) >= spread(1024)


def test_sec52_replication_lengthens_blocks_and_removes_nops(golden):
    """§5.2 (SPARC): "after code replication about 1.5 more instructions
    are found between branches, and 50% of the executed no-op
    instructions were eliminated"."""
    def gap_and_nops(config):
        cells = [golden["sec52"][f"sparc/{config}/{name}"] for name in NAMES]
        insns = column(golden, "sparc", config, "dynamic_insns")
        gap = mean([i / max(1, c["dynamic_branches"]) for i, c in zip(insns, cells)])
        return gap, sum(c["dynamic_nops"] for c in cells)

    (simple_gap, simple_nops), (jumps_gap, jumps_nops) = map(gap_and_nops, ("none", "jumps"))
    assert jumps_gap > simple_gap
    assert jumps_nops < simple_nops


def test_maxlen_bound_trades_savings_for_size(golden):
    """§6: "The increase in code size could be reduced by limiting the
    maximum length of a replication sequence to a specified number of
    RTLs.  The improvements in the dynamic behavior may drop slightly for
    this case"."""
    simple = [column(golden, "sparc", "none", f) for f in FIELDS]
    unbounded = [column(golden, "sparc", "jumps", f) for f in FIELDS]
    tightest = [section_field(golden, "maxlen", 2, i) for i in (0, 1)]
    assert change(tightest[0], simple[0]) <= change(unbounded[0], simple[0]) + 0.2
    assert change(unbounded[1], simple[1]) <= change(tightest[1], simple[1]) + 0.2


def test_policy_shortest_sequence_grows_least(golden):
    """§4, step 2: the choice between favoring returns and favoring loops
    is left to "a heuristic"; the shortest replacement sequence, chosen
    per jump, replicates no more than always favoring returns."""
    shortest = column(golden, "sparc", "jumps", "static_insns")
    returns = section_field(golden, "policy", "returns", 0)
    assert mean(shortest) <= mean(returns) * 1.05


def test_profile_threshold_trades_savings_for_size(golden):
    """§6 (profile-guided extension): "The increase in code size could be
    reduced" — replicating only hot jumps grows code no more as the
    threshold rises, and the strictest threshold saves the least."""
    simple = [column(golden, "sparc", "none", f) for f in FIELDS]
    loosest = [section_field(golden, "profile", 0, i) for i in (0, 1)]
    strictest = [section_field(golden, "profile", 0.5, i) for i in (0, 1)]
    assert change(strictest[0], simple[0]) <= change(loosest[0], simple[0]) + 0.2
    assert change(loosest[1], simple[1]) <= change(strictest[1], simple[1]) + 0.2


def test_associativity_absorbs_conflict_misses(golden):
    """§5.3 uses direct-mapped caches; part of JUMPS' small-cache penalty
    is conflict misses.  At 512 B a 4-way LRU cache misses no more than
    the direct-mapped one, and JUMPS' fetch cost beats SIMPLE's at every
    associativity ("the average fetch cost is actually reduced")."""

    def cells(ways, config):
        if ways == 1:
            return [golden["table6"][f"sparc/{config}/{n}"]["512/off"] for n in NAMES]
        return [golden["assoc"][f"{ways}/512/{config}/{n}"] for n in NAMES]

    accesses = [golden["table6"][f"sparc/jumps/{n}"]["accesses"] for n in NAMES]
    ratio = {ways: mean([m / a for (m, _), a in zip(cells(ways, "jumps"), accesses)])
             for ways in (1, 4)}
    assert ratio[4] <= ratio[1]
    for ways in (1, 2, 4):
        jumps = [cost for _, cost in cells(ways, "jumps")]
        base = [cost for _, cost in cells(ways, "none")]
        assert change(jumps, base) < 0


def test_pipeline_saves_more_cycles_than_instructions(golden):
    """§5.2: replication "improv[es] scheduling opportunities for pipelined
    and multiple-issue machines" — with a taken-branch penalty JUMPS saves
    more cycles than instructions, since the removed jumps were always
    taken."""
    rows = {c: [golden["pipeline"][f"{c}/{n}"] for n in NAMES] for c in ("none", "jumps")}
    insns = change([r[0] for r in rows["jumps"]], [r[0] for r in rows["none"]])
    cycles = change([r[2] for r in rows["jumps"]], [r[2] for r in rows["none"]])
    assert cycles <= insns
