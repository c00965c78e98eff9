"""Convergence guard and safety valves on cascading flow graphs.

Fuzzed goto/switch-into-loop shapes used to make unbounded replication
cascade: completed-loop copies keep an explicit back-edge jump, the next
sweep replicates that jump, copying the loop again — "replication ad
infinitum" (§5.2).  The *convergence guard* cuts this at the root: every
replica block records the identities (origin-label pairs) of the jumps
whose replication created it, and the engine refuses to replicate a jump
whose identity already appears in its own block's ancestry.  Identities
are drawn from the finite set of original label pairs and ancestry
strictly grows along creation chains, so every run reaches a fixpoint.
The guard is always on.

The two valves — the block cap ``MAX_FUNCTION_BLOCKS`` and the per-run
replication budget ``MAX_REPLICATIONS`` — remain as backstops, with their
trips counted separately (``valve_block_trips`` / ``valve_budget_trips``)
so callers can tell "the function grew too large" from "the run was cut
short".  No product program reaches either at 4000/2000, so the valve
tests lower them with :func:`tests.core.valves.valves`: the guarded
cascade below grows ``main`` from 23 to 143 blocks in 18 replacements,
so a cap of 100 blocks or a budget of 10 replacements trips a valve.
"""

from repro.core.replication import (
    CodeReplicator,
    Policy,
    ReplicationMode,
    ReplicationStats,
    clone_function,
)
from repro.frontend.codegen import compile_c
from repro.opt.driver import OptimizationConfig, optimize_program
from repro.rtl.insn import Jump
from repro.targets.machine import get_target
from tests.conftest import labelled
from tests.core.valves import valves

# ``repro.verify.fuzz.generate_program(10)``: a switch inside a nested
# loop followed by a guarded goto.  Unbounded JUMPS replication grows
# ``main`` from 23 to 143 blocks before the guard reaches a fixpoint,
# so the lowered valves below cut this cascade.
CASCADING_SOURCE = """int main() {
    int a, b, c, d;
    int i0;
    int i1;
    int i2;
    a = 6;
    b = -18;
    c = -20;
    d = 8;
    d = 9;
    i0 = 0;
    do {
        i0 = i0 + 1;
        break;
    } while (i0 < 3);
    d += 45;
    for (i1 = 0; i1 < 1; i1++) {
        i2 = 0;
        while (i2 < 2) {
            i2 = i2 + 1;
            switch (c & 7) {
            case 0:
                c = (c | b);
                break;
            case 1:
                d = -33;
                break;
            case 2:
                c = (d & c);
                break;
            default:
                b = (-12 << 1);
            }
        }
    }
    if (!((b > b) || ((((b | b) * (c >> 6)) * a) > (b & b)))) {
        goto L0;
    }
        b = b;
    L0: a = a;
    printf("%d %d %d %d\\n", a, b, c, d);
    return (a ^ b ^ c ^ d) & 255;
}
"""

# The hypothesis-found goto-into-do-while shape: every do-while
# iteration of the full pipeline re-arms replication, and the guard
# still brings each replication pass to a fixpoint.
BUDGET_CASCADE_SOURCE = """int main() {
    int a, b, c, d;
    int i0;
    int i1;
    a = 10;
    b = 19;
    c = -9;
    d = -18;
    for (i0 = 0; i0 < 5; i0++) {
        i1 = 0;
        do {
            i1 = i1 + 1;
            if (((d * -40) == 32) || (!(-43 > -18))) {
                goto L0;
            }
                d = -31;
            L0: c = c;
        } while (i1 < 3);
    }
    printf("%d %d %d %d\\n", a, b, c, d);
    return (a ^ b ^ c ^ d) & 255;
}
"""


def _main_function(source):
    program = compile_c(source)
    return program.functions["main"]


def _assert_jump_targets_resolve(func):
    """A kept jump must still name a block of ``func``."""
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, Jump):
            labelled(func, term.target)  # raises ValueError if broken


#: A block cap and a budget below the guarded cascade's 143 blocks and
#: 18 replacements.
BLOCK_CAP = 100
BUDGET = 10


class TestConvergenceGuard:
    def test_cascading_shape_converges_unbounded(self):
        # The historical non-termination reproducer: unbounded max_rtls,
        # no valve needed — the guard cuts the cascade at its root and
        # the run reaches a genuine fixpoint well under a 400-block cap.
        # That fixpoint lies beyond the lowered valves the backstop tests
        # below trip.
        func = _main_function(CASCADING_SOURCE)
        replicator = CodeReplicator(policy=Policy.SHORTEST, max_rtls=None)
        with valves(blocks=400):
            stats = replicator.run(func)
        assert stats.valve_trips == 0
        assert stats.guard_stops >= 1
        assert len(func.blocks) < 400
        assert len(func.blocks) > BLOCK_CAP
        assert stats.jumps_replaced > BUDGET

    def test_budget_cascade_converges_through_pipeline(self):
        # Through the full optimizer: every replication pass invocation
        # reaches a fixpoint; no valve trips anywhere.
        program = compile_c(BUDGET_CASCADE_SOURCE)
        stats = optimize_program(
            program,
            get_target("sparc"),
            OptimizationConfig(replication="jumps"),
        )
        assert stats.valve_trips == 0
        assert stats.guard_stops >= 1

    def test_guard_leaves_graph_well_formed(self):
        # Guarded jumps stay behind as ordinary kept jumps.
        func = _main_function(CASCADING_SOURCE)
        CodeReplicator(mode=ReplicationMode.JUMPS, max_rtls=None).run(func)
        _assert_jump_targets_resolve(func)

    def test_guard_deterministic_across_clones(self):
        # Guard decisions hang off block provenance, which cloning must
        # preserve: two clones of the same function converge identically.
        func = _main_function(CASCADING_SOURCE)
        runs = []
        for _ in range(2):
            clone = clone_function(func)
            replicator = CodeReplicator(
                mode=ReplicationMode.JUMPS,
                max_rtls=None,
            )
            stats = replicator.run(clone)
            runs.append(
                (
                    stats.guard_stops,
                    stats.jumps_replaced,
                    stats.valve_trips,
                    len(clone.blocks),
                )
            )
        assert runs[0] == runs[1]

    def test_guard_idle_on_benign_program(self):
        # A benign program reaches the fixpoint without the guard ever
        # firing — the guard only bites on self-similar expansion.
        func = _main_function(
            "int main() { int i; int s; s = 0;"
            " for (i = 0; i < 4; i++) { s = s + i; }"
            " return s; }"
        )
        replicator = CodeReplicator(mode=ReplicationMode.JUMPS)
        stats = replicator.run(func)
        assert stats.valve_trips == 0
        assert stats.guard_stops == 0


class TestBlockValveBackstop:
    def test_unbounded_replication_trips_the_block_valve(self):
        # A cap below the guarded fixpoint stops the run at the start of
        # the first sweep that finds the function at or above it.
        func = _main_function(CASCADING_SOURCE)
        replicator = CodeReplicator(policy=Policy.SHORTEST, max_rtls=None)
        with valves(blocks=BLOCK_CAP):
            stats = replicator.run(func)
        assert stats.valve_block_trips == 1
        assert stats.valve_budget_trips == 0
        assert len(func.blocks) >= BLOCK_CAP

    def test_campaign_max_rtls_bound_avoids_the_valve(self):
        # The §6 sequence-length bound (the fuzz campaign's setting)
        # keeps growth under the cap the unbounded run trips.
        func = _main_function(CASCADING_SOURCE)
        replicator = CodeReplicator(policy=Policy.SHORTEST, max_rtls=64)
        with valves(blocks=BLOCK_CAP):
            stats = replicator.run(func)
        assert stats.valve_trips == 0
        assert len(func.blocks) < BLOCK_CAP

    def test_valve_stops_growth_not_correctness(self):
        # The valve may leave unconditional jumps behind; it must never
        # corrupt the graph.
        func = _main_function(CASCADING_SOURCE)
        with valves(blocks=BLOCK_CAP):
            stats = CodeReplicator(max_rtls=None).run(func)
        assert stats.valve_block_trips == 1
        _assert_jump_targets_resolve(func)


class TestBudgetValveBackstop:
    def test_budget_exhaustion_counts_once_per_run(self):
        # A budget cut short mid-cascade reports exactly one budget trip
        # and zero block trips — the causes are separate.
        func = _main_function(CASCADING_SOURCE)
        with valves(replications=BUDGET):
            stats = CodeReplicator(max_rtls=None).run(func)
        assert stats.jumps_replaced == BUDGET
        assert stats.valve_budget_trips == 1
        assert stats.valve_block_trips == 0
        assert stats.valve_trips == 1

    def test_pipeline_valve_backstop_reports_in_stats(self):
        # Inside the full pipeline each replication pass invocation that
        # hits a valve counts one trip; the merged stats attribute every
        # trip to its cause.
        for limit, field in (
            (dict(blocks=20), "valve_block_trips"),
            (dict(replications=3), "valve_budget_trips"),
        ):
            program = compile_c(CASCADING_SOURCE)
            config = OptimizationConfig(replication="jumps")
            with valves(**limit):
                stats = optimize_program(program, get_target("sparc"), config)
            assert getattr(stats, field) >= 1
            assert stats.valve_trips == getattr(stats, field)
            assert stats.valve_trips == (
                stats.valve_block_trips + stats.valve_budget_trips
            )


class TestStatsPlumbing:
    def test_valve_trips_is_derived_total(self):
        stats = ReplicationStats(valve_block_trips=2, valve_budget_trips=3)
        assert stats.valve_trips == 5

    def test_valve_counters_merge(self):
        a = ReplicationStats(valve_block_trips=2, valve_budget_trips=1)
        b = ReplicationStats(valve_block_trips=3, guard_stops=4)
        a.merge(b)
        assert a.valve_block_trips == 5
        assert a.valve_budget_trips == 1
        assert a.guard_stops == 4
        assert a.valve_trips == 6

    def test_as_dict_includes_derived_and_split_counters(self):
        data = ReplicationStats(valve_budget_trips=1, guard_stops=2).as_dict()
        assert data["valve_trips"] == 1
        assert data["valve_budget_trips"] == 1
        assert data["valve_block_trips"] == 0
        assert data["guard_stops"] == 2
