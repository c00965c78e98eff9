"""Tests for the cached-analysis manager and its edition invalidation."""

from repro.cfg import (
    BasicBlock,
    compute_dominators,
    compute_flow,
    find_loops,
    get_analyses,
)
from repro.obs import observing
from repro.rtl import Jump, Return
from repro.verify import check_sanitized
from tests.conftest import function_from_text


def _loop_func():
    return function_from_text(
        "f",
        """
        d[0]=0;
        L1:
          d[0]=d[0]+1;
          NZ=d[0]?10;
          PC=NZ<0,L1;
          PC=RT;
        """,
    )


class TestCaching:
    def test_manager_is_attached_to_the_function(self):
        func = _loop_func()
        assert get_analyses(func) is get_analyses(func)

    def test_results_are_cached_until_the_cfg_changes(self):
        func = _loop_func()
        am = get_analyses(func)
        assert am.loops() is am.loops()
        assert am.dominators() is am.dominators()
        assert am.reverse_postorder() is am.reverse_postorder()
        assert am.reducible() is True

    def test_loops_reuse_the_cached_dominator_tree(self):
        func = _loop_func()
        am = get_analyses(func)
        assert am.loops().dom is am.dominators()

    def test_noop_compute_flow_keeps_the_cache(self):
        func = _loop_func()
        am = get_analyses(func)
        loops = am.loops()
        edition = func.cfg_edition
        compute_flow(func)  # rebuilds identical edges
        assert func.cfg_edition == edition
        assert am.loops() is loops

    def test_structural_change_invalidates(self):
        func = _loop_func()
        am = get_analyses(func)
        loops = am.loops()
        dom = am.dominators()
        # Retarget the back-edge conditional branch to a fresh return
        # block: a real edge change.
        new_label = func.new_label()
        func.blocks.append(BasicBlock(new_label, [Return()]))
        func.blocks[1].insns[-1].target = new_label
        compute_flow(func)
        assert am.loops() is not loops
        assert am.dominators() is not dom
        assert not am.loops().loops  # the loop is gone

    def test_clone_gets_a_fresh_manager(self):
        from repro.core import clone_function

        func = _loop_func()
        am = get_analyses(func)
        copy = clone_function(func)
        assert get_analyses(copy) is not am


class TestEditionCounter:
    def test_fresh_function_starts_at_zero_and_bumps_on_build(self):
        func = _loop_func()
        # build_function ran compute_flow once on a fresh graph.
        assert func.cfg_edition >= 1
        before = func.cfg_edition
        compute_flow(func)
        assert func.cfg_edition == before

    def test_sanitizer_does_not_invalidate(self):
        func = _loop_func()
        before = func.cfg_edition
        check_sanitized(func, "build_function")
        assert func.cfg_edition == before

    def test_edge_change_bumps(self):
        func = function_from_text("f", "PC=L1;\nL1:\n  PC=RT;")
        before = func.cfg_edition
        func.blocks[0].insns[-1] = Jump("L1")  # same shape, same edges
        compute_flow(func)
        assert func.cfg_edition == before
        func.blocks[0].insns[-1] = Return()
        compute_flow(func)
        assert func.cfg_edition == before + 1


class TestConsistencyAndDelegation:
    def test_results_match_the_direct_computations(self):
        func = _loop_func()
        am = get_analyses(func)
        direct_dom = compute_dominators(func)
        direct_loops = find_loops(func)
        assert {b.label for b in func.blocks if b in am.dominators()} == {
            b.label for b in func.blocks if b in direct_dom
        }
        assert {l.header.label for l in am.loops().loops} == {
            l.header.label for l in direct_loops.loops
        }

    def test_dominates_query_uses_the_cached_tree(self):
        func = _loop_func()
        entry, header = func.blocks[0], func.blocks[1]
        with observing(spans=False) as obs:
            assert get_analyses(func).dominates(entry, header)
            assert not get_analyses(func).dominates(header, entry)
        # One miss computed the tree; the second query hit the cache.
        assert obs.metrics.counters["analysis.cache.miss.dominators"] == 1
        assert obs.metrics.counters["analysis.cache.hit.dominators"] >= 1


class TestMetrics:
    def test_hit_and_miss_counters(self):
        func = _loop_func()
        with observing(spans=False) as obs:
            am = get_analyses(func)
            am.loops()  # miss: loops + dominators + rpo
            am.loops()  # hit
            am.dominators()  # hit
            am.reducible()  # miss: reducible; rpo and dominators hit
        counters = obs.metrics.counters
        assert counters["analysis.cache.miss"] == 4
        assert counters["analysis.cache.hit"] == 4
        assert counters["analysis.cache.miss.loops"] == 1
        assert counters["analysis.cache.hit.loops"] == 1
        assert counters["analysis.cache.miss.reducible"] == 1
        assert counters["analysis.cache.miss.rpo"] == 1
        assert counters["analysis.cache.hit.rpo"] == 1
        assert counters["analysis.cache.hit.dominators"] == 2
