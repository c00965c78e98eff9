"""Verbatim reproductions of the paper's Tables 1 and 2.

Both tables show 68020 RTLs before and after code replication.  These
tests rebuild the "without replication" column in the paper's own
notation, run the relevant part of the pipeline, and assert the
distinctive features of the "with replication" column.
"""

from repro.cfg import build_function, find_loops
from repro.core import CodeReplicator
from repro.frontend import compile_c
from repro.opt import OptimizationConfig, optimize_function
from repro.rtl import Compare, CondBranch, Jump, Return, parse_insns
from repro.targets import get_target
from repro.verify import check_sanitized


class TestTable1:
    """i = 1; while (i <= n) x[i-1] = x[i]; — exit test mid-loop."""

    WITHOUT = """
      d[1]=1;
    L15:
      d[0]=d[1];
      a[0]=a[0]+1;
      d[1]=d[1]+1;
      NZ=d[0]?L[_n.];
      PC=NZ>=0,L16;
      B[a[0]]=B[a[0]+1];
      PC=L15;
    L16:
      PC=RT;
    """

    def _replicated(self):
        func = build_function("t1", parse_insns(self.WITHOUT))
        CodeReplicator().run(func)
        check_sanitized(func, "jumps")
        return func

    def test_jump_per_iteration_eliminated(self):
        func = self._replicated()
        assert func.jump_count() == 0

    def test_test_sequence_duplicated(self):
        # The compare of d[0] against n now appears twice: once at the
        # original loop head, once in the replicated copy at the bottom.
        func = self._replicated()
        compares = [i for i in func.insns() if isinstance(i, Compare)]
        assert len(compares) == 2
        assert repr(compares[0]) == repr(compares[1])

    def test_replicated_branch_reversed(self):
        # Paper: "PC=NZ>=0,L16" becomes "PC=NZ<0,L000" in the copy.
        func = self._replicated()
        relations = sorted(
            i.rel for i in func.insns() if isinstance(i, CondBranch)
        )
        assert relations == ["<", ">="]

    def test_new_loop_has_no_jump(self):
        # After replication the loop is rotated: the back edge is the
        # reversed conditional branch, not an unconditional jump.
        func = self._replicated()
        info = find_loops(func)
        assert len(info.loops) == 1
        (loop,) = info.loops
        for tail, header in loop.back_edges:
            assert isinstance(tail.terminator, CondBranch)


class TestTable2:
    """if (i>5) i=i/n; else i=i*n; return i; — jump over the else-part."""

    SOURCE = """
    int work(int i, int n) {
        if (i > 5)
            i = i / n;
        else
            i = i * n;
        return i;
    }
    int main() { return work(9, 2); }
    """

    def _work(self, replication):
        program = compile_c(self.SOURCE)
        target = get_target("m68020")
        optimize_function(
            program.functions["work"],
            target,
            OptimizationConfig(replication=replication),
        )
        return program.functions["work"]

    def test_without_replication_one_return_one_jump(self):
        func = self._work("none")
        returns = sum(1 for i in func.insns() if isinstance(i, Return))
        assert returns == 1
        assert func.jump_count() == 1

    def test_with_replication_paths_return_separately(self):
        func = self._work("jumps")
        returns = sum(1 for i in func.insns() if isinstance(i, Return))
        assert returns == 2
        assert func.jump_count() == 0

    def test_both_divide_and_multiply_paths_survive(self):
        func = self._work("jumps")
        texts = [repr(i) for i in func.insns()]
        assert any("'/'" in t for t in texts)
        assert any("'*'" in t for t in texts)
