"""Carried verdicts: a check reports exactly what a fresh check reports.

The verifier's :class:`~repro.verify.sanitize.Sanitizer` re-checks only
what changed since a function's last clean check.  The parity tests
cross-check every sanitize request of a run against a from-scratch
``sanitize_function`` and against the whole-function reference checker
(``reference_sanitizer.py``): the same problems in the same order, and
an empty list wherever the request was skipped.  The soundness tests
change what a carried verdict depends on while leaving the instructions
alone, and expect the change reported as a fresh check reports it.
"""

import inspect

import pytest

import repro.verify.sanitize as sanitize
import repro.verify.verifier as verifier_module
from repro.benchsuite import PROGRAMS, program_names
from repro.cfg import get_analyses
from repro.cfg.block import BasicBlock
from repro.cfg.graph import compute_flow
from repro.frontend import compile_c
from repro.opt.driver import OptimizationConfig, optimize_program
from repro.rtl.expr import BinOp, Const, Local, Mem, Reg, Sym, UnOp, walk
from repro.rtl.insn import Assign, CondBranch, Return
from repro.targets import get_target
from repro.verify import SanitizeError, Verifier, generate_program, sanitize_function
from repro.verify.sanitize import Sanitizer
from tests.conftest import function_from_text, labelled
from tests.verify import test_mutation_smoke as smoke
from tests.verify.reference_sanitizer import reference_sanitize


class CrossCheck:
    """Every request of the verifiers' sanitizers, checked from scratch."""

    def __init__(self) -> None:
        self.requests = 0
        self.skipped = 0
        self.mismatches = []

    def sanitizer_class(self):
        log = self

        class CrossChecked(Sanitizer):
            def check(self, func, program=None, post_regalloc=False):
                got = super().check(func, program, post_regalloc)
                fresh = sanitize_function(func, program, post_regalloc)
                reference = reference_sanitize(func, program, post_regalloc)
                log.requests += 1
                log.skipped += got is None
                if (got if got is not None else []) != fresh or fresh != reference:
                    log.mismatches.append((func.name, got, fresh, reference))
                return got

        return CrossChecked


@pytest.fixture
def cross_check(monkeypatch):
    log = CrossCheck()
    monkeypatch.setattr(verifier_module, "Sanitizer", log.sanitizer_class())
    return log


def _optimize(source, target="sparc", replication="jumps"):
    optimize_program(
        compile_c(source),
        get_target(target),
        OptimizationConfig(replication=replication),
        verifier=Verifier("sanitize"),
    )


class TestParity:
    @pytest.mark.parametrize("replication", ["none", "loops", "jumps"])
    @pytest.mark.parametrize("target_name", ["m68020", "sparc"])
    @pytest.mark.parametrize("name", program_names())
    def test_suite_program(self, name, target_name, replication, cross_check):
        _optimize(PROGRAMS[name].source, target_name, replication)
        assert cross_check.mismatches == []
        assert 0 < cross_check.skipped < cross_check.requests

    @pytest.mark.parametrize("seed", range(15))
    def test_fuzz_program(self, seed, cross_check):
        _optimize(generate_program(seed))
        assert cross_check.mismatches == []
        assert 0 < cross_check.skipped < cross_check.requests


class TestFreshCheckMatchesTheReference:
    def test_faults_of_one_tree_in_reference_order(self):
        program, func = _main(LOCALS_AND_GLOBALS)
        damaged = [
            Assign(Reg("d", 0), BinOp("+", Const(1.0), Reg("z", -1))),
            Assign(Mem(BinOp("?", Local("nope"), Sym("none")), "Q"), Const(2.5)),
            Assign(Reg("q", 0), UnOp("!", BinOp("-", Sym("gone"), Local("x")))),
        ]
        func.blocks[0].insns[:0] = damaged
        got = sanitize_function(func, program)
        assert got == reference_sanitize(func, program)
        assert len(got) == 12

    def test_definition_carried_round_a_loop(self):
        # v[2] is defined only at the bottom of the loop and read in the
        # middle: the back edge must carry it past the header.
        func = function_from_text(
            "f",
            """
            v[3]=0;
            L1:
              NZ=v[3]?5;
              PC=NZ>=0,L9;
            L2:
              d[0]=v[2];
            L3:
              v[2]=1;
              v[3]=v[3]+1;
              PC=L1;
            L9:
              PC=RT;
            """,
        )
        assert sanitize_function(func) == reference_sanitize(func) == []


#: Every mutation-smoke test that injects a fault into a pass.
INJECTIONS = [
    (cls, name)
    for cls in (
        smoke.TestOracleCatchesMiscompiles,
        smoke.TestSanitizerCatchesStructuralDamage,
        smoke.TestSanitizerSkip,
        smoke.TestObservability,
    )
    for name, method in vars(cls).items()
    if name.startswith("test_")
    and "monkeypatch" in inspect.signature(method).parameters
]


@pytest.mark.parametrize(
    "cls,name", INJECTIONS, ids=[f"{c.__name__}.{n}" for c, n in INJECTIONS]
)
def test_mutation_injection(cls, name, cross_check, monkeypatch):
    # The smoke test asserts the stage its injection fails at.
    getattr(cls(), name)(monkeypatch)
    assert cross_check.mismatches == []
    assert cross_check.requests > 0


def test_every_injection_is_covered():
    assert len(INJECTIONS) == 9


LOCALS_AND_GLOBALS = """
int g;
int main() {
    int a[3];
    a[1] = 4;
    g = a[1] + 2;
    printf("%d\\n", g);
    return 0;
}
"""


def _names(func, kind):
    return [
        node.name
        for block in func.blocks
        for insn in block.insns
        for expr in insn.used_exprs()
        for node in walk(expr)
        if isinstance(node, kind)
    ]


def _recheck(sanitizer, func, program, post_regalloc=False):
    """A carried check after a clean one, equal to a fresh check."""
    got = sanitizer.check(func, program, post_regalloc)
    assert got == sanitize_function(func, program, post_regalloc)
    assert got == reference_sanitize(func, program, post_regalloc)
    return got


def _main(source):
    program = compile_c(source)
    return program, program.functions["main"]


class TestCarriedVerdictsAreSound:
    """What a carried verdict depends on changes; its instructions do not."""

    def _clean(self, source=LOCALS_AND_GLOBALS):
        program = compile_c(source)
        func = program.functions["main"]
        sanitizer = Sanitizer()
        assert sanitizer.check(func, program) == []
        assert sanitizer.check(func, program) is None  # nothing changed
        return sanitizer, program, func

    def test_deleted_frame_slot(self):
        sanitizer, program, func = self._clean()
        name = _names(func, Local)[0]
        del func.frame[name]
        got = _recheck(sanitizer, func, program)
        assert any(f"Local {name!r} names no frame slot" in p for p in got)

    def test_deleted_global(self):
        sanitizer, program, func = self._clean()
        name = _names(func, Sym)[0]
        del program.globals[name]
        got = _recheck(sanitizer, func, program)
        assert any(f"Sym {name!r} names no program global" in p for p in got)

    def test_post_regalloc_flag_with_a_virtual_register(self):
        sanitizer, program, func = self._clean()
        got = _recheck(sanitizer, func, program, post_regalloc=True)
        assert any("survived register allocation" in p for p in got)

    def test_removed_edge_that_carried_the_only_definition(self):
        func = function_from_text(
            "f",
            """
            v[2]=0;
            NZ=v[2]?0;
            PC=NZ==0,L3;
            L2:
              v[1]=1;
            L3:
              d[0]=v[1];
              PC=RT;
            """,
        )
        sanitizer = Sanitizer()
        assert sanitizer.check(func) == []
        # L2's definition of v[1] reached L3's use by falling through;
        # a returning block in between removes that edge.
        position = func.blocks.index(labelled(func, "L3"))
        func.blocks.insert(position, BasicBlock("L7", [Return()]))
        compute_flow(func)
        got = _recheck(sanitizer, func, None)
        assert got == [
            "L3/Assign(Reg('d',0), Reg('v',1)): virtual register Reg('v',1) used "
            "before any definition can reach it (on every path)"
        ]

    def test_instruction_mutated_in_place(self):
        sanitizer, program, func = self._clean()
        insn = next(
            insn
            for block in func.blocks
            for insn in block.insns
            if isinstance(insn, Assign) and isinstance(insn.src, Const)
        )
        insn.src = Const(float(insn.src.value))
        got = _recheck(sanitizer, func, program)
        assert any("(not int)" in p for p in got)

    def test_branch_retargeted_in_place(self):
        sanitizer, program, func = self._clean(smoke.LOOP_SUM)
        branch = next(
            block.terminator
            for block in func.blocks
            if isinstance(block.terminator, CondBranch)
        )
        branch.target = "L_nowhere"
        got = _recheck(sanitizer, func, program)
        assert any("resolves to no block" in p for p in got)


class TestOnlyWhatChangedIsRechecked:
    def test_one_mutated_instruction_is_the_one_rechecked(self, monkeypatch):
        program = compile_c(smoke.LOOP_SUM)
        func = program.functions["main"]
        sanitizer = Sanitizer()
        assert sanitizer.check(func, program) == []
        rechecked = []
        real = sanitize._insn_faults

        def counting(insn, *args):
            rechecked.append(insn)
            return real(insn, *args)

        monkeypatch.setattr(sanitize, "_insn_faults", counting)
        assert sanitizer.check(func, program) is None
        insn = func.blocks[0].insns[0]
        insn.substitute({})  # rebuilds its operands: the same nodes again
        assert sanitizer.check(func, program) is None
        assert isinstance(insn, Assign)
        insn.src = Const(12345)
        assert sanitizer.check(func, program) == []
        assert rechecked == [insn]

    def test_edges_recomputed_only_for_a_changed_transfer(self, monkeypatch):
        func = function_from_text(
            "f",
            """
            v[1]=0;
            NZ=v[1]?0;
            PC=NZ==0,L3;
            L2:
              v[2]=1;
            L3:
              d[0]=v[1];
              PC=RT;
            """,
        )
        sanitizer = Sanitizer()
        assert sanitizer.check(func) == []
        rechecked = []
        recomputed = []
        real_faults = sanitize._insn_faults
        real_edges = sanitize.successors

        def counting_faults(insn, *args):
            rechecked.append(insn)
            return real_faults(insn, *args)

        def counting_edges(*args):
            recomputed.append(args)
            return real_edges(*args)

        monkeypatch.setattr(sanitize, "_insn_faults", counting_faults)
        monkeypatch.setattr(sanitize, "successors", counting_edges)
        # L2 still falls through to L3: its new final instruction is
        # re-checked, and no edge is recomputed.
        block = labelled(func, "L2")
        block.insns[-1] = Assign(Reg("v", 2), Const(2))
        assert sanitizer.check(func) == []
        assert rechecked == [block.insns[-1]]
        assert recomputed == []
        # A retargeted branch changes the edges it stands for.
        branch = func.blocks[0].terminator
        branch.target = "L2"
        assert any("stale successors" in p for p in sanitizer.check(func))
        assert len(recomputed) == 1

    def test_a_cache_fill_is_no_change(self):
        program = compile_c(smoke.LOOP_SUM)
        func = program.functions["main"]
        analyses = get_analyses(func)
        analyses.reverse_postorder()  # the manager is at the current edition
        sanitizer = Sanitizer()
        assert sanitizer.check(func, program) == []
        analyses.reverse_postorder()
        assert analyses.loops().loops  # fills the dominator tree and loops
        assert sanitizer.check(func, program) is None
        # A graph change behind the filled cache is still checked.
        func.blocks[0].succs.clear()
        assert sanitizer.check(func, program)

    def test_failed_check_keeps_no_state(self):
        program = compile_c(smoke.LOOP_SUM)
        func = program.functions["main"]
        sanitizer = Sanitizer()
        assert sanitizer.check(func, program) == []
        func.blocks[0].succs.clear()
        dirty = sanitizer.check(func, program)
        assert dirty and dirty == sanitizer.check(func, program)

    def test_verifier_starts_each_run_fresh(self):
        program = compile_c(smoke.LOOP_SUM)
        verifier = Verifier("sanitize")
        verifier.begin(program)
        func = program.functions["main"]
        verifier.after_pass(func, "first")
        verifier.after_pass(func, "second")
        assert verifier.sanitize_skipped == 1
        verifier.begin(program)
        verifier.after_pass(func, "again")
        assert verifier.sanitize_skipped == 1
        func.blocks[0].succs.clear()
        with pytest.raises(SanitizeError):
            verifier.after_pass(func, "damaged")
