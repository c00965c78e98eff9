"""Replicating a jump whose sequence contains the jump block itself.

The step-1 shortest-path matrix is deliberately kept across replacements
within a sweep ("the matrix stays valid... recorded shortest paths
remain intact"), and step-3 loop completion splices whole natural loops
into a sequence.  Between the two, the selected sequence can end up
containing ``jump_block`` itself — the fuzz corpus produces the shape
(seed 71 of the unbounded campaign), where the completed outer loop's
members include the very block whose back-edge jump is being replaced.

The copy of ``jump_block`` must then replicate the jump like any other
block's terminator.  The engine once consumed the jump *before* building
the copies, which turned that copy into a terminator-less block: its
copied back edge silently vanished, the replicated inner loop ran once
instead of to completion, and execution fell through into unrelated code
— a miscompile the old ``max_rtls=64`` fuzz workaround happened to mask.
These tests pin ``_apply``'s contract directly with such a sequence.
"""

from repro.cfg import Program, compute_flow
from repro.cfg.analyses import get_analyses
from repro.cfg.block import BasicBlock, Function
from repro.core import CodeReplicator, Policy, ReplicationMode, clone_function
from repro.ease import Interpreter
from repro.rtl import (
    Assign,
    BinOp,
    Compare,
    CondBranch,
    Const,
    Jump,
    Reg,
    Return,
)
from repro.verify import check_sanitized
from tests.conftest import labelled

OUTER = Reg("d", 0)
INNER = Reg("d", 1)
ACC = Reg("d", 2)

#: 3 outer iterations x 3 inner iterations of ``acc += outer + inner``.
EXPECTED = sum(f + i for f in (3, 2, 1) for i in (0, 1, 2))


def nested_while_function() -> Function:
    """3 outer iterations, each running a 3-iteration inner while loop.

    ``B: Jump T`` is the inner back edge; the inner loop ``{T, B}`` is
    the natural loop whose completion splices ``B`` into a sequence
    starting at ``T``.
    """
    func = Function("main")
    init = BasicBlock("INIT")
    h = BasicBlock("H")
    t = BasicBlock("T")
    b = BasicBlock("B")
    e = BasicBlock("E")
    out = BasicBlock("OUT")
    func.blocks = [init, h, t, b, e, out]

    init.insns += [Assign(OUTER, Const(3)), Assign(ACC, Const(0))]
    # H: reset the inner counter, exit when the outer counter runs out.
    h.insns += [
        Assign(INNER, Const(0)),
        Compare(OUTER, Const(0)),
        CondBranch("<=", "OUT"),
    ]
    # T: the inner while test — falls into the body, exits to E.
    t.insns += [Compare(INNER, Const(3)), CondBranch(">=", "E")]
    # B: the inner body, closed by the jump under replication.
    b.insns += [
        Assign(ACC, BinOp("+", ACC, OUTER)),
        Assign(ACC, BinOp("+", ACC, INNER)),
        Assign(INNER, BinOp("+", INNER, Const(1))),
        Jump("T"),
    ]
    e.insns += [Assign(OUTER, BinOp("-", OUTER, Const(1))), Jump("H")]
    out.insns += [Assign(Reg("rv", 0), ACC), Return()]
    compute_flow(func)
    return func


def run(func: Function) -> int:
    program = Program()
    program.add_function(func)
    return Interpreter(program, max_steps=100_000).run().exit_code


def apply_self_copy(func: Function):
    """Drive ``_apply`` with the completed-loop sequence ``[T, B]``.

    This is exactly what step 3 hands step 4 when completion pulls the
    jump block's loop into the sequence: replicate ``B``'s ``Jump T``
    along the sequence ``T, B`` with fall-through follow ``E``.
    """
    replicator = CodeReplicator(mode=ReplicationMode.JUMPS, policy=Policy.SHORTEST)
    t = labelled(func, "T")
    b = labelled(func, "B")
    e = labelled(func, "E")
    loops = get_analyses(func).loops()
    return replicator._apply(
        func,
        func.blocks.index(b),
        [t, b],
        e,
        True,
        loops,
        ("B", "T"),
    )


class TestJumpBlockInOwnSequence:
    def test_jump_block_copy_keeps_its_back_edge(self):
        func = nested_while_function()
        apply_self_copy(func)
        check_sanitized(func, "jumps")

        [b_copy] = [bl for bl in func.blocks if bl.replica_origin == "B"]
        term = b_copy.terminator
        assert isinstance(term, Jump), (
            f"copy of B lost its back edge (terminator={term!r})"
        )
        # ...and the copied back edge targets the in-sequence copy of T,
        # not the original (which would re-enter the uncopied loop).
        [t_copy] = [bl for bl in func.blocks if bl.replica_origin == "T"]
        assert term.target == t_copy.label
        # The jump block itself lost its jump and now falls through into
        # the copied loop.
        b = labelled(func, "B")
        assert b.terminator is None
        assert func.blocks[func.blocks.index(b) + 1] is t_copy

    def test_self_copy_preserves_behaviour(self):
        func = nested_while_function()
        assert run(func) == EXPECTED
        apply_self_copy(func)
        check_sanitized(func, "jumps")
        # The pop-before-copy bug made the copied inner loop fall through
        # to E after one iteration instead of looping: acc lost the
        # third inner term of every outer iteration.
        assert run(func) == EXPECTED

    def test_undo_restores_the_function_exactly(self):
        func = nested_while_function()
        reference_labels = [bl.label for bl in func.blocks]
        undo, _created = apply_self_copy(func)
        undo()
        assert [bl.label for bl in func.blocks] == reference_labels
        b = labelled(func, "B")
        assert isinstance(b.terminator, Jump)
        assert b.terminator.target == "T"
        assert run(func) == EXPECTED

    def test_full_jumps_preserves_behaviour_unbounded(self):
        # End to end: the whole engine, no RTL bound, no valve pressure.
        func = nested_while_function()
        replicated = clone_function(func)
        stats = CodeReplicator(
            mode=ReplicationMode.JUMPS, policy=Policy.SHORTEST
        ).run(replicated)
        check_sanitized(replicated, "jumps")
        assert run(replicated) == EXPECTED
        assert stats.valve_trips == 0
