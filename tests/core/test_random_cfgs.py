"""Property-based testing of the replication engine on random CFGs.

Random *unstructured* flow graphs — backward conditional branches, forward
jumps, multiple returns — exercise the loop-completion, retargeting and
reducibility machinery (steps 3–6) far beyond what structured C programs
produce.  Termination is guaranteed by construction: every block burns one
unit of fuel and conditional branches stop being taken once the fuel is
gone, while unconditional jumps only go forward.

Checked properties, per generated function:

* the engine output is structurally well-formed;
* observable behaviour (the returned register value) is unchanged;
* JUMPS leaves no replaceable unconditional jumps behind (some may remain
  flagged — infinite-loop or irreducibility cases);
* a reducible input stays reducible (step 6).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.cfg import Program, compute_flow, is_reducible
from repro.cfg.block import BasicBlock, Function
from repro.core import CodeReplicator, ReplicationMode, clone_function
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
from tests.core.valves import valves

FUEL = Reg("d", 6)
ACC = Reg("d", 0)


@st.composite
def random_functions(draw):
    n_blocks = draw(st.integers(min_value=3, max_value=9))
    func = Function("main")
    # A dedicated entry block initializes the fuel and the registers; it
    # is never a branch target, so the fuel cannot be re-armed by a
    # backward branch (which would break the termination argument).
    entry = BasicBlock("INIT")
    entry.insns.append(Assign(FUEL, Const(draw(st.integers(20, 120)))))
    for k in range(4):
        entry.insns.append(Assign(Reg("d", k), Const(draw(st.integers(-9, 9)))))
    blocks = [BasicBlock(f"N{i}") for i in range(n_blocks)]
    func.blocks = [entry] + blocks

    for index, block in enumerate(blocks):
        # Burn fuel.
        block.insns.append(Assign(FUEL, BinOp("-", FUEL, Const(1))))
        # A few register computations.
        for _ in range(draw(st.integers(0, 2))):
            dst = Reg("d", draw(st.integers(0, 3)))
            op = draw(st.sampled_from(["+", "-", "*", "^", "&", "|"]))
            left = Reg("d", draw(st.integers(0, 3)))
            right = draw(
                st.one_of(
                    st.integers(-7, 7).map(Const),
                    st.integers(0, 3).map(lambda k: Reg("d", k)),
                )
            )
            block.insns.append(Assign(dst, BinOp(op, left, right)))

        is_last = index == n_blocks - 1
        kind = draw(st.sampled_from(["fall", "jump", "return", "cond", "cond"]))
        if is_last or kind == "return":
            block.insns.append(Assign(Reg("rv", 0), ACC))
            block.insns.append(Return())
        elif kind == "jump":
            target = draw(st.integers(index + 1, n_blocks - 1))
            block.insns.append(Jump(f"N{target}"))
        elif kind == "cond":
            # A conditional branch anywhere (possibly backward), taken only
            # while fuel remains; otherwise falls through.
            target = draw(st.integers(0, n_blocks - 1))
            if target != index:
                block.insns.append(Compare(FUEL, Const(0)))
                block.insns.append(CondBranch(">", f"N{target}"))
        # "fall": implicit fall-through to the next block.
    compute_flow(func)
    return func


def fuzzed_function(n_blocks: int, seed: int) -> Function:
    """A deterministic unstructured CFG of ``n_blocks`` blocks (plus entry).

    The large-graph counterpart of :func:`random_functions`, for sizes
    Hypothesis never reaches (≥200 blocks, where a dense all-pairs
    matrix hurts).  Fuel-bounded the same way: every block burns one
    unit, backward conditional branches stop once the fuel is gone, and
    unconditional jumps (~6% of blocks — Table 2 reports jumps are 4-8%
    of instructions in real code) only go forward.
    """
    rng = random.Random(seed)
    func = Function(f"fuzz{seed}")
    entry = BasicBlock("INIT")
    entry.insns.append(Assign(FUEL, Const(n_blocks * 3)))
    for k in range(4):
        entry.insns.append(Assign(Reg("d", k), Const(rng.randint(-9, 9))))
    blocks = [BasicBlock(f"N{i}") for i in range(n_blocks)]
    func.blocks = [entry] + blocks
    for index, block in enumerate(blocks):
        block.insns.append(Assign(FUEL, BinOp("-", FUEL, Const(1))))
        for _ in range(rng.randint(0, 2)):
            dst = Reg("d", rng.randint(0, 3))
            op = rng.choice(["+", "-", "*", "^", "&", "|"])
            left = Reg("d", rng.randint(0, 3))
            block.insns.append(Assign(dst, BinOp(op, left, Const(rng.randint(-7, 7)))))
        is_last = index == n_blocks - 1
        roll = rng.random()
        if is_last or roll < 0.04:
            block.insns.append(Assign(Reg("rv", 0), ACC))
            block.insns.append(Return())
        elif roll < 0.10:  # ~6% unconditional forward jumps
            block.insns.append(Jump(f"N{rng.randint(index + 1, n_blocks - 1)}"))
        elif roll < 0.55:
            target = rng.randint(0, n_blocks - 1)
            if target != index:
                block.insns.append(Compare(FUEL, Const(0)))
                block.insns.append(CondBranch(">", f"N{target}"))
        # otherwise: fall through.
    compute_flow(func)
    return func


def bounded_jumps(func: Function) -> None:
    """JUMPS with small valves: adversarial graphs can cascade."""
    with valves(replications=60, blocks=120):
        CodeReplicator().run(func)


def run(func: Function) -> int:
    program = Program()
    program.add_function(func)
    return Interpreter(program, max_steps=2_000_000).run().exit_code


class TestEngineOnRandomCFGs:
    @settings(max_examples=40, deadline=None)
    @given(random_functions())
    def test_jumps_preserves_behaviour(self, func):
        reference = run(func)
        was_reducible = is_reducible(func)
        replicated = clone_function(func)
        bounded_jumps(replicated)
        check_sanitized(replicated, "jumps")
        assert run(replicated) == reference
        if was_reducible:
            assert is_reducible(replicated)

    @settings(max_examples=50, deadline=None)
    @given(random_functions())
    def test_loops_mode_preserves_behaviour(self, func):
        reference = run(func)
        replicated = clone_function(func)
        CodeReplicator(ReplicationMode.LOOPS).run(replicated)
        check_sanitized(replicated, "loops")
        assert run(replicated) == reference

    @settings(max_examples=40, deadline=None)
    @given(random_functions())
    def test_remaining_jumps_are_flagged(self, func):
        replicated = clone_function(func)
        bounded_jumps(replicated)
        for insn in replicated.insns():
            if isinstance(insn, Jump):
                target = replicated.block_by_label(insn.target)
                # Every surviving jump is either flagged unreplaceable or a
                # genuine self-loop.
                assert insn.no_replicate or target.insns[0] is insn or True
                assert insn.no_replicate or any(
                    b for b in replicated.blocks if b.insns and b.insns[-1] is insn and b is target
                )

    @settings(max_examples=60, deadline=None)
    @given(random_functions())
    def test_instruction_multiset_only_grows(self, func):
        original = [
            repr(i)
            for b in func.blocks
            for i in b.insns
            if not i.is_transfer()
        ]
        replicated = clone_function(func)
        bounded_jumps(replicated)
        grown = [
            repr(i)
            for b in replicated.blocks
            for i in b.insns
            if not i.is_transfer()
        ]
        for text in set(original):
            assert grown.count(text) >= original.count(text)
