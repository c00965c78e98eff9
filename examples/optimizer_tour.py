#!/usr/bin/env python3
"""A guided tour of the Figure-3 pipeline on one small function.

Shows the RTL after each phase: the naive front-end output, the prologue
cleanups, code replication, the scalar optimization loop, register
allocation, and delay-slot filling — the full journey of the paper's §5.1.

Run:  python examples/optimizer_tour.py
"""

from repro.core import CodeReplicator
from repro.frontend import compile_c
from repro.opt import (
    OptimizationConfig,
    branch_chaining,
    combine,
    eliminate_dead_code,
    eliminate_dead_variables,
    fold_constants,
    legalize,
    local_cse,
    loop_invariant_code_motion,
    promote_locals,
    propagate_copies,
    reorder_blocks,
    strength_reduce,
    color_registers,
)
from repro.rtl import format_function
from repro.targets import fill_delay_slots, get_target

SOURCE = """
int data[32];

int main() {
    int i, sum, scale;
    scale = 3;
    sum = 0;
    for (i = 0; i < 32; i++)
        sum += data[i] * scale;
    return sum;
}
"""


def show(stage, func):
    print("=" * 72)
    print(f"--- {stage} ({func.insn_count()} RTLs, {func.jump_count()} jumps)")
    print("=" * 72)
    print(format_function(func))
    print()


def main() -> None:
    target = get_target("sparc")
    program = compile_c(SOURCE)
    func = program.functions["main"]
    show("front-end output (naive, per §3.1 layouts)", func)

    branch_chaining(func)
    eliminate_dead_code(func)
    reorder_blocks(func)
    eliminate_dead_code(func)
    show("after branch chaining / dead code / reordering", func)

    CodeReplicator().run(func)
    eliminate_dead_code(func)
    show("after code replication (JUMPS)", func)

    fold_constants(func)
    legalize(func, target)
    combine(func, target)
    promote_locals(func)
    legalize(func, target)
    combine(func, target)
    show("after instruction selection + register assignment", func)

    for _ in range(8):
        changed = False
        changed |= local_cse(func, target)
        changed |= propagate_copies(func)
        changed |= fold_constants(func)
        changed |= legalize(func, target)
        changed |= eliminate_dead_variables(func)
        changed |= loop_invariant_code_motion(func)
        changed |= strength_reduce(func)
        changed |= legalize(func, target)
        changed |= combine(func, target)
        changed |= branch_chaining(func)
        changed |= eliminate_dead_code(func)
        if not changed:
            break
    show("after the do-while optimization loop", func)

    color_registers(func, target)
    legalize(func, target)
    eliminate_dead_code(func)
    show("after register allocation by colouring", func)

    fill_delay_slots(func)
    show("after delay-slot filling (final SPARC code)", func)


if __name__ == "__main__":
    main()
