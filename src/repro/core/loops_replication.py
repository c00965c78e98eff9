"""LOOPS — replication of loop termination conditions only (§5).

This is the conventional optimization ("often implemented in optimizing
compilers", the paper notes): an unconditional jump preceding a natural
loop, or at the end of one, is replaced by a copy of the loop's termination
condition with the condition reversed.  Depending on the original layout
this either removes one jump at the loop entry or saves one jump per
iteration.

It is implemented as a restriction of the general replication engine: only
single-block favoring-loops sequences that end in a conditional branch and
are the test of a loop adjacent to the jump are admissible.
"""

from __future__ import annotations

from ..cfg.block import Function, Program
from .replication import CodeReplicator, Policy, ReplicationMode, ReplicationStats

__all__ = ["replicate_loop_tests", "replicate_loop_tests_in_program"]


def replicate_loop_tests(func: Function) -> ReplicationStats:
    """Run the LOOPS configuration on ``func`` (in place)."""
    replicator = CodeReplicator(
        mode=ReplicationMode.LOOPS,
        policy=Policy.FAVOR_LOOPS,
    )
    return replicator.run(func)


def replicate_loop_tests_in_program(program: Program) -> ReplicationStats:
    """Run LOOPS over every function of ``program``; return merged stats."""
    total = ReplicationStats()
    for func in program.functions.values():
        total.merge(replicate_loop_tests(func))
    return total
