"""JUMPS — the paper's generalized code-replication algorithm (§4).

This is a thin, user-facing wrapper around the replication engine
configured for the generalized algorithm: any unconditional jump is a
candidate and all six steps are applied.

Usage::

    from repro.core import replicate_jumps

    stats = replicate_jumps(func)          # mutate func in place
    assert func.jump_count() == 0 or stats.jumps_kept > 0
"""

from __future__ import annotations

from typing import Optional

from ..cfg.block import Function, Program
from .replication import (
    CodeReplicator,
    Policy,
    ReplicationMode,
    ReplicationStats,
)

__all__ = ["replicate_jumps", "replicate_jumps_in_program"]


def replicate_jumps(
    func: Function,
    policy: Policy = Policy.SHORTEST,
    max_rtls: Optional[int] = None,
    allow_irreducible: bool = False,
) -> ReplicationStats:
    """Run the JUMPS algorithm on ``func`` (in place).

    :param policy: the step-2 heuristic arbitrating between the
        favoring-returns and favoring-loops sequences.
    :param max_rtls: optional bound on the length of a replication sequence
        in RTLs (the paper's §6 future-work extension).
    :param allow_irreducible: skip the step-6 reducibility rollback; used by
        the optimizer driver for the final invocation (§5.1).
    """
    replicator = CodeReplicator(
        mode=ReplicationMode.JUMPS,
        policy=policy,
        max_rtls=max_rtls,
        allow_irreducible=allow_irreducible,
    )
    return replicator.run(func)


def replicate_jumps_in_program(
    program: Program,
    policy: Policy = Policy.SHORTEST,
    max_rtls: Optional[int] = None,
    allow_irreducible: bool = False,
) -> ReplicationStats:
    """Run JUMPS over every function of ``program``; return merged stats."""
    total = ReplicationStats()
    for func in program.functions.values():
        total.merge(
            replicate_jumps(func, policy, max_rtls, allow_irreducible)
        )
    return total
