"""The replication modes, the JUMPS step-2 policies and their wire names.

A leaf module: :class:`~repro.exec.envelope.CellSpec` validates its
``replication`` and ``policy`` against :data:`REPLICATIONS` and
:data:`POLICIES` and the CLI offers them as choices,
so keying a cached cell must not load the replication engine.
"""

from __future__ import annotations

import enum

__all__ = ["Policy", "POLICIES", "REPLICATIONS"]

#: Replication modes by wire name: SIMPLE, LOOPS and JUMPS.
REPLICATIONS = ("none", "loops", "jumps")


class Policy(enum.Enum):
    """Step-2 heuristic choosing between the two sequence options."""

    SHORTEST = "shortest"  # fewest replicated RTLs first (minimal growth)
    FAVOR_RETURNS = "returns"
    FAVOR_LOOPS = "loops"


#: Policies by wire name: ``CellSpec.policy``, ``--policy``.
POLICIES = {policy.value: policy for policy in Policy}
