"""The paper's contribution: code replication (JUMPS and LOOPS)."""

from .profile_guided import ProfileGuidedResult, profile_guided_replication
from .replication import (
    CodeReplicator,
    Policy,
    ReplicationMode,
    ReplicationStats,
    clone_function,
)
from .shortest_path import ShortestPaths

__all__ = [
    "CodeReplicator",
    "Policy",
    "ReplicationMode",
    "ReplicationStats",
    "clone_function",
    "ShortestPaths",
    "ProfileGuidedResult",
    "profile_guided_replication",
]
