"""The paper's contribution: code replication (JUMPS and LOOPS)."""

from .jumps import replicate_jumps, replicate_jumps_in_program
from .loops_replication import (
    replicate_loop_tests,
    replicate_loop_tests_in_program,
)
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
    "replicate_jumps",
    "replicate_jumps_in_program",
    "replicate_loop_tests",
    "replicate_loop_tests_in_program",
    "CodeReplicator",
    "Policy",
    "ReplicationMode",
    "ReplicationStats",
    "clone_function",
    "ShortestPaths",
    "ProfileGuidedResult",
    "profile_guided_replication",
]
