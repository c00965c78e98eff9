"""The paper's contribution: code replication (JUMPS and LOOPS).

Public names load lazily (:mod:`repro._lazy`): ``Policy`` and
``POLICIES`` come from the leaf :mod:`repro.core.policy`, so reading
them loads no replication engine.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".policy": ("Policy", "POLICIES"),
        ".replication": (
            "CodeReplicator",
            "ReplicationMode",
            "ReplicationStats",
            "clone_function",
        ),
        ".shortest_path": ("ShortestPaths",),
    },
)
