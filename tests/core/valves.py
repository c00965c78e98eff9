"""The replication engine's safety valves, lowered for a test.

:data:`~repro.core.replication.MAX_REPLICATIONS` and
:data:`~repro.core.replication.MAX_FUNCTION_BLOCKS` are module constants
that :meth:`~repro.core.replication.CodeReplicator.run` reads as it
goes; :func:`valves` patches them around one call.
"""

from unittest import mock

import repro.core.replication as replication_module


def valves(
    replications: int = replication_module.MAX_REPLICATIONS,
    blocks: int = replication_module.MAX_FUNCTION_BLOCKS,
):
    """Within the ``with`` block, a replication run stops after
    ``replications`` replacements or once its function has ``blocks``
    blocks."""
    return mock.patch.multiple(
        replication_module,
        MAX_REPLICATIONS=replications,
        MAX_FUNCTION_BLOCKS=blocks,
    )
