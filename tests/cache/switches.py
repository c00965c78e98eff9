"""The context-switch interval, lowered for a test.

:data:`~repro.cache.direct_mapped.CONTEXT_SWITCH_INTERVAL` is a module
constant that :func:`~repro.cache.simulate_multi_cache` and the
reference replays read from that module; :func:`interval` patches it
around one call.
"""

from unittest import mock

import repro.cache.direct_mapped as direct_mapped


def interval(units: int):
    """Within the ``with`` block, a context switch comes every ``units``
    units of fetch cost."""
    return mock.patch.object(direct_mapped, "CONTEXT_SWITCH_INTERVAL", units)
