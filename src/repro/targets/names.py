"""The target names, one spelling each.

A leaf module: ``CellSpec.target``, every ``--target``/``--targets``
option and the paper's tables read :data:`TARGETS` without loading a
machine description.
"""

__all__ = ["TARGETS"]

#: The target names: ``CellSpec.target``, ``--target``, ``get_target``.
TARGETS = ("sparc", "m68020")
