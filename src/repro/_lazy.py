"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists its public names by submodule and imports a submodule
only when one of its names is first read, so ``import repro.cli`` and a
result-cache hit load none of the compiler.  ``from repro.core import
Policy``, ``repro.ease.measure_program`` and ``from repro.ease import *``
keep working.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose
    ``globals()`` is ``namespace``.

    ``exports`` maps a relative submodule name (``".replication"``) to the
    public names it provides.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(origin[name], package), name)
        namespace[name] = value  # later reads skip this hook
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
