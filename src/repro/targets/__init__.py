"""Target machine models: a 68020-like CISC and a SPARC-like RISC.

Public names load lazily (:mod:`repro._lazy`); ``TARGETS``, the target
spellings, comes from the leaf :mod:`repro.targets.names`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".names": ("TARGETS",),
        ".machine": ("Machine", "get_target", "clear_target_cache"),
        ".m68020": ("M68020",),
        ".sparc": ("Sparc",),
        ".delay_slots": ("fill_delay_slots", "count_nops"),
    },
)
