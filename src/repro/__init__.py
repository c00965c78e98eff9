"""repro — a reproduction of Mueller & Whalley, PLDI 1992.

*Avoiding Unconditional Jumps by Code Replication.*

The package provides:

* :mod:`repro.rtl` — the RTL intermediate representation,
* :mod:`repro.cfg` — control-flow analysis,
* :mod:`repro.frontend` — a mini-C compiler front-end producing RTL,
* :mod:`repro.targets` — Motorola-68020-like and SPARC-like machine models,
* :mod:`repro.opt` — the VPO-like optimizer (Figure 3 pipeline),
* :mod:`repro.core` — the paper's contribution: the JUMPS and LOOPS
  code-replication algorithms,
* :mod:`repro.ease` — EASE-like execution measurement (RTL interpreter),
* :mod:`repro.cache` — direct-mapped instruction-cache simulation,
* :mod:`repro.benchsuite` — the 14 test programs of Table 3 and the
  compile-measure pipeline used by every experiment.

Quickstart::

    from repro import compile_and_measure

    result = compile_and_measure("sieve", target="sparc", replication="jumps")
    print(result.measurement.dynamic_insns, result.measurement.dynamic_jumps)

Exports are lazy (PEP 562 ``__getattr__``, :mod:`repro._lazy`): ``import
repro`` loads no submodule, and ``compile_and_measure`` imports the
compiler on first use.  The subpackages ``core``, ``ease``, ``targets``
and ``benchsuite`` resolve their public names the same way, so a warm
``repro bench``, whose every cell is a result-cache hit, imports only key
derivation, unpickling and printing: no front end, optimizer or
interpreter.
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(), {".api": ("CompilationResult", "compile_and_measure")}
)
__all__.append("__version__")
