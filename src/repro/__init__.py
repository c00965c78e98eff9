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
"""

__version__ = "1.0.0"

from .api import CompilationResult, compile_and_measure

__all__ = [
    "CompilationResult",
    "compile_and_measure",
    "__version__",
]
