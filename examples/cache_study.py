#!/usr/bin/env python3
"""A miniature Table 6: instruction-cache behaviour of one benchmark.

Replication grows the code (worse for tiny caches) but removes executed
instructions (better overall fetch cost once the program fits), which is
exactly the trade-off Table 6 of the paper quantifies.

Run:  python examples/cache_study.py [program]
"""

import sys

from repro import compile_and_measure
from repro.cache import PAPER_CACHE_SIZES, CacheConfig, simulate_multi_cache
from repro.report import format_table

CONFIGS = ("none", "loops", "jumps")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "compact"
    print(f"program: {name} (SPARC, direct-mapped, 16-byte lines)")

    measurements = {
        config: compile_and_measure(
            name, target="sparc", replication=config, trace=True
        ).measurement
        for config in CONFIGS
    }
    caches = [CacheConfig(size=size) for size in PAPER_CACHE_SIZES]
    # One trace walk per configuration covers all four cache sizes.
    results = {
        config: simulate_multi_cache(m.trace, m.block_fetches, caches)
        for config, m in measurements.items()
    }
    rows = []
    for i, size in enumerate(PAPER_CACHE_SIZES):
        row = [f"{size // 1024}Kb"]
        base = results["none"][i].fetch_cost
        for config in CONFIGS:
            r = results[config][i]
            if config == "none":
                row.append(f"{r.miss_ratio * 100:.2f}% / {r.fetch_cost}")
            else:
                delta = (r.fetch_cost - base) / base * 100
                row.append(f"{r.miss_ratio * 100:.2f}% / {delta:+.2f}%")
        rows.append(row)

    print(format_table(
        ["cache", "SIMPLE (miss/cost)", "LOOPS (miss/Δcost)", "JUMPS (miss/Δcost)"],
        rows,
    ))
    simple = measurements["none"].code_bytes
    jumps = measurements["jumps"].code_bytes
    print(f"\ncode size: SIMPLE {simple} bytes -> JUMPS {jumps} bytes "
          f"({(jumps - simple) / simple * 100:+.1f}%)")


if __name__ == "__main__":
    main()
