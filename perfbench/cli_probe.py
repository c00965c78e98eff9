"""Run ``repro.cli.main`` with its import, command and cache reads timed.

Usage: ``python cli_probe.py TIMINGS.json <repro arguments...>``

The traced ``warm-rerun`` pass launches the CLI through this file
instead of ``python -m repro``: it times ``import repro.cli``, wraps
``ResultCache.get_spec`` (key derivation plus unpickling) and times the
command, then writes the timings as JSON and exits with the CLI's code.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import repro.cli
    from repro.exec.cache import ResultCache

    imported = perf_counter()
    timings = {"import_s": imported - start, "get_s": 0.0, "gets": 0}
    original = ResultCache.get_spec

    def get_spec(self, spec):
        began = perf_counter()
        try:
            return original(self, spec)
        finally:
            timings["get_s"] += perf_counter() - began
            timings["gets"] += 1

    ResultCache.get_spec = get_spec
    command_start = perf_counter()
    code = repro.cli.main(argv)
    timings["command_s"] = perf_counter() - command_start
    with open(out_path, "w") as handle:
        json.dump(timings, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
