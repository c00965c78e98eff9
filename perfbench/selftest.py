#!/usr/bin/env python3
"""Smoke self-check of the ledger; finishes in well under a minute.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload on tiny inputs (2 programs, 2 fuzz seeds, 2 CLI
invocations) in both modes and asserts that

* every metric named in ``BENCHMARK.json`` is printed, with its unit,
  and no other metric is;
* a deliberately wrong reference output is counted as a failed item
  (``ok_frac`` below 1, non-zero exit code), for the cell matrix and for
  the fuzz programs.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run


def run_captured(argv, mutate=None):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.main(argv, mutate_context=mutate)
    text = buffer.getvalue()
    return code, text, json.loads(text.strip().splitlines()[-1])


def smoke_argv(workload: str, trace: int):
    return [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]


def check_names(spec: dict) -> None:
    workloads = [entry["name"] for entry in spec["workloads"]]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {entry["name"]: entry["unit"] for entry in spec[section]}
        for workload in workloads:
            code, text, result = run_captured(smoke_argv(workload, trace))
            assert code == 0 and result["correct"], (workload, trace, text)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, (workload, trace, set(printed) ^ set(expected))
            for name, unit in expected.items():
                lines = [line.split() for line in text.splitlines()]
                assert any(
                    len(row) >= 3 and row[0] == name and row[2] == unit for row in lines
                ), (workload, name, unit)
            print(f"ok  {workload} --trace {trace}: {len(expected)} metrics with units")


def check_wrong_reference() -> None:
    def corrupt_suite(ctx):
        name = ctx.scale.names[0]
        ctx.refs[name] = dict(ctx.refs[name], output="not the reference output")

    def corrupt_fuzz(ctx):
        seed = str(ctx.scale.fuzz_seeds[0])
        ctx.fuzz_refs[seed] = dict(ctx.fuzz_refs[seed], output="not the reference output")

    for workload, corrupt in (("tables45-cold", corrupt_suite), ("fuzz-verify", corrupt_fuzz)):
        code, text, result = run_captured(smoke_argv(workload, 0), corrupt)
        ok_frac = result["metrics"]["ok_frac"]["value"]
        assert code != 0, (workload, text)
        assert not result["correct"] and result["failed"] > 0, result
        assert ok_frac < 1.0, ok_frac
        print(f"ok  {workload}: wrong reference counted ({result['failed']} failed, ok_frac {ok_frac:.3f})")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_names(spec)
    check_wrong_reference()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
