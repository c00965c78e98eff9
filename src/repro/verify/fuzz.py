"""A deterministic mini-C fuzzer for the translation validator.

Generates small, always-terminating programs from the same grammar the
hypothesis-based differential tests use — bounded loops with dedicated
counter variables, guarded divisions, bounded shift counts, forward
``goto``s (the construct the paper is about), and ``switch`` — but
driven by a seeded :class:`random.Random` so a CI campaign is exactly
reproducible from its seed.

:func:`verify_source` compiles one program and optimizes it under a
:class:`~repro.verify.verifier.Verifier`; :func:`run_campaign` fuzzes
``n`` programs under ``--verify full``, minimizing the first failure
into a small reproducer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import VerificationError
from .minimize import minimize_source
from .verifier import Verifier

__all__ = ["generate_program", "verify_source", "run_campaign", "CampaignResult"]

_VARS = ["a", "b", "c", "d"]
_BINOPS = ["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"]
_RELS = ["<", "<=", ">", ">=", "==", "!="]


class _Generator:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.loop_counter = 0
        self.label_counter = 0

    # --- expressions ------------------------------------------------------

    def expr(self, depth: int = 0) -> str:
        rng = self.rng
        if depth >= 3 or rng.random() < 0.5:
            if rng.random() < 0.4:
                return str(rng.randint(-50, 50))
            return rng.choice(_VARS)
        op = rng.choice(_BINOPS)
        left = self.expr(depth + 1)
        if op in ("/", "%"):
            right = str(rng.randint(1, 9))  # guarded: no division by zero
        elif op in ("<<", ">>"):
            right = str(rng.randint(0, 8))
        else:
            right = self.expr(depth + 1)
        return f"({left} {op} {right})"

    def cond(self, depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.6:
            return f"({self.expr()} {rng.choice(_RELS)} {self.expr()})"
        left = self.cond(depth + 1)
        right = self.cond(depth + 1)
        if rng.random() < 0.3:
            return f"(!{left})"
        return f"({left} {rng.choice(['&&', '||'])} {right})"

    # --- statements -------------------------------------------------------

    def stmt(self, depth: int, loop_depth: int) -> str:
        rng = self.rng
        kinds = [
            "assign",
            "assign",
            "compound",
            "if",
            "ifelse",
            "for",
            "while",
            "dowhile",
            "goto",
            "switch",
        ]
        if loop_depth > 0:
            kinds += ["break", "continue"]
        kind = rng.choice(kinds)
        indent = "    " * (depth + 1)
        if kind == "assign" or depth >= 3:
            return f"{indent}{rng.choice(_VARS)} = {self.expr()};"
        if kind == "compound":
            op = rng.choice(["+=", "-=", "*=", "^="])
            return f"{indent}{rng.choice(_VARS)} {op} {self.expr()};"
        if kind == "break":
            return f"{indent}break;"
        if kind == "continue":
            return f"{indent}continue;"
        if kind == "if":
            body = self.stmt(depth + 1, loop_depth)
            return f"{indent}if {self.cond()} {{\n{body}\n{indent}}}"
        if kind == "ifelse":
            then = self.stmt(depth + 1, loop_depth)
            other = self.stmt(depth + 1, loop_depth)
            return (
                f"{indent}if {self.cond()} {{\n{then}\n{indent}}} "
                f"else {{\n{other}\n{indent}}}"
            )
        if kind == "goto":
            # Bounded forward goto: conditionally skip one statement.
            label = f"L{self.label_counter}"
            self.label_counter += 1
            skipped = self.stmt(depth + 1, loop_depth)
            landing = rng.choice(_VARS)
            return (
                f"{indent}if {self.cond()} {{\n{indent}    goto {label};\n"
                f"{indent}}}\n{skipped}\n"
                f"{indent}{label}: {landing} = {landing};"
            )
        if kind == "switch":
            var = rng.choice(_VARS)
            arms = []
            for value in range(rng.randint(2, 4)):
                body = self.stmt(depth + 1, loop_depth)
                arms.append(f"{indent}case {value}:\n{body}\n{indent}    break;")
            arms.append(f"{indent}default:\n{self.stmt(depth + 1, loop_depth)}")
            joined = "\n".join(arms)
            return f"{indent}switch ({var} & 7) {{\n{joined}\n{indent}}}"
        # Loops get a dedicated counter the body can never write, so they
        # always terminate.
        counter = f"i{self.loop_counter}"
        self.loop_counter += 1
        bound = rng.randint(1, 6)
        body = self.stmt(depth + 1, loop_depth + 1)
        if kind == "while":
            return (
                f"{indent}{counter} = 0;\n"
                f"{indent}while ({counter} < {bound}) {{\n"
                f"{indent}    {counter} = {counter} + 1;\n"
                f"{body}\n{indent}}}"
            )
        if kind == "dowhile":
            return (
                f"{indent}{counter} = 0;\n"
                f"{indent}do {{\n"
                f"{indent}    {counter} = {counter} + 1;\n"
                f"{body}\n{indent}}} while ({counter} < {bound});"
            )
        return (
            f"{indent}for ({counter} = 0; {counter} < {bound}; {counter}++) {{\n"
            f"{body}\n{indent}}}"
        )


def generate_program(seed: int) -> str:
    """One deterministic mini-C program for ``seed``."""
    rng = random.Random(seed)
    gen = _Generator(rng)
    n_stmts = rng.randint(1, 5)
    body = "\n".join(gen.stmt(0, 0) for _ in range(n_stmts))
    counters = "".join(
        f"    int i{k};\n" for k in range(max(1, gen.loop_counter))
    )
    inits = "\n".join(f"    {v} = {rng.randint(-20, 20)};" for v in _VARS)
    return (
        "int main() {\n"
        "    int a, b, c, d;\n"
        f"{counters}"
        f"{inits}\n"
        f"{body}\n"
        '    printf("%d %d %d %d\\n", a, b, c, d);\n'
        "    return (a ^ b ^ c ^ d) & 255;\n"
        "}\n"
    )


def verify_source(
    source: str,
    target: str = "sparc",
    replication: str = "jumps",
    mode: str = "full",
    inputs: Optional[List[bytes]] = None,
    bisect: bool = True,
    max_rtls: Optional[int] = None,
) -> Dict[str, object]:
    """Compile + optimize ``source`` under verification; return the report.

    Raises :class:`~repro.verify.errors.VerificationError` on failure.
    """
    from ..frontend.codegen import compile_c
    from ..opt.driver import OptimizationConfig, optimize_program
    from ..targets.machine import get_target

    program = compile_c(source)
    verifier = Verifier(mode, inputs=inputs, bisect=bisect)
    config = OptimizationConfig(replication=replication, max_rtls=max_rtls)
    stats = optimize_program(program, get_target(target), config, verifier=verifier)
    report = verifier.report()
    # Valve accounting rides along so campaigns can assert the §5.2
    # convergence guard keeps the backstop valves silent.
    report["valve_trips"] = stats.valve_trips
    report["valve_block_trips"] = stats.valve_block_trips
    report["valve_budget_trips"] = stats.valve_budget_trips
    report["guard_stops"] = stats.guard_stops
    return report


@dataclass
class CampaignResult:
    """Outcome of one fuzzing campaign."""

    programs_run: int = 0
    failures: int = 0
    #: Seed, error text, original and minimized source of the first failure.
    first_failure: Optional[Dict[str, object]] = None
    #: Aggregated verifier counters over every clean run.
    totals: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_campaign(
    count: int,
    seed: int = 0,
    target: str = "sparc",
    replication: str = "jumps",
    mode: str = "full",
    minimize: bool = True,
    max_rtls: Optional[int] = None,
) -> CampaignResult:
    """Fuzz ``count`` programs under verification (CI's verify-smoke job).

    The campaign stops at the first program that fails verification.

    Campaigns run the unbounded engine by default: the replication
    engine's convergence guard, always on, stops the §5.2 cascade that
    some fuzzed shapes start, so every run reaches a fixpoint without
    the paper's §6 ``max_rtls`` bound.  Pass an explicit ``max_rtls`` to
    exercise the bounded engine.
    """
    result = CampaignResult()
    for index in range(count):
        program_seed = seed + index
        source = generate_program(program_seed)
        try:
            report = verify_source(
                source,
                target=target,
                replication=replication,
                mode=mode,
                max_rtls=max_rtls,
            )
        except VerificationError as exc:
            result.failures += 1
            failure: Dict[str, object] = {
                "seed": program_seed,
                "error": str(exc),
                "source": source,
            }
            if minimize:
                failure["minimized"] = minimize_source(
                    source,
                    lambda candidate: _still_fails(
                        candidate, target, replication, mode, max_rtls
                    ),
                )
            result.first_failure = failure
            break
        else:
            for key in (
                "sanitize_checks",
                "sanitize_skipped",
                "oracle_runs",
                "pass_invocations",
                "valve_trips",
                "valve_block_trips",
                "valve_budget_trips",
                "guard_stops",
            ):
                result.totals[key] = result.totals.get(key, 0) + int(
                    report.get(key, 0)
                )
        result.programs_run += 1
    return result


def _still_fails(
    source: str,
    target: str,
    replication: str,
    mode: str,
    max_rtls: Optional[int] = None,
) -> bool:
    try:
        verify_source(
            source,
            target=target,
            replication=replication,
            mode=mode,
            bisect=False,
            max_rtls=max_rtls,
        )
    except VerificationError:
        return True
    except Exception:
        return False  # broken candidate (parse error etc.), not a repro
    return False
