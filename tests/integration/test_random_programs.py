"""Property-based differential testing with randomly generated mini-C.

Hypothesis builds small, terminating C programs (bounded ``for``,
``while`` and ``do``/``while`` loops, guarded divisions, and bounded
*forward* ``goto``/label statements — the construct the paper is about,
and now and then a literal outside signed-32 range);
the observable behaviour of the optimized code — for both targets and
all three paper configurations — must match the unoptimized front-end
output exactly.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import run_c

VARS = ["a", "b", "c", "d"]
#: Literals at and past the edge of signed-32 range: each must read as its
#: 32-bit word alike in memory and in a register.
WIDE_LITERALS = [2147483647, 2147483648, 4294967295, 4294967297]


@st.composite
def literals(draw, bound):
    """A literal in ``-bound..bound``, or now and then a wide one."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(WIDE_LITERALS))
    return draw(st.integers(-bound, bound))


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            return str(draw(literals(50)))
        return draw(st.sampled_from(VARS))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"]))
    left = draw(expressions(depth=depth + 1))
    if op in ("/", "%"):
        right = str(draw(st.integers(1, 9)))  # guarded: no division by zero
    elif op in ("<<", ">>"):
        right = str(draw(st.integers(0, 8)))
    else:
        right = draw(expressions(depth=depth + 1))
    return f"({left} {op} {right})"


@st.composite
def conditions(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        rel = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return f"({draw(expressions())} {rel} {draw(expressions())})"
    joiner = draw(st.sampled_from(["&&", "||"]))
    left = draw(conditions(depth=depth + 1))
    right = draw(conditions(depth=depth + 1))
    if draw(st.booleans()):
        return f"(!{left})"
    return f"({left} {joiner} {right})"


@st.composite
def statements(draw, depth, loop_depth, loop_counter, label_counter=None):
    if label_counter is None:
        label_counter = [0]
    kind = draw(
        st.sampled_from(
            [
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
            + (["break", "continue"] if loop_depth > 0 else [])
        )
    )
    indent = "    " * (depth + 1)
    if kind == "assign" or depth >= 3:
        var = draw(st.sampled_from(VARS))
        return f"{indent}{var} = {draw(expressions())};"
    if kind == "compound":
        var = draw(st.sampled_from(VARS))
        op = draw(st.sampled_from(["+=", "-=", "*=", "^="]))
        return f"{indent}{var} {op} {draw(expressions())};"
    if kind == "break":
        return f"{indent}break;"
    if kind == "continue":
        return f"{indent}continue;"
    if kind == "if":
        body = draw(statements(depth + 1, loop_depth, loop_counter, label_counter))
        return f"{indent}if {draw(conditions())} {{\n{body}\n{indent}}}"
    if kind == "ifelse":
        then = draw(statements(depth + 1, loop_depth, loop_counter, label_counter))
        other = draw(statements(depth + 1, loop_depth, loop_counter, label_counter))
        return (
            f"{indent}if {draw(conditions())} {{\n{then}\n{indent}}} "
            f"else {{\n{other}\n{indent}}}"
        )
    if kind == "goto":
        # A bounded *forward* goto: conditionally skip the next statement,
        # landing on a label defined later in the same snippet.  The label
        # is fresh (function-scoped, counter-named) and the jump can only
        # move forward, so termination is unaffected.
        label = f"L{label_counter[0]}"
        label_counter[0] += 1
        skipped = draw(
            statements(depth + 1, loop_depth, loop_counter, label_counter)
        )
        landing = draw(st.sampled_from(VARS))
        return (
            f"{indent}if {draw(conditions())} {{\n{indent}    goto {label};\n"
            f"{indent}}}\n{skipped}\n"
            f"{indent}{label}: {landing} = {landing};"
        )
    if kind == "switch":
        var = draw(st.sampled_from(VARS))
        arms = []
        for value in range(draw(st.integers(2, 4))):
            body = draw(
                statements(depth + 1, loop_depth, loop_counter, label_counter)
            )
            arms.append(f"{indent}case {value}:\n{body}\n{indent}    break;")
        default = draw(statements(depth + 1, loop_depth, loop_counter, label_counter))
        arms.append(f"{indent}default:\n{default}")
        joined = "\n".join(arms)
        return f"{indent}switch ({var} & 7) {{\n{joined}\n{indent}}}"
    # Every loop gets a fresh counter variable that body statements can
    # never write (VARS excludes loop counters), so loops always terminate.
    counter = f"i{loop_counter[0]}"
    loop_counter[0] += 1
    bound = draw(st.integers(1, 6))
    body = draw(statements(depth + 1, loop_depth + 1, loop_counter, label_counter))
    if kind == "while":
        # The counter advances at the top of the body, so a generated
        # `continue` cannot skip it and loop forever.
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


@st.composite
def programs(draw):
    loop_counter = [0]
    label_counter = [0]
    n_stmts = draw(st.integers(1, 5))
    body = "\n".join(
        draw(statements(0, 0, loop_counter, label_counter)) for _ in range(n_stmts)
    )
    counters = "".join(f"    int i{k};\n" for k in range(max(1, loop_counter[0])))
    inits = "\n".join(
        f"    {v} = {draw(literals(20))};" for v in VARS
    )
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


class TestRandomPrograms:
    @settings(
        max_examples=18,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(programs())
    def test_optimized_behaviour_matches_reference(self, source):
        reference = run_c(source)
        for target in ("m68020", "sparc"):
            for replication in ("none", "loops", "jumps"):
                got = run_c(source, target=target, replication=replication)
                assert got == reference, (
                    f"{target}/{replication} diverged\n{source}"
                )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(programs())
    def test_jumps_leaves_no_unconditional_jumps(self, source):
        from repro.frontend import compile_c
        from repro.opt import OptimizationConfig, optimize_program
        from repro.targets import get_target

        program = compile_c(source)
        stats = optimize_program(
            program, get_target("sparc"), OptimizationConfig(replication="jumps")
        )
        # Indirect-jump-adjacent and irreducibility leftovers are allowed;
        # programs without switches should reach zero — unless the §5.2
        # convergence guard (or, as a backstop, a safety valve)
        # legitimately kept a jump whose replication would cascade,
        # which goto-into-loop programs can force (see
        # tests/core/test_replication_valve.py and
        # tests/core/test_replication_selfcopy.py).
        if (
            "switch" not in source
            and stats.valve_trips == 0
            and stats.guard_stops == 0
        ):
            assert program.jump_count() == 0
