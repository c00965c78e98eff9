"""Runtime (builtin library) tests, via small C programs."""

import pytest

from repro.ease import CompiledInterpreter, Interpreter
from repro.frontend import compile_c
from tests.conftest import run_c


class TestPrintf:
    def test_width_and_flags_combinations(self):
        out, _ = run_c(
            r'int main() { printf("[%3d][%-3d][%03d]", 7, 7, 7); return 0; }'
        )
        assert out == b"[  7][7  ][007]"

    def test_string_width(self):
        out, _ = run_c(r'int main() { printf("[%5s]", "ab"); return 0; }')
        assert out == b"[   ab]"

    def test_octal_hex(self):
        out, _ = run_c(r'int main() { printf("%o %x %07o", 64, 64, 64); return 0; }')
        assert out == b"100 40 0000100"

    def test_unsigned(self):
        out, _ = run_c(r'int main() { printf("%u", 0 - 1); return 0; }')
        assert out == b"4294967295"

    def test_percent_literal(self):
        out, _ = run_c(r'int main() { printf("100%%"); return 0; }')
        assert out == b"100%"

    def test_long_modifier(self):
        out, _ = run_c(r'int main() { printf("%ld", 7); return 0; }')
        assert out == b"7"


class TestStringRoutines:
    def test_strcmp_ordering(self):
        out, code = run_c(
            """
            int main() {
                return (strcmp("abc", "abd") < 0)
                     + (strcmp("b", "a") > 0) * 10
                     + (strcmp("same", "same") == 0) * 100;
            }
            """
        )
        assert code == 111

    def test_strcpy_returns_destination(self):
        _, code = run_c(
            """
            char buf[8];
            int main() {
                char *r;
                r = strcpy(buf, "ok");
                return r[0];
            }
            """
        )
        assert code == ord("o")

    def test_strlen_empty(self):
        _, code = run_c('int main() { return strlen(""); }')
        assert code == 0


class TestIO:
    def test_getchar_eof_is_minus_one(self):
        _, code = run_c("int main() { return getchar(); }", b"")
        assert code == -1

    def test_getchar_sequence(self):
        out, _ = run_c(
            """
            int main() {
                int a, b;
                a = getchar();
                b = getchar();
                putchar(b);
                putchar(a);
                return 0;
            }
            """,
            b"xy",
        )
        assert out == b"yx"


class TestAllocator:
    def test_malloc_returns_distinct_aligned_chunks(self):
        _, code = run_c(
            """
            int main() {
                char *a;
                char *b;
                a = malloc(5);
                b = malloc(5);
                if (a == b) return 1;
                if (b < a + 5) return 2;
                return (b - a) % 4 == 0 || 1;
            }
            """
        )
        assert code == 1

    def test_malloc_memory_is_usable(self):
        _, code = run_c(
            """
            int main() {
                int *p;
                int i, s;
                p = malloc(40);
                for (i = 0; i < 10; i++) p[i] = i;
                s = 0;
                for (i = 0; i < 10; i++) s += p[i];
                return s;
            }
            """
        )
        assert code == 45


@pytest.mark.parametrize("engine_cls", [Interpreter, CompiledInterpreter])
class TestMemoryBounds:
    """A builtin touches memory only inside it, on both engines."""

    def test_string_below_memory_raises(self, engine_cls):
        # Python indexing would read address -4 from the end of memory.
        program = compile_c("int main() { char *p; p = 0; puts(p - 4); return 0; }")
        with pytest.raises(IndexError, match="leaves memory"):
            engine_cls(program).run()

    def test_memset_negative_size_raises(self, engine_cls):
        # 0 - 5 is a size_t of 4294967291 bytes: far past the end.
        program = compile_c(
            "int main() { char *p; p = malloc(16); memset(p + 8, 0, 0 - 5); return 0; }"
        )
        with pytest.raises(IndexError, match="leaves memory"):
            engine_cls(program).run()
