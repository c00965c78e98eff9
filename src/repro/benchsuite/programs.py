"""The test set of C programs (Table 3 of the paper).

Every program is rewritten in the mini-C dialect, preserving the
control-flow character of the original (text filters with per-character
loops, sorts, nested numeric loops, recursion, table-driven dispatch),
because that is what determines how many unconditional jumps the compiler
emits and what code replication can do about them.

========== =========================== =================================
Class      Name                        Description (paper's Table 3)
========== =========================== =================================
Utilities  banner                      banner generator
           cal                         calendar generator
           compact                     file compression
           deroff                      remove nroff constructs
           grep                        pattern search
           od                          octal dump
           sort                        sort or merge files
           wc                          word count
Benchmarks bubblesort                  sort numbers
           matmult                     matrix multiplication
           sieve                       iteration
           queens                      8-queens problem
           quicksort                   sort numbers (iterative)
User code  mincost                     VLSI circuit partitioning
========== =========================== =================================

Workloads are deterministic and scaled so each program executes roughly
10^4–10^6 RTLs (the paper ran up to 29M; ratios, not magnitudes, are what
the experiments compare — see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict

__all__ = ["BenchmarkProgram", "PROGRAMS", "program_names"]


@dataclass
class BenchmarkProgram:
    """One Table-3 program: source text plus its deterministic workload.

    ``workload`` builds the stdin bytes; :attr:`stdin` calls it on first
    read, so importing the suite (and ``repro --help``) builds none.
    """

    name: str
    category: str
    description: str
    source: str
    workload: Callable[[], bytes] = bytes

    @cached_property
    def stdin(self) -> bytes:
        return self.workload()


#: What follows a word, by a 0..11 roll: 7 spaces, 3 newlines, ". ", ", ".
_SEPARATORS = (b" ",) * 7 + (b"\n",) * 3 + (b". ", b", ")


def _lcg_text(seed: int, size: int) -> bytes:
    """Deterministic pseudo-text: words, punctuation and newlines."""
    out = bytearray()
    append = out.append
    extend = out.extend
    state = seed
    while len(out) < size:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        for _ in range((state >> 16) % 9 + 1):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            append((state >> 16) % 26 + 97)  # a..z
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        extend(_SEPARATORS[(state >> 16) % 12])
    return bytes(out[:size])


def _nroff_text() -> bytes:
    """Text sprinkled with nroff requests and font escapes for deroff."""
    body = _lcg_text(7, 2600).decode("latin-1")
    lines = body.split("\n")
    out = []
    requests = [".PP", ".SH NAME", ".br", ".ft B", ".in +2", ".TH WC 1"]
    for i, line in enumerate(lines):
        if i % 4 == 1:
            out.append(requests[i % len(requests)])
        if i % 5 == 2 and len(line) > 4:
            line = line[:3] + "\\fB" + line[3:] + "\\fP"
        out.append(line)
    return ("\n".join(out) + "\n").encode("latin-1")


WC_SOURCE = r"""
int main() {
    int lines, words, chars, c, inword;
    lines = 0;
    words = 0;
    chars = 0;
    inword = 0;
    c = getchar();
    while (c != -1) {
        chars++;
        if (c == '\n')
            lines++;
        if (c == ' ' || c == '\n' || c == '\t')
            inword = 0;
        else if (inword == 0) {
            inword = 1;
            words++;
        }
        c = getchar();
    }
    printf("%7d %7d %7d\n", lines, words, chars);
    return 0;
}
"""

SIEVE_SOURCE = r"""
int flags[4096];

int main() {
    int i, k, count, iter;
    count = 0;
    for (iter = 0; iter < 8; iter++) {
        count = 0;
        for (i = 2; i < 4096; i++)
            flags[i] = 1;
        for (i = 2; i < 4096; i++) {
            if (flags[i]) {
                count++;
                for (k = i + i; k < 4096; k += i)
                    flags[k] = 0;
            }
        }
    }
    printf("%d primes\n", count);
    return 0;
}
"""

BUBBLESORT_SOURCE = r"""
int data[450];

int main() {
    int i, j, t, n, seed, swaps;
    n = 450;
    seed = 12345;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        data[i] = (seed >> 8) & 32767;
    }
    swaps = 0;
    for (i = 0; i < n - 1; i++) {
        for (j = 0; j < n - 1 - i; j++) {
            if (data[j] > data[j + 1]) {
                t = data[j];
                data[j] = data[j + 1];
                data[j + 1] = t;
                swaps++;
            }
        }
    }
    for (i = 1; i < n; i++) {
        if (data[i - 1] > data[i]) {
            printf("NOT SORTED\n");
            return 1;
        }
    }
    printf("sorted %d numbers, %d swaps, min %d max %d\n",
           n, swaps, data[0], data[n - 1]);
    return 0;
}
"""

MATMULT_SOURCE = r"""
int a[24][24];
int b[24][24];
int c[24][24];

int main() {
    int i, j, k, n, sum, trace, rep;
    n = 24;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            a[i][j] = i + j;
            b[i][j] = i - j;
        }
    }
    for (rep = 0; rep < 4; rep++) {
        for (i = 0; i < n; i++) {
            for (j = 0; j < n; j++) {
                sum = 0;
                for (k = 0; k < n; k++)
                    sum += a[i][k] * b[k][j];
                c[i][j] = sum;
            }
        }
    }
    trace = 0;
    for (i = 0; i < n; i++)
        trace += c[i][i];
    printf("trace %d\n", trace);
    return 0;
}
"""

QUEENS_SOURCE = r"""
int rows[8];
int down[15];
int updiag[15];
int solutions;

int place(int col) {
    int row;
    if (col == 8) {
        solutions++;
        return 0;
    }
    for (row = 0; row < 8; row++) {
        if (rows[row] == 0 && down[row + col] == 0 && updiag[row - col + 7] == 0) {
            rows[row] = 1;
            down[row + col] = 1;
            updiag[row - col + 7] = 1;
            place(col + 1);
            rows[row] = 0;
            down[row + col] = 0;
            updiag[row - col + 7] = 0;
        }
    }
    return 0;
}

int main() {
    solutions = 0;
    place(0);
    printf("%d solutions\n", solutions);
    return 0;
}
"""

QUICKSORT_SOURCE = r"""
int data[1400];
int stack[64];

int main() {
    int i, n, seed, sp, lo, hi, pivot, x, t;
    n = 1400;
    seed = 99;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        data[i] = (seed >> 7) & 65535;
    }
    sp = 0;
    stack[sp++] = 0;
    stack[sp++] = n - 1;
    while (sp > 0) {
        hi = stack[--sp];
        lo = stack[--sp];
        while (lo < hi) {
            x = data[(lo + hi) / 2];
            i = lo;
            pivot = hi;
            while (i <= pivot) {
                while (data[i] < x)
                    i++;
                while (data[pivot] > x)
                    pivot--;
                if (i <= pivot) {
                    t = data[i];
                    data[i] = data[pivot];
                    data[pivot] = t;
                    i++;
                    pivot--;
                }
            }
            if (pivot - lo < hi - i) {
                if (i < hi) {
                    stack[sp++] = i;
                    stack[sp++] = hi;
                }
                hi = pivot;
            } else {
                if (lo < pivot) {
                    stack[sp++] = lo;
                    stack[sp++] = pivot;
                }
                lo = i;
            }
        }
    }
    for (i = 1; i < n; i++) {
        if (data[i - 1] > data[i]) {
            printf("NOT SORTED\n");
            return 1;
        }
    }
    printf("sorted %d numbers, median %d\n", n, data[n / 2]);
    return 0;
}
"""

CAL_SOURCE = r"""
char month_name[144];
int month_days[12];

int day_of_week(int y, int m, int d) {
    int t;
    if (m < 3) {
        y--;
        m += 12;
    }
    t = (d + 13 * (m + 1) / 5 + y + y / 4 - y / 100 + y / 400) % 7;
    /* Zeller yields 0=Saturday; shift so 0=Sunday for the layout. */
    return (t + 6) % 7;
}

int leap(int y) {
    if (y % 400 == 0)
        return 1;
    if (y % 100 == 0)
        return 0;
    if (y % 4 == 0)
        return 1;
    return 0;
}

int init_tables() {
    strcpy(&month_name[0], "January");
    strcpy(&month_name[12], "February");
    strcpy(&month_name[24], "March");
    strcpy(&month_name[36], "April");
    strcpy(&month_name[48], "May");
    strcpy(&month_name[60], "June");
    strcpy(&month_name[72], "July");
    strcpy(&month_name[84], "August");
    strcpy(&month_name[96], "September");
    strcpy(&month_name[108], "October");
    strcpy(&month_name[120], "November");
    strcpy(&month_name[132], "December");
    month_days[0] = 31; month_days[1] = 28; month_days[2] = 31;
    month_days[3] = 30; month_days[4] = 31; month_days[5] = 30;
    month_days[6] = 31; month_days[7] = 31; month_days[8] = 30;
    month_days[9] = 31; month_days[10] = 30; month_days[11] = 31;
    return 0;
}

int print_month(int year, int month) {
    int first, days, day, cell;
    printf("    %s %d\n", &month_name[month * 12], year);
    puts("Su Mo Tu We Th Fr Sa");
    days = month_days[month];
    if (month == 1 && leap(year))
        days = 29;
    first = day_of_week(year, month + 1, 1);
    cell = 0;
    while (cell < first) {
        printf("   ");
        cell++;
    }
    for (day = 1; day <= days; day++) {
        printf("%2d ", day);
        cell++;
        if (cell == 7) {
            putchar('\n');
            cell = 0;
        }
    }
    if (cell != 0)
        putchar('\n');
    putchar('\n');
    return 0;
}

int main() {
    int month, year;
    init_tables();
    for (year = 1992; year <= 1993; year++)
        for (month = 0; month < 12; month++)
            print_month(year, month);
    return 0;
}
"""

BANNER_SOURCE = r"""
char glyphs[40][32];

int glyph_index(int c) {
    if (c >= 'A' && c <= 'Z')
        return c - 'A';
    if (c >= '0' && c <= '9')
        return 26 + c - '0';
    return 36;
}

int define(int slot, char *rows) {
    strcpy(&glyphs[slot][0], rows);
    return 0;
}

int init_font() {
    int i;
    for (i = 0; i < 40; i++)
        define(i, "#####*#   #*#   #*#   #*#####");
    define(0, " ### *#   #*#####*#   #*#   #");   /* A */
    define(4, "#####*#    *#### *#    *#####");   /* E */
    define(11, "#    *#    *#    *#    *#####");  /* L */
    define(14, " ### *#   #*#   #*#   #* ### ");  /* O */
    define(17, "#### *#   #*#### *# #  *#  ##");  /* R */
    define(18, " ####*#    * ### *    #*#### ");  /* S */
    define(19, "#####*  #  *  #  *  #  *  #  ");  /* T */
    define(26, " ### *#  ##*# # #*##  #* ### ");  /* 0 */
    define(27, "  #  * ##  *  #  *  #  *#####");  /* 1 */
    define(28, " ### *#   #*  ## * #   *#####");  /* 2 */
    define(35, " ####*#   #* ####*    #* ### ");  /* 9 */
    define(36, "     *     *     *     *     ");  /* space */
    return 0;
}

int main() {
    char word[64];
    int len, row, i, j, c, slot;
    init_font();
    len = 0;
    c = getchar();
    while (c != -1 && c != '\n' && len < 60) {
        word[len++] = c;
        c = getchar();
    }
    for (row = 0; row < 5; row++) {
        for (i = 0; i < len; i++) {
            slot = glyph_index(word[i]);
            j = row * 6;
            while (glyphs[slot][j] != '*' && glyphs[slot][j] != 0) {
                putchar(glyphs[slot][j]);
                j++;
            }
            putchar(' ');
        }
        putchar('\n');
    }
    return 0;
}
"""

OD_SOURCE = r"""
int main() {
    int buf[8];
    int c, count, offset, i;
    offset = 0;
    count = 0;
    c = getchar();
    while (c != -1) {
        buf[count++] = c;
        if (count == 8) {
            printf("%07o ", offset);
            for (i = 0; i < 8; i++)
                printf(" %03o", buf[i]);
            putchar('\n');
            offset += 8;
            count = 0;
        }
        c = getchar();
    }
    if (count > 0) {
        printf("%07o ", offset);
        for (i = 0; i < count; i++)
            printf(" %03o", buf[i]);
        putchar('\n');
        offset += count;
    }
    printf("%07o\n", offset);
    return 0;
}
"""

GREP_SOURCE = r"""
char pattern[64];
char line[256];

/* Match pattern (supports ^, $, ., *) against text, grep-style. */
int match_here(char *pat, char *text);

int match_star(int c, char *pat, char *text) {
    do {
        if (match_here(pat, text))
            return 1;
    } while (*text != 0 && (*text++ == c || c == '.'));
    return 0;
}

int match_here(char *pat, char *text) {
    if (*pat == 0)
        return 1;
    if (pat[1] == '*')
        return match_star(*pat, pat + 2, text);
    if (*pat == '$' && pat[1] == 0)
        return *text == 0;
    if (*text != 0 && (*pat == '.' || *pat == *text))
        return match_here(pat + 1, text + 1);
    return 0;
}

int match(char *pat, char *text) {
    if (*pat == '^')
        return match_here(pat + 1, text);
    do {
        if (match_here(pat, text))
            return 1;
    } while (*text++ != 0);
    return 0;
}

int main() {
    int c, len, matched, lineno;
    /* First input line is the pattern, the rest is searched. */
    len = 0;
    c = getchar();
    while (c != -1 && c != '\n' && len < 63) {
        pattern[len++] = c;
        c = getchar();
    }
    pattern[len] = 0;
    matched = 0;
    lineno = 0;
    len = 0;
    c = getchar();
    while (c != -1) {
        if (c == '\n') {
            line[len] = 0;
            lineno++;
            if (match(pattern, line)) {
                matched++;
                printf("%d:%s\n", lineno, line);
            }
            len = 0;
        } else if (len < 255) {
            line[len++] = c;
        }
        c = getchar();
    }
    printf("%d matching lines\n", matched);
    return 0;
}
"""

SORT_SOURCE = r"""
char text[6000];
char *lines[400];

int compare_lines(char *a, char *b) {
    while (*a != 0 && *a == *b) {
        a++;
        b++;
    }
    return *a - *b;
}

int main() {
    int c, nlines, used, i, gap, j;
    char *t;
    nlines = 0;
    used = 0;
    lines[0] = &text[0];
    c = getchar();
    while (c != -1 && used < 5998 && nlines < 399) {
        if (c == '\n') {
            text[used++] = 0;
            nlines++;
            lines[nlines] = &text[used];
        } else {
            text[used++] = c;
        }
        c = getchar();
    }
    /* Shell sort the line pointers. */
    gap = 1;
    while (gap < nlines)
        gap = gap * 3 + 1;
    while (gap > 0) {
        for (i = gap; i < nlines; i++) {
            t = lines[i];
            j = i;
            while (j >= gap && compare_lines(lines[j - gap], t) > 0) {
                lines[j] = lines[j - gap];
                j -= gap;
            }
            lines[j] = t;
        }
        gap = gap / 3;
    }
    for (i = 0; i < nlines; i++)
        puts(lines[i]);
    return 0;
}
"""

COMPACT_SOURCE = r"""
/* File compression in the spirit of compact(1): adaptive order-0 model
   with a move-to-front coder and run-length packing of the code stream. */
int freq[256];
int order[256];
char input[8000];
int output_bits;

int mtf_encode(int c) {
    int i, rank, prev, cur;
    rank = 0;
    for (i = 0; i < 256; i++) {
        if (order[i] == c) {
            rank = i;
            break;
        }
    }
    /* Move to front. */
    prev = order[0];
    order[0] = c;
    for (i = 1; i <= rank; i++) {
        cur = order[i];
        order[i] = prev;
        prev = cur;
    }
    return rank;
}

int code_length(int rank) {
    int bits;
    bits = 1;
    while (rank > 0) {
        bits += 2;
        rank = rank / 2;
    }
    return bits;
}

int main() {
    int n, i, c, rank, run, total;
    for (i = 0; i < 256; i++) {
        order[i] = i;
        freq[i] = 0;
    }
    n = 0;
    c = getchar();
    while (c != -1 && n < 7999) {
        input[n++] = c;
        freq[c]++;
        c = getchar();
    }
    total = 0;
    run = 0;
    for (i = 0; i < n; i++) {
        rank = mtf_encode(input[i] & 255);
        if (rank == 0) {
            run++;
        } else {
            if (run > 0) {
                total += code_length(run) + 2;
                run = 0;
            }
            total += code_length(rank);
        }
    }
    if (run > 0)
        total += code_length(run) + 2;
    output_bits = total;
    printf("in %d bytes out %d bytes (%d%%)\n",
           n, (total + 7) / 8, (total + 7) / 8 * 100 / n);
    return 0;
}
"""

DEROFF_SOURCE = r"""
/* Remove nroff constructs: drop request lines starting with '.' and strip
   font escapes of the form \fB ... \fP (and \fI, \fR). */
int main() {
    int c, at_line_start, dropping;
    at_line_start = 1;
    dropping = 0;
    c = getchar();
    while (c != -1) {
        if (at_line_start && c == '.') {
            dropping = 1;
        }
        if (dropping) {
            if (c == '\n') {
                dropping = 0;
                at_line_start = 1;
            }
            c = getchar();
            continue;
        }
        if (c == '\\') {
            c = getchar();
            if (c == 'f') {
                c = getchar();  /* swallow the font letter */
                c = getchar();
                at_line_start = 0;
                continue;
            }
            putchar('\\');
        }
        putchar(c);
        at_line_start = c == '\n';
        c = getchar();
    }
    return 0;
}
"""

MINCOST_SOURCE = r"""
/* VLSI circuit partitioning by pairwise-exchange improvement (a small
   Kernighan/Lin-flavoured mincost partitioner on a synthetic netlist). */
int adj[48][48];
int side[48];
int nnodes;

int cut_cost() {
    int i, j, cost;
    cost = 0;
    for (i = 0; i < nnodes; i++)
        for (j = i + 1; j < nnodes; j++)
            if (adj[i][j] != 0 && side[i] != side[j])
                cost += adj[i][j];
    return cost;
}

int gain(int a, int b) {
    int i, g;
    g = 0;
    for (i = 0; i < nnodes; i++) {
        if (i != a && i != b) {
            if (adj[a][i] != 0) {
                if (side[i] == side[a])
                    g -= adj[a][i];
                else
                    g += adj[a][i];
            }
            if (adj[b][i] != 0) {
                if (side[i] == side[b])
                    g -= adj[b][i];
                else
                    g += adj[b][i];
            }
        }
    }
    if (adj[a][b] != 0)
        g -= 2 * adj[a][b];
    return g;
}

int main() {
    int i, j, seed, best, improved, pass, a, b;
    nnodes = 48;
    seed = 31415;
    for (i = 0; i < nnodes; i++) {
        for (j = i + 1; j < nnodes; j++) {
            seed = seed * 1103515245 + 12345;
            if (((seed >> 16) & 7) == 0) {
                adj[i][j] = 1 + ((seed >> 8) & 3);
                adj[j][i] = adj[i][j];
            }
        }
        side[i] = i % 2;
    }
    best = cut_cost();
    pass = 0;
    improved = 1;
    while (improved && pass < 4) {
        improved = 0;
        pass++;
        for (a = 0; a < nnodes; a++) {
            if (side[a] != 0)
                continue;
            for (b = 0; b < nnodes; b++) {
                if (side[b] != 1)
                    continue;
                if (gain(a, b) > 0) {
                    side[a] = 1;
                    side[b] = 0;
                    improved = 1;
                    a = a;  /* keep scanning from the swapped node */
                    break;
                }
            }
        }
    }
    printf("initial pass done: cut %d after %d passes\n", cut_cost(), pass);
    return 0;
}
"""


def _build_programs() -> Dict[str, BenchmarkProgram]:
    programs = [
        BenchmarkProgram(
            "banner",
            "Utilities",
            "banner generator",
            BANNER_SOURCE,
            lambda: b"TOREROS 2019\n",
        ),
        BenchmarkProgram("cal", "Utilities", "calendar generator", CAL_SOURCE),
        BenchmarkProgram(
            "compact",
            "Utilities",
            "file compression",
            COMPACT_SOURCE,
            partial(_lcg_text, 3, 6000),
        ),
        BenchmarkProgram(
            "deroff",
            "Utilities",
            "remove nroff constructs",
            DEROFF_SOURCE,
            _nroff_text,
        ),
        BenchmarkProgram(
            "grep",
            "Utilities",
            "pattern search",
            GREP_SOURCE,
            lambda: b"ab.*s\n" + _lcg_text(11, 5000),
        ),
        BenchmarkProgram(
            "od", "Utilities", "octal dump", OD_SOURCE, partial(_lcg_text, 5, 3000)
        ),
        BenchmarkProgram(
            "sort",
            "Utilities",
            "sort or merge files",
            SORT_SOURCE,
            partial(_lcg_text, 17, 4500),
        ),
        BenchmarkProgram(
            "wc", "Utilities", "word count", WC_SOURCE, partial(_lcg_text, 23, 9000)
        ),
        BenchmarkProgram(
            "bubblesort", "Benchmarks", "sort numbers", BUBBLESORT_SOURCE
        ),
        BenchmarkProgram(
            "matmult", "Benchmarks", "matrix multiplication", MATMULT_SOURCE
        ),
        BenchmarkProgram("sieve", "Benchmarks", "iteration", SIEVE_SOURCE),
        BenchmarkProgram(
            "queens", "Benchmarks", "8-queens problem", QUEENS_SOURCE
        ),
        BenchmarkProgram(
            "quicksort",
            "Benchmarks",
            "sort numbers (iterative)",
            QUICKSORT_SOURCE,
        ),
        BenchmarkProgram(
            "mincost", "User code", "VLSI circuit partitioning", MINCOST_SOURCE
        ),
    ]
    return {program.name: program for program in programs}


PROGRAMS: Dict[str, BenchmarkProgram] = _build_programs()


def program_names() -> list:
    """The 14 program names in the paper's Table 5 row order."""
    return [
        "cal",
        "quicksort",
        "wc",
        "grep",
        "sort",
        "od",
        "mincost",
        "bubblesort",
        "matmult",
        "banner",
        "sieve",
        "compact",
        "queens",
        "deroff",
    ]
