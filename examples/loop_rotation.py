#!/usr/bin/env python3
"""Table 1 of the paper: a loop whose exit condition sits in the middle.

Most compilers rotate simple for/while loops (the LOOPS configuration),
but give up when the exit test is in the *middle* of the loop body.  The
generalized JUMPS algorithm handles it: the test sequence is replicated
at the bottom with the condition reversed, saving one unconditional jump
per iteration.

Run:  python examples/loop_rotation.py
"""

from repro import compile_and_measure
from repro.cfg import build_function
from repro.core import CodeReplicator, clone_function
from repro.rtl import format_function, parse_insns

# The paper's Table 1 RTLs (68020 notation), verbatim shape:
#   i = 1;
#   while (i <= n) x[i-1] = x[i];
TABLE_1 = """
  d[1]=1;
L15:
  d[0]=d[1];
  a[0]=a[0]+1;
  d[1]=d[1]+1;
  NZ=d[0]?L[_n.];
  PC=NZ>=0,L16;
  B[a[0]]=B[a[0]+1];
  PC=L15;
L16:
  PC=RT;
"""

# The same shape at the C level: the loop exit test is mid-body.
C_VERSION = """
int x[200];
int n;

int main() {
    int i, moved;
    n = 150;
    moved = 0;
    i = 1;
    while (1) {
        if (i > n)
            break;
        x[i - 1] = x[i];
        moved++;
        i++;
    }
    printf("moved %d\\n", moved);
    return 0;
}
"""


def main() -> None:
    print("--- Table 1, RTL level -------------------------------------")
    func = build_function("table1", parse_insns(TABLE_1))
    print("before replication:")
    print(format_function(func))
    rotated = clone_function(func)
    stats = CodeReplicator().run(rotated)
    print(f"\nafter JUMPS ({stats.jumps_replaced} jump replaced, "
          f"{stats.rtls_replicated} RTLs replicated):")
    print(format_function(rotated))

    print("\n--- The same shape from C ----------------------------------")
    for replication in ("none", "loops", "jumps"):
        result = compile_and_measure(
            C_VERSION, target="m68020", replication=replication
        )
        m = result.measurement
        print(
            f"{replication:>5}: dynamic {m.dynamic_insns:6} instructions, "
            f"{m.dynamic_jumps:4} unconditional jumps executed "
            f"(output {m.output!r})"
        )
    print("\nLOOPS cannot rotate this loop (the test is mid-body); JUMPS can.")


if __name__ == "__main__":
    main()
