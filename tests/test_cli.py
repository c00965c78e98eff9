"""CLI tests (in-process, via repro.cli.main)."""

import pytest

from repro.cli import main


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        """
        int main() {
            int i, s;
            s = 0;
            for (i = 0; i < 10; i++) s += i;
            printf("%d\\n", s);
            return s;
        }
        """
    )
    return path


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("wc", "sieve", "mincost"):
            assert name in out

    def test_run_exit_code_and_output(self, c_file, capsys):
        code = main(["run", str(c_file)])
        assert code == 45
        assert capsys.readouterr().out == "45\n"

    def test_run_benchmark_by_name(self, capsys):
        assert main(["run", "queens"]) == 0
        assert "92 solutions" in capsys.readouterr().out

    def test_compile_prints_rtl(self, c_file, capsys):
        assert main(["compile", str(c_file), "--replication", "jumps"]) == 0
        out = capsys.readouterr().out
        assert "function main" in out
        assert "PC=RT;" in out
        assert "PC=NZ" in out  # conditional branches survived

    def test_measure_fields(self, c_file, capsys):
        assert main(["measure", str(c_file), "--target", "m68020"]) == 0
        out = capsys.readouterr().out
        assert "dynamic instructions" in out
        assert "exit code" in out

    def test_compare_consistent_outputs(self, c_file, capsys):
        assert main(["compare", str(c_file)]) == 0
        out = capsys.readouterr().out
        assert "SIMPLE" in out and "LOOPS" in out and "JUMPS" in out

    def test_cache_sweep(self, c_file, capsys):
        assert main(["cache", str(c_file), "--sizes", "128", "1024"]) == 0
        out = capsys.readouterr().out
        assert "128B" in out and "1KB" in out

    def test_stdin_file(self, tmp_path, capsys):
        prog = tmp_path / "echo.c"
        prog.write_text(
            "int main() { int c; c = getchar();"
            " while (c != -1) { putchar(c); c = getchar(); } return 0; }"
        )
        data = tmp_path / "input.txt"
        data.write_bytes(b"hello")
        assert main(["run", str(prog), "--stdin", str(data)]) == 0
        assert capsys.readouterr().out == "hello"

    def test_missing_program_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "/nonexistent/file.c"])

    def test_parser_build_imports_no_event_loop(self):
        """Building the parser must not drag asyncio into every invocation."""
        import os
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m == 'asyncio' or m.startswith('repro.serve')))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_policy_and_maxlen_flags(self, c_file):
        assert (
            main(
                [
                    "measure",
                    str(c_file),
                    "--replication",
                    "jumps",
                    "--policy",
                    "returns",
                    "--max-rtls",
                    "8",
                ]
            )
            == 0
        )


class TestEaseEngineFlag:
    def _bench_json(self, tmp_path, *extra):
        import json

        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--no-cache",
                "--parallel",
                "1",
                "--quiet",
                "--programs",
                "wc",
                "--configs",
                "none",
                "--json",
                str(out),
                *extra,
            ]
        )
        assert code == 0
        return json.loads(out.read_text())

    def test_bench_json_reports_default_engine(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EASE_ENGINE", raising=False)
        data = self._bench_json(tmp_path)
        assert data["ease_engine"] == "compiled"
        assert data["cells"]
        for cell in data["cells"]:
            assert cell["ease_engine"] == "compiled"

    def test_bench_json_reports_selected_engine(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EASE_ENGINE", raising=False)
        data = self._bench_json(tmp_path, "--ease-engine", "interp")
        assert data["ease_engine"] == "interp"
        for cell in data["cells"]:
            assert cell["ease_engine"] == "interp"

    def test_measure_accepts_engine_flag(self, c_file, capsys):
        for engine in ("compiled", "interp"):
            assert main(["measure", str(c_file), "--ease-engine", engine]) == 0
            assert "dynamic instructions" in capsys.readouterr().out


class TestDotCommand:
    def test_dot_output(self, capsys):
        assert main(["dot", "queens", "--function", "place"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "place"')
        assert "->" in out


class TestStatsCommand:
    def test_stats_output(self, capsys):
        assert main(["stats", "wc", "--replication", "jumps"]) == 0
        out = capsys.readouterr().out
        assert "Instruction mix" in out
        assert "Per function" in out
        assert "Natural loops" in out
        # JUMPS leaves no unconditional jumps in wc.
        assert "Surviving unconditional jumps" not in out

    def test_stats_reports_survivors(self, capsys):
        assert main(["stats", "wc", "--replication", "none"]) == 0
        out = capsys.readouterr().out
        assert "Surviving unconditional jumps" in out
