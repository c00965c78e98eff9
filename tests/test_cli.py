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

    def test_tables_prints_every_rendered_table(self, capsys, monkeypatch):
        """``repro tables`` prints ``render(collect())`` under each title;
        here the goldens stand in for the minute-long ``collect``."""
        from repro import report
        from tests.golden.regen_table_snapshots import load_goldens

        goldens = load_goldens()
        monkeypatch.setattr(report, "collect", lambda: goldens)
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for name, table in report.render(goldens).items():
            assert f"## {report.TABLE_TITLES[name]}\n\n{table}\n" in out

    def test_run_exit_code_and_output(self, c_file, capsys):
        code = main(["run", str(c_file)])
        assert code == 45
        assert capsys.readouterr().out == "45\n"

    def test_run_by_benchmark_name(self, capsys):
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

    def test_verified_lines_report_skipped_checks(self, c_file, capsys):
        assert main(["measure", str(c_file), "--verify", "sanitize"]) == 0
        out = capsys.readouterr().out
        assert "verified: mode=sanitize" in out and " skipped=" in out
        assert main(["compare", str(c_file), "--verify", "sanitize"]) == 0
        out = capsys.readouterr().out
        for label in ("SIMPLE", "LOOPS", "JUMPS"):
            assert f"{label}: verified: mode=sanitize" in out

    def test_compare_consistent_outputs(self, c_file, capsys):
        assert main(["compare", str(c_file)]) == 0
        out = capsys.readouterr().out
        assert "SIMPLE" in out and "LOOPS" in out and "JUMPS" in out

    def test_cache_sweep(self, c_file, capsys):
        assert main(["cache", str(c_file), "--sizes", "128", "1024"]) == 0
        out = capsys.readouterr().out
        assert "128B" in out and "1KB" in out

    def test_cache_rows_equal_the_reference_replays(self, capsys, monkeypatch):
        """``repro cache`` walks the trace once for both context-switch
        settings; every printed number is the per-size oracle's."""
        from repro import cli
        from repro.cache import CacheConfig
        from tests.cache.reference_cache import simulate_cache

        measured = []
        measure = cli._measure
        monkeypatch.setattr(
            cli, "_measure", lambda *a, **k: measured.append(measure(*a, **k)) or measured[-1]
        )
        assert main(["cache", "sieve", "--sizes", "128", "1024"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        m = measured[0].measurement
        for row, (label, size) in zip(rows, [("128B", 128), ("1KB", 1024)]):
            plain, flushed = (
                simulate_cache(m.trace, m.block_fetches, CacheConfig(size=size), ctx)
                for ctx in (False, True)
            )
            assert row.split() == [
                label,
                str(plain.accesses),
                f"{plain.miss_ratio * 100:.3f}%",
                str(plain.fetch_cost),
                f"{flushed.miss_ratio * 100:.3f}%",
                str(flushed.fetch_cost),
            ]
        assert len(rows) == 2

    @pytest.mark.parametrize("size", ["100", "0", "1k"])
    def test_cache_rejects_bad_size_before_any_work(
        self, c_file, capsys, monkeypatch, size
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("measured before validating --sizes")

        monkeypatch.setattr("repro.cli._measure", no_work)
        with pytest.raises(SystemExit) as exc:
            main(["cache", str(c_file), "--sizes", "128", size])
        assert exc.value.code == 2
        assert f"invalid cache size {size!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gc", "stats"])
    def test_cache_sweeps_a_source_file_named_like_a_verb(
        self, tmp_path, capsys, monkeypatch, name
    ):
        """``repro cache`` has no maintenance verbs: any program name is
        a program, and ``--help`` offers only the sweep's options."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text("int main() { return 0; }")
        assert main(["cache", name, "--sizes", "128"]) == 0
        assert "128B" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["cache", "--help"])
        usage = capsys.readouterr().out
        assert "--sizes" in usage
        assert not any(gone in usage for gone in ("--max-bytes", "--max-age", "--dry-run", "--cache-dir"))

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

    def test_parser_build_imports_no_event_loop(self, tmp_path):
        """Building the parser must not drag asyncio or the compiler front
        end into every invocation (a warm ``repro bench`` never compiles),
        warming a worker must not import numpy (only the step-1 test
        oracle uses it), and neither builds a result cache on disk."""
        import os
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m == 'asyncio' or m.startswith(('repro.serve', 'repro.frontend')))); "
            "from repro.exec.runner import warm_worker; warm_worker(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.splitlines() == ["[]", "[]"]
        assert list(tmp_path.iterdir()) == []

    def test_import_builds_no_workload_stdin(self, tmp_path):
        """``import repro.cli`` (and so ``repro --help``) builds no
        benchmark's stdin: each is built on its first read."""
        import os
        import subprocess
        import sys

        probe = (
            "import repro.cli; "
            "from repro.benchsuite.programs import PROGRAMS; "
            "print(sorted(n for n, p in PROGRAMS.items() if 'stdin' in vars(p))); "
            "PROGRAMS['wc'].stdin; "
            "print(sorted(n for n, p in PROGRAMS.items() if 'stdin' in vars(p)))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.splitlines() == ["[]", "['wc']"]

    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
    def test_warm_bench_imports_no_compiler(self, tmp_path, trace):
        """A fully warm ``repro bench`` derives keys, unpickles entries and
        prints: it loads no front end, optimizer, CFG, RTL, interpreter,
        cache simulator or replication engine, and builds no process pool
        (``--trace`` entries unpickle a ``CompressedTrace`` too)."""
        import json
        import os
        import subprocess
        import sys

        argv = [
            "bench", "--parallel", "1", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--programs", "wc", "queens", "--targets", "sparc",
            "--configs", "none", "jumps",
        ] + (["--trace"] if trace else [])
        assert main(argv) == 0  # fills the cache
        forbidden = (
            "repro.frontend", "repro.opt", "repro.cfg", "repro.rtl",
            "repro.ease.compile", "repro.cache.multi", "repro.core.replication",
            "concurrent.futures.process",
        )
        probe = (
            "import json, sys, repro.cli; code = repro.cli.main(sys.argv[1:]); "
            f"forbidden = {forbidden!r}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m in forbidden or m.startswith(tuple(f + '.' for f in forbidden))))); "
            "sys.exit(code)"
        )
        out = tmp_path / "warm.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-c", probe, *argv, "--json", str(out)],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        )
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 4 and all(c["ok"] and c["cache_hit"] for c in cells)
        assert json.loads(run.stdout.splitlines()[-1]) == []

    def test_warm_bench_walks_the_cache_once(self, tmp_path, capsys, monkeypatch):
        """The summary line and ``--json`` share one count of the entries:
        a warm run lists the cache's version directory once."""
        import json
        import os
        import re

        cache = tmp_path / "cache"
        out = tmp_path / "bench.json"
        argv = [
            "bench", "--parallel", "1", "--quiet", "--json", str(out),
            "--programs", "wc", "--targets", "sparc", "--configs", "none", "jumps",
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        version_dir = os.fspath(next(cache.iterdir()))
        walks = []
        scandir = os.scandir

        def counted(path="."):
            if os.fspath(path) == version_dir:
                walks.append(path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", counted)
        assert main(argv) == 0
        printed = re.search(r"(\d+) entries", capsys.readouterr().out)
        stats = json.loads(out.read_text())["cache"]
        assert len(walks) == 1
        assert int(printed.group(1)) == stats["entries"] == stats["hits"] == 2

    def test_every_target_option_offers_the_targets(self):
        """Each ``--target``/``--targets`` lists :data:`TARGETS`, in its order."""
        import argparse

        from repro.cli import build_parser
        from repro.targets.names import TARGETS

        parser = build_parser()
        (commands,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        checked = set()
        for name, command in commands.choices.items():
            for action in command._actions:
                if action.dest in ("target", "targets"):
                    assert tuple(action.choices) == TARGETS, name
                    checked.add(name)
        assert {"measure", "cache", "bench", "fuzz"} <= checked

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "wc", "--max-rtls", "-5"],
            ["bench", "--max-rtls", "-1"],
            ["bench", "--parallel", "-3"],
            ["fuzz", "--max-rtls", "-1"],
            ["fuzz", "--count", "-3"],
            ["fuzz", "--count", "three"],
        ],
        ids=[
            "measure-max-rtls",
            "bench-max-rtls",
            "bench-parallel",
            "fuzz-max-rtls",
            "fuzz-count",
            "fuzz-count-text",
        ],
    )
    def test_negative_counts_rejected_before_any_work(
        self, argv, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before validating the arguments")

        for command in ("cmd_measure", "cmd_bench", "cmd_fuzz"):
            monkeypatch.setattr(f"repro.cli.{command}", no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["trace", "{tmp}"], 1, "error: no such trace file"),
            (
                ["run", "wc", "--stdin", "{tmp}/missing.txt"],
                2,
                "error: argument --stdin",
            ),
            (
                ["measure", "wc", "--trace", "{tmp}/no/such/dir/x.jsonl"],
                2,
                "error: argument --trace",
            ),
        ],
        ids=["trace-directory", "stdin-missing", "trace-dir-missing"],
    )
    def test_bad_outside_input_is_an_error_line(
        self, argv, code, message, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("compiled before validating the input")

        monkeypatch.setattr("repro.cli._measure", no_work)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        try:
            result = main([arg.format(tmp=tmp_path) for arg in argv])
        except SystemExit as exc:
            result = exc.code
        assert result == code
        assert message in capsys.readouterr().err

    def test_bench_verified_cells_bypass_the_cache(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        argv = [
            "bench", "--parallel", "1", "--quiet", "--json", str(out),
            "--programs", "wc", "--targets", "sparc", "--configs", "jumps",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv + ["--verify", "full"]) == 0
        stats = json.loads(out.read_text())["cache"]
        assert (stats["hits"], stats["misses"], stats["writes"]) == (0, 0, 0)
        assert main(argv) == 0  # a clean run fills the cache ...
        assert main(argv + ["--verify", "full"]) == 0  # ... and is not served
        payload = json.loads(out.read_text())
        assert not payload["cells"][0]["cache_hit"]
        assert (payload["cache"]["hits"], payload["cache"]["writes"]) == (0, 0)

    def test_bench_cache_under_a_regular_file(self, tmp_path, capsys):
        """An unusable cache directory reads as misses and write errors,
        never as evictions, and the summary line says so."""
        import json

        blocker = tmp_path / "notadir"
        blocker.write_text("")
        out = tmp_path / "bench.json"
        argv = [
            "bench", "--parallel", "1", "--quiet", "--json", str(out),
            "--programs", "wc", "--targets", "sparc", "--configs", "none",
            "--cache-dir", str(blocker / "cache"),
        ]
        assert main(argv) == 0
        stats = json.loads(out.read_text())["cache"]
        assert (stats["misses"], stats["evictions"], stats["write_errors"]) == (1, 0, 1)
        assert "0 writes, 1 write errors, 0 evictions" in capsys.readouterr().out

    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_bench_repeated_names_are_one_cell(self, tmp_path, capsys, store):
        import json

        cache = ["--cache-dir", str(tmp_path)] if store == "disk" else ["--no-cache"]
        out = tmp_path / "bench.json"
        argv = [
            "bench", "--parallel", "1", "--quiet", "--json", str(out),
            "--programs", "wc", "wc", "--targets", "sparc", "sparc",
            "--configs", "none", "none",
        ]
        assert main(argv + cache) == 0
        cells = json.loads(out.read_text())["cells"]
        assert [(c["program"], c["target"], c["config"]) for c in cells] == [
            ("wc", "sparc", "none")
        ]
        assert "1 cells in" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", [["measure", "wc"], ["bench"], ["fuzz"]])
    def test_max_rtls_defaults_to_unbounded(self, verb):
        from repro.cli import build_parser

        assert build_parser().parse_args(verb).max_rtls is None

    def test_fuzz_max_rtls_zero_is_a_bound(self, monkeypatch, capsys):
        """``0`` means a zero-RTL bound in every verb, fuzz included."""
        from repro.verify.fuzz import CampaignResult

        seen = {}

        def fake_campaign(count, **kwargs):
            seen.update(kwargs, count=count)
            return CampaignResult()

        monkeypatch.setattr("repro.verify.run_campaign", fake_campaign)
        assert main(["fuzz", "--count", "0", "--max-rtls", "0"]) == 0
        assert seen["max_rtls"] == 0 and seen["count"] == 0


class TestDotCommand:
    def test_dot_output(self, capsys):
        assert main(["dot", "queens", "--function", "place"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "place"')
        assert "->" in out

    def test_dot_unknown_function_is_a_clean_error(self, capsys):
        assert main(["dot", "queens", "--function", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: no function 'nope' in queens" in captured.err
        assert "place" in captured.err and "main" in captured.err


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
