"""CLI observability: --trace, REPRO_TRACE, `repro trace`, bench --json."""

import json

from repro.cli import main
from repro.obs.sink import TRACE_ENV_VAR, read_events


def _decision_events(path):
    events, problems = read_events(path)
    assert problems == []
    return [e for e in events if e["event"] == "replication.decision"]


class TestTraceFlag:
    def test_measure_trace_emits_jsonl(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["measure", "wc", "--replication", "jumps", "--trace", str(out)]
        )
        assert code == 0
        events, problems = read_events(out)
        assert problems == []
        kinds = {e["event"] for e in events}
        assert kinds == {"meta", "span", "metrics", "replication.decision"}
        # Nested spans per pass: pass spans must carry a parent.
        spans = [e for e in events if e["event"] == "span"]
        pass_spans = [
            s for s in spans if s["name"].startswith("opt.") and s["name"] != "opt.function"
        ]
        assert pass_spans and all(s["parent_id"] is not None for s in pass_spans)
        assert _decision_events(out)

    def test_trace_flag_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["measure", "wc", "--replication", "jumps", "--trace", str(out)])
        err = capsys.readouterr().err
        assert "observability summary" in err
        assert "wrote trace" in err
        assert "candidate jumps considered" in err

    def test_env_var_activates_tracing(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "env.jsonl"
        monkeypatch.setenv(TRACE_ENV_VAR, str(out))
        assert main(["measure", "wc", "--replication", "jumps"]) == 0
        assert _decision_events(out)

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        env_path = tmp_path / "env.jsonl"
        flag_path = tmp_path / "flag.jsonl"
        monkeypatch.setenv(TRACE_ENV_VAR, str(env_path))
        main(["measure", "wc", "--trace", str(flag_path)])
        assert flag_path.exists()
        assert not env_path.exists()

    def test_env_var_does_not_trace_the_trace_command(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "t.jsonl"
        main(["measure", "wc", "--replication", "jumps", "--trace", str(out)])
        capsys.readouterr()
        before = out.read_text()
        # Rendering the digest with REPRO_TRACE pointing at the same file
        # must not clobber it.
        monkeypatch.setenv(TRACE_ENV_VAR, str(out))
        assert main(["trace", str(out)]) == 0
        assert out.read_text() == before

    def test_dot_trace_annotates_replicated_blocks(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert (
            main(["dot", "wc", "--replication", "jumps", "--trace", str(out)])
            == 0
        )
        assert "lightblue" in capsys.readouterr().out


class TestTraceCommand:
    def test_renders_digest(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["measure", "wc", "--replication", "jumps", "--trace", str(out)])
        capsys.readouterr()
        assert main(["trace", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "Span breakdown" in rendered
        assert "opt.function" in rendered
        assert "jumps.sweep" in rendered
        assert "Replication decision log" in rendered
        assert "candidate jumps considered" in rendered
        assert "Metrics" in rendered

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace file" in capsys.readouterr().err

    def test_empty_file_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1

    def test_truncated_file_still_renders(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        main(["measure", "wc", "--replication", "jumps", "--trace", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[: len(lines) // 2]) + '\n{"trunc')
        assert main(["trace", str(out)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err


BENCH_WC = [
    "bench",
    "--programs",
    "wc",
    "--targets",
    "sparc",
    "--configs",
    "jumps",
    "--parallel",
    "1",
    "--quiet",
]


class TestBenchJson:
    def test_json_payload_has_passes_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(BENCH_WC + ["--no-cache", "--passes", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "passes" in payload
        assert payload["passes"], "fresh cells must fold their pass spans"
        sample = next(iter(payload["passes"].values()))
        assert {"calls", "changed", "seconds", "rtl_delta", "jumps_removed"} == set(
            sample
        )
        assert "metrics" in payload
        assert payload["metrics"]["counters"]["ease.runs"] == 1
        assert payload["metrics"]["counters"]["replication.accepted"] >= 1

    def test_passes_skip_cache_hits(self, tmp_path, capsys):
        """A warm re-run is all hits: its metrics are the cache counters
        alone (no ``ease.runs``, no ``opt.*``) and it has no pass table."""
        cache = ["--cache-dir", str(tmp_path / "cache")]
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main(BENCH_WC + cache + ["--passes", "--json", str(cold)]) == 0
        assert main(BENCH_WC + cache + ["--passes", "--json", str(warm)]) == 0
        cold_payload = json.loads(cold.read_text())
        assert cold_payload["passes"]
        cells = len(cold_payload["cells"])
        assert cold_payload["metrics"]["counters"]["ease.runs"] == cells
        payload = json.loads(warm.read_text())
        assert all(cell["cache_hit"] for cell in payload["cells"])
        assert payload["metrics"]["counters"] == {"exec.cache.hits": cells}
        assert payload["passes"] == {}

    def test_passes_empty_without_flag(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(BENCH_WC + ["--no-cache", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["passes"] == {}
