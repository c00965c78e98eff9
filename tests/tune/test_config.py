"""The versioned tuned-config artifact: round-trip and validation."""

import json

import pytest

from repro.tune import (
    TUNED_CONFIG_VERSION,
    Candidate,
    TunedConfig,
    TunedConfigError,
    load_tuned_config,
)


def sample_config() -> TunedConfig:
    return TunedConfig(
        target="sparc",
        replication="jumps",
        baseline=Candidate("shortest", None, "standard"),
        programs={
            "wc": {"main": Candidate("returns", 8, "late")},
            "sieve": {"main": Candidate("loops", None, "nofinal")},
        },
    )


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        path = tmp_path / "tuned.json"
        config = sample_config()
        config.save(path)
        loaded = load_tuned_config(path)
        assert loaded == config

    def test_file_is_versioned_json(self, tmp_path):
        path = tmp_path / "tuned.json"
        sample_config().save(path)
        raw = json.loads(path.read_text())
        assert raw["version"] == TUNED_CONFIG_VERSION
        assert raw["programs"]["wc"]["main"]["policy"] == "returns"

    def test_overrides_for_pins_every_recorded_function(self):
        config = sample_config()
        assert config.overrides_for("wc") == (("main", "returns", 8, "late"),)
        # A winner equal to the baseline is still pinned (unlike tuned_rows).
        config.programs["wc"]["main"] = config.baseline
        pinned = (("main", "shortest", None, "standard"),)
        assert config.overrides_for("wc") == pinned
        assert config.overrides_for("unknown-program") == ()

    def test_tuned_rows_are_canonical(self):
        config = sample_config()
        assert config.tuned_rows("wc") == (("main", "returns", 8, "late"),)
        assert config.tuned_rows("unknown-program") is None

    def test_tuned_rows_drop_baseline_entries(self):
        config = sample_config()
        config.programs["wc"]["main"] = config.baseline
        assert config.tuned_rows("wc") is None


class TestValidation:
    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "tuned.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TunedConfigError, match="cannot read"):
            load_tuned_config(tmp_path / "absent.json")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "tuned.json"
        path.write_text("{not json")
        with pytest.raises(TunedConfigError, match="cannot read"):
            load_tuned_config(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "must be a JSON object"),
            ({"version": 99}, "version"),
            ({}, "version"),
            (
                {"version": 1, "programs": {"wc": {"main": {"policy": "fastest"}}}},
                "unknown policy",
            ),
            (
                {"version": 1, "programs": {"wc": {"main": {"order": "random"}}}},
                "unknown order",
            ),
            (
                {"version": 1, "programs": {"wc": {"main": {"max_rtls": 0}}}},
                "max_rtls",
            ),
            (
                {"version": 1, "programs": {"wc": {"main": {"bogus": 1}}}},
                "unknown keys",
            ),
            ({"version": 1, "programs": []}, "'programs' must be an object"),
            ({"version": 1, "programs": {"wc": []}}, "must be an object"),
            (
                {"version": 1, "baseline": {"order": "late"}},
                "baseline order",
            ),
        ],
    )
    def test_rejects_malformed(self, tmp_path, payload, message):
        with pytest.raises(TunedConfigError, match=message):
            load_tuned_config(self.write(tmp_path, payload))
