"""Config parsing, presets, and the command-line surface."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from florasim import ConfigError, ExperimentConfig, read_report
from florasim.cli import main
from florasim.config import config_to_text, parse_config, read_config_text

DATA = Path(__file__).parent / "data"


class TestParseConfig:
    def test_defaults(self):
        config = parse_config()
        assert config == ExperimentConfig()
        assert config.seed == 42
        assert config.rounds == 3
        assert config.lr == pytest.approx(3e-4)

    def test_preset_homo16_expansion_is_frozen(self):
        config = parse_config(preset="homo16")
        assert config.clients == 10
        assert config.ranks == (16,) * 10
        assert config.rounds == 3
        assert config.epochs == 1
        assert config_to_text(config) == (DATA / "homo16_expanded.cfg").read_text()

    def test_preset_hetero_expansion_is_frozen(self):
        config = parse_config(preset="hetero")
        assert config.ranks == (64, 32, 16, 16, 8, 8, 4, 4, 4, 4)
        assert config_to_text(config) == (DATA / "hetero_expanded.cfg").read_text()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(preset="mega")

    def test_file_layer(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("clients = 4\nranks = 1,2,3,4\nrounds = 5\n# comment\n\nseed = 7\n")
        config = parse_config(path=path)
        assert config.clients == 4
        assert config.ranks == (1, 2, 3, 4)
        assert config.rounds == 5
        assert config.seed == 7

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 5\nseed = 7\n")
        config = parse_config(path=path, overrides={"rounds": "9"})
        assert config.rounds == 9
        assert config.seed == 7

    def test_all_invalid_fields_reported_together(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"clients": "0", "rounds": "-2", "loss": "hinge"})
        message = str(err.value)
        assert "clients" in message
        assert "rounds" in message
        assert "loss" in message

    def test_unknown_key_and_type_errors_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"colour": "blue", "rounds": "three"})
        message = str(err.value)
        assert "colour" in message
        assert "rounds" in message

    def test_fedit_with_mixed_ranks_rejected_at_parse_time(self):
        with pytest.raises(ConfigError, match="homogeneous"):
            parse_config(preset="hetero", overrides={"strategy": "fedit"})

    def test_scaling_override_range(self):
        with pytest.raises(ConfigError, match="scaling_override"):
            parse_config(overrides={"scaling_override": "1.5"})
        config = parse_config(overrides={"scaling_override": "0.1"})
        assert config.scaling_override == pytest.approx(0.1)

    def test_round_trip(self):
        config = parse_config(
            preset="hetero",
            overrides={"skew": "feature-shift", "skew_strength": "0.7", "seed": "99"},
        )
        again = parse_config_from_text(config_to_text(config))
        assert again == config

    def test_malformed_lines_collected(self):
        with pytest.raises(ConfigError, match="line 2"):
            read_config_text("rounds = 3\nnonsense\n")


def parse_config_from_text(text: str):
    return parse_config(overrides=read_config_text(text))


class TestMain:
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            [
                "run",
                "--clients", "3",
                "--ranks", "2,2,2",
                "--rounds", "2",
                "--samples", "120",
                "--m", "8",
                "--n", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_report(out)
        assert [r.round for r in rows] == [0, 1, 2]
        assert "wrote" in capsys.readouterr().out

    def test_compare_emits_aligned_curves(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--preset", "homo16",
                "--strategies", "flora,fedit",
                "--rounds", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_report(out)
        assert [r.round for r in rows if r.strategy == "flora"] == [0, 1, 2]
        assert [r.round for r in rows if r.strategy == "fedit"] == [0, 1, 2]

    def test_sweep_scaling_writes_four_files(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep-scaling",
                "--clients", "3",
                "--ranks", "2,2,2",
                "--rounds", "1",
                "--samples", "120",
                "--m", "8",
                "--n", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced == ["sweep.sf0.01.csv", "sweep.sf0.05.csv", "sweep.sf0.1.csv", "sweep.sf0.2.csv"]

    def test_validation_failure_exits_one(self, tmp_path, capsys):
        code = main(["run", "--clients", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_fedit_hetero_exits_one(self, tmp_path):
        code = main(
            [
                "compare",
                "--preset", "hetero",
                "--strategies", "flora,fedit",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_runtime_failure_exits_two(self, tmp_path):
        target = tmp_path / "no-such-dir" / "out.csv"
        code = main(
            [
                "run",
                "--clients", "3",
                "--ranks", "2,2,2",
                "--rounds", "1",
                "--samples", "120",
                "--m", "8",
                "--n", "8",
                "--out", str(target),
            ]
        )
        assert code == 2

    def test_divergence_exits_two_naming_strategy_and_round(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = main(
                [
                    "compare",
                    "--preset", "hetero",
                    "--strategies", "flora,zero_padding",
                    "--lr", "5000",
                    "--out", str(tmp_path / "div.csv"),
                ]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: strategy flora diverged in round 1: non-finite update b @ a from client(s) " in err

    def test_determinism_of_compare_files(self, tmp_path):
        blobs = []
        for i in range(2):
            out = tmp_path / f"d{i}.csv"
            assert main(
                ["compare", "--preset", "homo16", "--seed", "42", "--rounds", "2", "--out", str(out)]
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_verify_exits_zero_on_clean_build(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 10
