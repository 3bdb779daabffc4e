"""Config parsing, presets, and the command-line surface."""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import florasim
from florasim import ConfigError, ExperimentConfig, LoraAdapter, cli, read_report, run_experiment
from florasim.cli import _config_from_args, build_parser, main
from florasim.config import config_to_text, parse_config, read_config_text
from florasim.data import SKEW_KINDS, gen_task
from florasim.lora import _MAX_INIT_BOUND, INIT_KINDS
from florasim.simulation import STRATEGIES, ComparisonReport
from florasim.training import LOSS_KINDS

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("skew_strength", -1.0),
            ("skew_strength", float("nan")),
            ("samples", 1),
            ("samples", int(np.iinfo(np.intp).max) + 1),
            ("init_kind", "warp"),
            ("init_std", -1.0),
        ],
    )
    def test_validate_names_each_out_of_range_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{key: value}).validate()
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith(f"{key}: ")

    def test_a_repeated_strategy_is_invalid(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"strategies": "flora,fedit,flora,fedit,standalone"})
        assert err.value.problems == [
            "strategies: 'fedit' is listed more than once",
            "strategies: 'flora' is listed more than once",
        ]

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

    def test_file_problems_name_the_file_and_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 3\nbogus line\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path=path)
        assert err.value.problems == [f"{path}: line 2: expected key=value, got 'bogus line'"]
        path.write_text("# comment\ncolour = blue\nrounds = three\nclients = 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path=path)
        assert err.value.problems == [f"{path}: line 2: colour: unknown key", f"{path}: line 3: rounds: cannot parse 'three'"]
        path.write_text("clients = 0\nm = 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path=path)
        assert err.value.problems[:3] == [
            f"{path}: line 2: m/n: dimensions must be >= 1, got 0x16",
            f"{path}: line 1: clients: must be >= 1, got 0",
            # Ten default ranks: no line set them, but the file's settings make them wrong.
            f"{path}: ranks: got 10 ranks for 0 clients",
        ]

    def test_flag_and_preset_problems_name_no_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path=path, preset="hetero", overrides={"strategy": "fedit", "rounds": "-1"})
        assert err.value.problems == [
            "strategy: fedit requires homogeneous ranks",
            "rounds: must be >= 0, got -1",
        ]

    def test_fedit_rule_covers_only_the_strategies_that_run(self, tmp_path):
        # strategy names the one strategy only when the strategies list is empty.
        config = parse_config(preset="hetero", overrides={"strategy": "fedit", "strategies": "flora,zero_padding"})
        assert config.strategies == ("flora", "zero_padding")
        # run trains strategy alone, and is named by it.
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.problems == ["strategy: fedit requires homogeneous ranks"]
        path = tmp_path / "exp.cfg"
        path.write_text("strategy = flora\nstrategies = flora,fedit\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path=path, preset="hetero")
        assert err.value.problems == [f"{path}: line 2: strategies: fedit requires homogeneous ranks"]

    @pytest.mark.parametrize("kind, limit", [("zero-delta-gaussian", "1.46154e+307"), ("zero-delta-uniform", "8.98847e+307")])
    def test_init_std_whose_draw_can_overflow_is_invalid(self, tmp_path, kind, limit):
        path = tmp_path / "init.cfg"
        path.write_text(f"init_kind = {kind}\ninit_std = 1e308\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path=path, preset="homo16")
        assert err.value.problems == [
            f"{path}: line 2: init_std: 1e+308 can overflow a {kind} draw; the largest is {limit}"
        ]
        assert parse_config(path=path, overrides={"init_std": "1e307"}).init_std == 1e307


# Config text: lines that set a known key to a value of its type or to any
# value, lines that set an unknown key, and any text at all.
ANY_VALUE = (
    st.text(max_size=12)
    | st.integers(-(10**400), 10**400).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["", "1e308", "nan", "1,2,3"])
)
NAMES = st.sampled_from([*STRATEGIES, *LOSS_KINDS, *SKEW_KINDS, *INIT_KINDS])
TYPED_VALUES = {
    int: st.integers(-2, 40) | st.integers(-(10**400), 10**400),
    float: st.floats(),
    float | None: st.floats() | st.just(""),
    str: NAMES,
    tuple[int, ...]: st.lists(st.integers(-1, 20), max_size=12).map(lambda v: ",".join(map(str, v))),
    tuple[str, ...]: st.lists(NAMES, max_size=4).map(",".join),
}
KNOWN_KEY_LINES = st.sampled_from(sorted(get_type_hints(ExperimentConfig).items())).flatmap(
    lambda kv: (TYPED_VALUES[kv[1]].map(str) | ANY_VALUE).map(lambda v: f"{kv[0]} = {v}")
)
CONFIG_LINES = st.one_of(
    # Mostly known keys, so that many texts reach validation.
    *[KNOWN_KEY_LINES] * 4,
    st.tuples(st.text(max_size=8), ANY_VALUE).map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.text(max_size=30),
)
CONFIG_TEXT = st.lists(CONFIG_LINES, max_size=8).map("\n".join)


class TestArbitraryConfigText:
    """Any config file text parses to a valid config, or fails with problems
    that each name the file; the CLI exits 0 or 1 with no traceback."""

    @staticmethod
    def check_problems(problems, path):
        assert problems
        for problem in problems:
            assert problem.startswith(f"{path}: ") or problem.startswith(f"config: cannot read {path}")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=CONFIG_TEXT)
    def test_parse_config_property(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.cfg"
            path.write_text(text, encoding="utf-8")
            try:
                config = parse_config(path=path)
            except ConfigError as exc:
                self.check_problems(exc.problems, path)
            else:
                config.validate()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(text=CONFIG_TEXT)
    def test_cli_property(self, text):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            # No run: only the config's path through the CLI is under test.
            patch.setattr(cli, "run_comparisons", lambda config, strategies, factors: [ComparisonReport(0, (), {})])
            patch.setattr(cli, "emit_rows", lambda rows, out, seed: None)
            path = Path(tmp) / "exp.cfg"
            path.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith("error: ") for line in lines)
            self.check_problems([line.removeprefix("error: ") for line in lines], path)


def parse_config_from_text(text: str):
    return parse_config(overrides=read_config_text(text))


NONNEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def valid_configs(draw):
    """Any config that parse_config accepts. out is drawn from characters config
    text keeps, without '/', so its directory is the working one, which exists."""
    m, n, clients = draw(st.integers(1, 64)), draw(st.integers(1, 64)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        ranks = (draw(st.integers(1, 64)),) * clients
    else:
        ranks = tuple(draw(st.lists(st.integers(1, 64), min_size=clients, max_size=clients)))
    allowed = STRATEGIES if len(set(ranks)) == 1 else tuple(s for s in STRATEGIES if s != "fedit")
    init_kind = draw(st.sampled_from(INIT_KINDS))
    config = ExperimentConfig(
        m=m,
        n=n,
        clients=clients,
        ranks=ranks,
        strategy=draw(st.sampled_from(allowed)),
        strategies=tuple(draw(st.lists(st.sampled_from(allowed), max_size=5, unique=True))),
        rounds=draw(st.integers(0, 100)),
        epochs=draw(st.integers(1, 10)),
        lr=draw(NONNEGATIVE),
        batch_size=draw(st.integers(1, 512)),
        loss=draw(st.sampled_from(LOSS_KINDS)),
        skew=draw(st.sampled_from(SKEW_KINDS)),
        skew_strength=draw(NONNEGATIVE),
        scaling_override=draw(st.none() | UNIT),
        seed=draw(st.integers(0, 2**64 - 1)),
        out=draw(st.text("abcxyz0123456789._-", min_size=1, max_size=20)),
        # Twice the clients plus two leaves each client a sample after the holdout.
        samples=draw(st.integers(2 * clients + 2, 10**6)),
        noise_std=draw(NONNEGATIVE),
        teacher_rank=draw(st.integers(1, min(m, n))),
        init_kind=init_kind,
        # Larger values can overflow the kind's draw and are invalid.
        init_std=draw(st.floats(min_value=0.0, max_value=_MAX_INIT_BOUND[init_kind])),
        client_fraction=draw(UNIT),
    )
    config.validate()
    return config


class TestConfigTextRoundTrip:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(config=valid_configs())
    def test_round_trip_property(self, config):
        assert parse_config_from_text(config_to_text(config)) == config


# A value for every config flag of run, each unlike the key's default.
FLAG_VALUES = {
    "strategy": "zero_padding",
    "strategies": "flora,standalone",
    "clients": "4",
    "ranks": "1,2,3,4",
    "rounds": "5",
    "epochs": "2",
    "lr": "0.125",
    "batch_size": "7",
    "loss": "softmax-cross-entropy",
    "skew": "label-skew",
    "skew_strength": "0.5",
    "scaling_override": "0.25",
    "seed": "9",
    "out": "x.csv",
    "samples": "300",
    "noise_std": "0.5",
    "m": "12",
    "n": "10",
}


class TestConfigFlags:
    def test_every_run_flag_sets_its_config_key(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        run = commands.choices["run"]
        sources = ("help", "preset", "config")
        flags = {a.dest: a.option_strings[0] for a in run._actions if a.dest not in sources}
        assert set(flags) == set(FLAG_VALUES)
        argv = ["run", *(part for dest, flag in flags.items() for part in (flag, FLAG_VALUES[dest]))]
        config = _config_from_args(parser.parse_args(argv))
        assert config == parse_config(overrides=FLAG_VALUES)
        default = ExperimentConfig()
        assert all(getattr(config, key) != getattr(default, key) for key in FLAG_VALUES)

    def test_unset_flags_leave_preset_and_file_in_force(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 5\nseed = 7\n")
        args = build_parser().parse_args(["run", "--preset", "hetero", "--config", str(path), "--seed", "8"])
        expected = parse_config(path=path, overrides={"seed": "8"}, preset="hetero")
        assert _config_from_args(args) == expected


class TestReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_flags_and_file_keys_match_the_cli_and_config(self):
        text = " ".join(self.README.read_text(encoding="utf-8").split())
        listed = re.search(r"All flags: `([^`]*)`", text).group(1).split()
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = [flag for a in commands.choices["run"]._actions for flag in a.option_strings]
        assert sorted(listed) == sorted(flag for flag in accepted if flag not in ("-h", "--help"))
        file_only = re.findall(r"`(\w+)`", re.search(r"Keys mirror the flags plus ([^.]*)\.", text).group(1))
        assert len(file_only) == 4
        keys = [flag[2:].replace("-", "_") for flag in listed if flag not in ("--preset", "--config")]
        assert sorted(keys + file_only) == sorted(f.name for f in fields(ExperimentConfig))


class TestPackageExports:
    def test_all_is_unique_and_every_name_resolves(self):
        assert len(florasim.__all__) == len(set(florasim.__all__))
        missing = [name for name in florasim.__all__ if not hasattr(florasim, name)]
        assert missing == []


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

    @pytest.mark.parametrize(
        "command, taken",
        [("run", "out.csv"), ("compare", "out.csv"), ("sweep-scaling", "out.sf0.05.csv")],
    )
    def test_out_naming_a_directory_exits_one_before_any_round(self, tmp_path, capsys, monkeypatch, command, taken):
        # The report's directory exists, but a report path is a directory
        # too; sweep-scaling derives one report path per factor.
        def no_rounds(*args, **kwargs):
            raise AssertionError("a round ran before the report paths were checked")

        monkeypatch.setattr(cli, "run_comparisons", no_rounds)
        (tmp_path / taken).mkdir()
        code = main([command, "--preset", "homo16", "--rounds", "1", "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: out: report path {str(tmp_path / taken)!r} is a directory\n"

    def test_task_too_large_to_allocate_exits_one_naming_its_size(self, tmp_path, capsys, monkeypatch):
        # gen_task is never run at this size: it would ask for 74.5 GiB.
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(florasim.simulation, "gen_task", out_of_memory)
        code = main(
            ["run", "--m", "100000", "--n", "100000", "--samples", "1000", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        values = 100000 * 100000 + 1000 * 200000
        assert capsys.readouterr().err == (
            f"error: m, n, samples: the task needs m*n + samples*(m+n) = {values} float64 values "
            f"({8 * values} bytes, 76.0 GiB), more than could be allocated\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "sweep-scaling"])
    def test_missing_out_directory_exits_one_before_any_round(self, tmp_path, capsys, monkeypatch, command):
        def no_rounds(*args, **kwargs):
            raise AssertionError("a round ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_comparisons", no_rounds)
        target = tmp_path / "no-such-dir" / "out.csv"
        code = main([command, "--preset", "homo16", "--rounds", "1", "--out", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out:") and str(target.parent) in err

    def test_out_set_in_a_config_file_names_the_file_and_line(self, tmp_path, capsys, monkeypatch):
        def no_rounds(*args, **kwargs):
            raise AssertionError("a round ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_comparisons", no_rounds)
        monkeypatch.chdir(tmp_path)
        Path("o.cfg").write_text("rounds = 1\nout = nodir/x.csv\n")
        assert main(["run", "--config", "o.cfg"]) == 1
        missing = "out: directory 'nodir' of 'nodir/x.csv' does not exist"
        assert capsys.readouterr().err == f"error: o.cfg: line 2: {missing}\n"
        # Given as a flag, the same out names no file.
        assert main(["run", "--config", "o.cfg", "--out", "nodir/x.csv"]) == 1
        assert capsys.readouterr().err == f"error: {missing}\n"

    def test_repeated_strategy_exits_one_before_any_round(self, tmp_path, capsys, monkeypatch):
        def no_rounds(*args, **kwargs):
            raise AssertionError("a round ran before the strategies were checked")

        monkeypatch.setattr(cli, "run_comparisons", no_rounds)
        out = tmp_path / "x.csv"
        argv = ["compare", "--preset", "homo16", "--strategies", "flora,flora", "--rounds", "1", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: strategies: 'flora' is listed more than once\n"
        assert not out.exists()

    def test_undecodable_config_file_exits_one_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"\xff\xfe rounds = 2\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: cannot read") and str(path) in err

    @pytest.mark.parametrize("kind", INIT_KINDS)
    def test_init_std_that_overflows_its_draw_exits_one(self, tmp_path, capsys, kind):
        path = tmp_path / "init.cfg"
        path.write_text(f"init_kind = {kind}\ninit_std = 1e308\n")
        code = main(["run", "--preset", "homo16", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line 2: init_std: 1e+308 can overflow")
        # A large std that every draw survives runs; at lr 0 the adapters stay as drawn.
        path.write_text(f"init_kind = {kind}\ninit_std = 1e300\nlr = 0\n")
        code = main(["run", "--preset", "homo16", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 0
        assert len(read_report(tmp_path / "x.csv")) == 4

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

    def test_averaging_overflow_exits_two_naming_the_clients(self, tmp_path, capsys, monkeypatch):
        # Clients 8 and 9 upload finite factors of +-1e200, which cancel in the
        # average, so the merge succeeds; each one's own b @ a overflows.
        def upload(model, shard, cfg, seed):
            value = {8: 1e200, 9: -1e200}.get(shard.client_id, 1e-3)
            return LoraAdapter(a=np.full((16, 16), value), b=np.full((16, 16), value))

        monkeypatch.setattr(florasim.simulation, "local_train", upload)
        argv = ["compare", "--preset", "homo16", "--strategies", "fedit", "--seed", "1",
                "--rounds", "1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: strategy fedit diverged in round 1: non-finite update b @ a from client(s) 8, 9\n"
        )

    def test_divergence_prints_only_the_error_line(self, tmp_path):
        # A fresh interpreter, so numpy warnings reach stderr as a user sees them.
        argv = ["compare", "--preset", "hetero", "--strategies", "flora,zero_padding",
                "--lr", "5000", "--out", str(tmp_path / "div.csv")]
        done = subprocess.run(
            [sys.executable, "-m", "florasim.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(florasim.__file__).parents[1])},
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: strategy flora diverged in round 1: non-finite update b @ a from client(s) "
            "0, 1, 2, 3, 4, 5, 6, 7, 8, 9"
        ]

    def test_finite_divergence_exits_two(self, tmp_path, capsys):
        # Under softmax the held-out loss can grow far past the baseline and
        # stay finite; standalone's passes DIVERGENCE_RATIO times it in round 4.
        out = tmp_path / "div.csv"
        code = main(
            [
                "compare",
                "--preset", "hetero",
                "--strategies", "flora,zero_padding,standalone,centralized",
                "--loss", "softmax-cross-entropy",
                "--lr", "3",
                "--rounds", "10",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: strategy standalone diverged in round 4: "
            "the held-out loss is 6.8e+04 times the baseline\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["standalone", "centralized"])
    def test_reference_divergence_exits_two_naming_strategy_and_round(self, tmp_path, capsys, strategy):
        with np.errstate(all="ignore"):
            code = main(
                [
                    "run",
                    "--preset", "hetero",
                    "--strategy", strategy,
                    "--lr", "1e8",
                    "--out", str(tmp_path / "div.csv"),
                ]
            )
        assert code == 2
        assert f"error: strategy {strategy} diverged in round 1: " in capsys.readouterr().err

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


# A task small enough that a command runs in a fraction of a second; a
# later --ranks overrides its ranks.
TINY = ["--clients", "4", "--ranks", "2,2,2,2", "--rounds", "2", "--samples", "160", "--m", "8", "--n", "8"]


class TestOneRunner:
    """run, compare and sweep-scaling are one comparison runner at different
    strategies, factors and report paths."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_run_writes_the_bytes_of_a_one_strategy_compare(self, tmp_path, capsys, strategy):
        assert main(["run", *TINY, "--strategy", strategy, "--out", str(tmp_path / "run.csv")]) == 0
        assert main(["compare", *TINY, "--strategies", strategy, "--out", str(tmp_path / "cmp.csv")]) == 0
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "cmp.csv").read_bytes()
        final = read_report(tmp_path / "run.csv")[-1].global_loss
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {tmp_path / name} ({strategy}={final:.6g})" for name in ("run.csv", "cmp.csv")
        ]

    @pytest.mark.parametrize("ranks, strategies", [("2,2,2,2", "flora,fedit"), ("1,2,3,4", "flora,zero_padding")])
    def test_sweep_writes_each_factors_comparison_of_every_strategy(self, tmp_path, capsys, ranks, strategies):
        # Half the clients train each round, so every strategy must see the same draws.
        path = tmp_path / "half.cfg"
        path.write_text("client_fraction = 0.5\n")
        common = ["--config", str(path), *TINY, "--ranks", ranks, "--strategies", strategies]
        assert main(["sweep-scaling", *common, "--out", str(tmp_path / "sweep.csv")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 4
        for factor, line in zip(("0.01", "0.05", "0.1", "0.2"), printed):
            swept = tmp_path / f"sweep.sf{factor}.csv"
            # Each strategy's last row is its final loss.
            finals = {row.strategy: row.global_loss for row in read_report(swept)}
            assert list(finals) == strategies.split(",")
            assert line == f"wrote {swept} ({', '.join(f'{s}={v:.6g}' for s, v in finals.items())})"
            compared = tmp_path / f"cmp{factor}.csv"
            assert main(["compare", *common, "--scaling-override", factor, "--out", str(compared)]) == 0
            assert swept.read_bytes() == compared.read_bytes()

    def test_sweep_generates_its_task_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return gen_task(*args, **kwargs)

        monkeypatch.setattr(florasim.simulation, "gen_task", counting)
        argv = ["sweep-scaling", *TINY, "--strategies", "flora,fedit,standalone", "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        assert len(calls) == 1
        assert len(list(tmp_path.iterdir())) == 4

    @pytest.mark.parametrize("command", ["run", "sweep-scaling"])
    def test_out_that_is_empty_or_a_directory_exits_one_before_any_round(self, tmp_path, capsys, monkeypatch, command):
        def no_rounds(*args, **kwargs):
            raise AssertionError("a round ran before out was checked")

        monkeypatch.setattr(cli, "run_comparisons", no_rounds)
        (tmp_path / "dir").mkdir()
        cases = [
            ("", "out: the report path is empty"),
            ("/", "out: report path '/' is a directory"),
            (f"{tmp_path / 'dir'}/", f"out: report path '{tmp_path / 'dir'}/' is a directory"),
            (f"{tmp_path / 'nodir'}/", f"out: report path '{tmp_path / 'nodir'}/' ends in a path separator"),
        ]
        for out, message in cases:
            assert main([command, "--rounds", "1", "--out", out]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        # Nothing was written beside the directory either.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
        path = tmp_path / "o.cfg"
        path.write_text("rounds = 1\nout =\n")
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 2: out: the report path is empty\n"
        path.write_text(f"rounds = 1\nout = {tmp_path / 'nodir'}/\n")
        assert main([command, "--config", str(path)]) == 1
        separator = f"out: report path '{tmp_path / 'nodir'}/' ends in a path separator"
        assert capsys.readouterr().err == f"error: {path}: line 2: {separator}\n"


def no_rounds(*args):
    raise AssertionError("a round ran before the command's flags and keys were checked")


class TestUnreadKeys:
    """run reads no strategies and sweep-scaling no scaling_override: each
    refuses the flag and ignores a preset's or file's value."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--strategies", "fedit,zero_padding"], "strategies: run trains the one strategy --strategy names"),
            (
                ["sweep-scaling", "--scaling-override", "0.3"],
                "scaling_override: sweep-scaling weights the clients by each factor it sweeps",
            ),
        ],
    )
    def test_a_flag_the_command_would_ignore_exits_one(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "run_comparisons", no_rounds)
        assert main([*argv, *TINY, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_run_names_the_file_line_that_set_its_one_strategy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_comparisons", no_rounds)
        path = tmp_path / "f.cfg"
        path.write_text("strategy = fedit\nstrategies = flora\n")
        assert main(["run", "--preset", "hetero", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 1: strategy: fedit requires homogeneous ranks\n"

    def test_run_ignores_the_strategies_of_a_file(self, tmp_path):
        path = tmp_path / "f.cfg"
        # A repeated strategy is invalid wherever the list is read.
        path.write_text("strategies = fedit,fedit\n")
        assert main(["run", *TINY, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 0
        assert {row.strategy for row in read_report(tmp_path / "x.csv")} == {"flora"}

    def test_sweep_ignores_the_scaling_override_of_a_file(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("scaling_override = 0.3\n")
        assert main(["sweep-scaling", *TINY, "--config", str(path), "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["sweep-scaling", *TINY, "--out", str(tmp_path / "b.csv")]) == 0
        for factor in ("0.01", "0.05", "0.1", "0.2"):
            assert (tmp_path / f"a.sf{factor}.csv").read_bytes() == (tmp_path / f"b.sf{factor}.csv").read_bytes()


def test_a_baseline_loss_that_is_not_finite_exits_one_naming_noise_std(tmp_path, capsys):
    # The targets stay finite, but the held-out squared error overflows.
    code = main(["run", *TINY, "--noise-std", "1e160", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: noise_std: 1e+160 makes the baseline held-out loss non-finite\n"
    )
    assert not (tmp_path / "x.csv").exists()
