"""Experiment configuration: defaults, presets, parsing and serialization.

Configs are flat key=value text; '#' starts a comment and blank lines are
ignored. Values are scalars except ``ranks`` and ``strategies``, which are
comma-separated lists with no empty element. Precedence when sources are
combined: defaults, then preset, then config file, then command-line flags.
Validation checks every field and reports all problems at once.
"""

from __future__ import annotations

import functools
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import SKEW_KINDS, _holdout_size
from .errors import ConfigError
from .lora import _MAX_INIT_BOUND, INIT_KINDS
from .simulation import STRATEGIES, _task_bytes, _task_too_big
from .training import LOSS_KINDS

SCALING_SWEEP = (0.01, 0.05, 0.1, 0.2)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; every field has a usable default."""

    m: int = 16
    n: int = 16
    clients: int = 10
    ranks: tuple[int, ...] = (16,) * 10
    strategies: tuple[str, ...] = ("flora",)
    rounds: int = 3
    epochs: int = 1
    lr: float = 3e-4
    batch_size: int = 16
    loss: str = "squared-error"
    skew: str = "iid"
    skew_strength: float = 0.0
    scaling_override: float | None = None
    seed: int = 42
    out: str = "report.csv"
    samples: int = 1000
    noise_std: float = 0.01
    teacher_rank: int = 4
    init_kind: str = "zero-delta-gaussian"
    init_std: float = 0.01
    client_fraction: float = 1.0

    def validate(self) -> None:
        """Raise ConfigError listing every violated constraint."""
        p: list[str] = []
        if self.m < 1 or self.n < 1:
            p.append(f"m/n: dimensions must be >= 1, got {self.m}x{self.n}")
        if self.clients < 1:
            p.append(f"clients: must be >= 1, got {self.clients}")
        if len(self.ranks) != self.clients:
            p.append(f"ranks: got {len(self.ranks)} ranks for {self.clients} clients")
        if any(r < 1 for r in self.ranks):
            p.append(f"ranks: all ranks must be >= 1, got {list(self.ranks)}")
        if not self.strategies:
            p.append("strategies: need at least one strategy")
        for value in self.strategies:
            if value not in STRATEGIES:
                p.append(f"strategies: unknown strategy {value!r}, expected one of {STRATEGIES}")
        for value in sorted({s for s in self.strategies if self.strategies.count(s) > 1}):
            p.append(f"strategies: {value!r} is listed more than once")
        if "fedit" in self.strategies and len(set(self.ranks)) > 1:
            p.append("strategies: fedit requires homogeneous ranks")
        if self.rounds < 0:
            p.append(f"rounds: must be >= 0, got {self.rounds}")
        if self.epochs < 1:
            p.append(f"epochs: must be >= 1, got {self.epochs}")
        if not np.isfinite(self.lr) or self.lr < 0:
            p.append(f"lr: must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            p.append(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.loss not in LOSS_KINDS:
            p.append(f"loss: unknown loss {self.loss!r}, expected one of {LOSS_KINDS}")
        if self.skew not in SKEW_KINDS:
            p.append(f"skew: unknown kind {self.skew!r}, expected one of {SKEW_KINDS}")
        if not np.isfinite(self.skew_strength) or self.skew_strength < 0:
            p.append(f"skew_strength: must be finite and >= 0, got {self.skew_strength}")
        if not (0 <= self.seed < 2**64):
            # Every seed is used mod 2**64, so -1 would repeat 2**64 - 1.
            p.append(f"seed: must be in [0, 2**64), got {self.seed}")
        if self.scaling_override is not None and not (0 < self.scaling_override <= 1):
            p.append(f"scaling_override: must be in (0, 1], got {self.scaling_override}")
        if self.samples < 2:
            p.append(f"samples: must be >= 2, got {self.samples}")
        elif self.samples > np.iinfo(np.intp).max:
            p.append(f"samples: must be at most {np.iinfo(np.intp).max}, the rows an array can hold")
        else:
            train = self.samples - _holdout_size(self.samples)
            if train < self.clients:
                p.append(
                    f"samples: {self.samples} leaves {train} training samples "
                    f"for {self.clients} clients after the holdout"
                )
            # numpy refuses any array of more bytes than np.intp counts; a
            # smaller task that memory cannot hold fails in _build_world.
            if self.m >= 1 and self.n >= 1 and _task_bytes(self.m, self.n, self.samples) > np.iinfo(np.intp).max:
                p.append(_task_too_big(self.m, self.n, self.samples))
        if not np.isfinite(self.noise_std) or self.noise_std < 0:
            p.append(f"noise_std: must be finite and >= 0, got {self.noise_std}")
        if self.m >= 1 and self.n >= 1 and not (1 <= self.teacher_rank <= min(self.m, self.n)):
            p.append(f"teacher_rank: must be in [1, min(m, n)] = [1, {min(self.m, self.n)}], got {self.teacher_rank}")
        if self.init_kind not in INIT_KINDS:
            p.append(f"init_kind: unknown kind {self.init_kind!r}, expected one of {INIT_KINDS}")
        limit = _MAX_INIT_BOUND.get(self.init_kind, np.inf)
        if not np.isfinite(self.init_std) or self.init_std < 0:
            p.append(f"init_std: must be finite and >= 0, got {self.init_std}")
        elif self.init_std > limit:
            p.append(
                f"init_std: {self.init_std} can overflow a {self.init_kind} draw; the largest is {limit:.6g}"
            )
        if not (0 < self.client_fraction <= 1):
            p.append(f"client_fraction: must be in (0, 1], got {self.client_fraction}")
        if p:
            raise ConfigError(p)


# Preset expansions mirroring the two benchmark client populations: ten
# clients at rank 16, and ten clients with the mixed-capacity rank profile.
PRESETS: dict[str, dict[str, str]] = {
    "homo16": {
        "clients": "10",
        "ranks": "16,16,16,16,16,16,16,16,16,16",
        "rounds": "3",
        "epochs": "1",
    },
    "hetero": {
        "clients": "10",
        "ranks": "64,32,16,16,8,8,4,4,4,4",
        "rounds": "3",
        "epochs": "1",
    },
}


def _parse_list(text: str, item: Callable[[str], object]) -> tuple:
    """A comma list of items; a blank text is the empty list, and an empty
    element (``16,,16``) is a ValueError."""
    parts = [part.strip() for part in text.split(",")] if text.strip() else []
    if "" in parts:
        raise ValueError(f"empty element in {text!r}")
    return tuple(map(item, parts))


# One parser per field type; each key's parser follows from its field's type.
_TYPE_PARSERS = {
    int: lambda text: int(text, 0),
    float: float,
    float | None: lambda text: None if text.strip() == "" else float(text),
    str: str.strip,
    tuple[int, ...]: lambda text: _parse_list(text, int),
    tuple[str, ...]: lambda text: _parse_list(text, str),
}
_PARSERS = {key: _TYPE_PARSERS[kind] for key, kind in get_type_hints(ExperimentConfig).items()}


def _config_lines(text: str) -> dict[str, tuple[int, str]]:
    """Each key of flat key=value text with its line number and raw value (a
    key's last line wins); syntax errors collected."""
    entries: dict[str, tuple[int, str]] = {}
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, equals, value = stripped.partition("=")
        if not equals or not key.strip():
            problems.append(f"line {lineno}: expected key=value, got {stripped!r}")
            continue
        entries[key.strip()] = (lineno, value.strip())
    if problems:
        raise ConfigError(problems)
    return entries


def parse_config(
    path: str | Path | None = None,
    overrides: dict[str, str] | None = None,
    preset: str | None = None,
) -> ExperimentConfig:
    """Build a validated config from preset, file and override layers.

    ``out`` must be non-empty, not a directory, and in a directory that
    exists, since every report goes there or beside it.
    A problem with a key the file set names the file and the key's line; a
    problem with default values names the file too, if one was read.
    """
    return parse_config_located(path, overrides, preset)[0]


def parse_config_located(
    path: str | Path | None = None,
    overrides: dict[str, str] | None = None,
    preset: str | None = None,
) -> tuple[ExperimentConfig, Callable[[str], str]]:
    """``parse_config``, plus the function that names the file and line of a
    problem found later, such as one found while the task is built, the way
    ``parse_config`` names its own."""
    problems: list[str] = []
    # Each layer maps a key to (where it was set, its raw text).
    layers: list[dict[str, tuple[str, str]]] = []
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError([f"preset: unknown preset {preset!r}, expected one of {sorted(PRESETS)}"])
        layers.append({k: ("", v) for k, v in PRESETS[preset].items()})
    if path is not None:
        try:
            # utf-8-sig drops a leading byte-order mark, which a terminal does not show.
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
        try:
            entries = _config_lines(text)
        except ConfigError as exc:
            raise ConfigError([f"{path}: {problem}" for problem in exc.problems]) from None
        layers.append({k: (f"{path}: line {n}: ", v) for k, (n, v) in entries.items()})
    if overrides:
        layers.append({k: ("", v) for k, v in overrides.items() if v is not None})

    values: dict[str, object] = {}
    where: dict[str, str] = {}
    for layer in layers:
        for key, (place, text) in layer.items():
            parser = _PARSERS.get(key)
            if parser is None:
                problems.append(f"{place}{key}: unknown key")
                continue
            try:
                values[key] = parser(text)
                where[key] = place
            except (TypeError, ValueError):
                problems.append(f"{place}{key}: cannot parse {text!r}")
    if problems:
        raise ConfigError(problems)
    config = ExperimentConfig(**values)
    try:
        config.validate()
    except ConfigError as exc:
        problems = exc.problems
    if "teacher_rank" not in where:
        # No flag sets teacher_rank, so a user who did not set it learns where it is set.
        hint = f"; the default {config.teacher_rank} is changed with teacher_rank in a --config file"
        problems = [p + hint if p.startswith("teacher_rank:") else p for p in problems]
    if out_problem := _report_path_problem(config.out):
        problems.append(out_problem)
    if problems:
        raise ConfigError([_locate(problem, where, path) for problem in problems])
    return config, functools.partial(_locate, where=where, path=path)


def _report_path_problem(out: str) -> str | None:
    """Why no report can be written to ``out``, or None: it is empty, a
    directory, or in a directory that does not exist (the one its text
    names, or else the working one)."""
    if not out:
        return "out: the report path is empty"
    if os.path.isdir(out):
        return f"out: report path {out!r} is a directory"
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        return f"out: directory {directory!r} of {out!r} does not exist"
    return None


def _locate(problem: str, where: dict[str, str], path: str | Path | None) -> str:
    """A validation problem prefixed with the file line that set one of the
    keys it names ("m/n: ..." names m and n), or with the file if one was
    read and neither the preset nor a flag set any of those keys."""
    keys = re.split(r"\W+", problem.split(":", 1)[0])
    places = [where[key] for key in keys if where.get(key)]
    if places:
        return places[0] + problem
    if path is not None and not any(key in where for key in keys):
        return f"{path}: {problem}"
    return problem


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a config as key=value lines; parse_config inverts this."""
    lines = []
    for spec_field in fields(config):
        value = getattr(config, spec_field.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{spec_field.name} = {rendered}")
    return "\n".join(lines) + "\n"
