"""Command-line entry point.

Subcommands:
    run            one experiment under one strategy
    compare        the same experiment under several strategies, one file
    sweep-scaling  that comparison at each constant scaling factor of
                   0.01/0.05/0.1/0.2, one file per factor
    verify         the built-in oracle and invariant suite

run, compare and sweep-scaling all train the config's ``strategies`` (run
exactly one) and differ only in their factors and report paths; each makes one
``simulation.run_comparisons`` call, which builds the task and partition once,
and prints one line per report written. A command refuses a value it cannot
honour (two strategies under run, a scaling_override under sweep-scaling) as
it refuses an invalid one, naming the file line that set it.

Exit codes: 0 success, 1 invalid command line, invalid configuration or
failed verification, 2 runtime failure (``DivergenceError`` included).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .comm import emit_rows
from .config import PRESETS, SCALING_SWEEP, _report_path_problem, parse_config_located
from .errors import ConfigError
from .simulation import STRATEGIES, _run_problems, run_comparisons
from .verification import run_all


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), help="expand a named preset first")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--strategies", help=f"comma list of {', '.join(STRATEGIES)} (one for run)")
    parser.add_argument("--clients", help="number of clients")
    parser.add_argument("--ranks", help="comma list of per-client adapter ranks")
    parser.add_argument("--rounds", help="number of communication rounds")
    parser.add_argument("--epochs", help="local epochs per round")
    parser.add_argument("--lr", help="local learning rate")
    parser.add_argument("--batch-size", dest="batch_size", help="local mini-batch size")
    parser.add_argument("--loss", help="squared-error or softmax-cross-entropy")
    parser.add_argument("--skew", help="iid, feature-shift, size-skew, label-skew, feature-shift+size-skew")
    parser.add_argument("--skew-strength", dest="skew_strength", help="skew strength (0 = iid)")
    parser.add_argument("--scaling-override", dest="scaling_override", help="constant client weight in (0, 1]")
    parser.add_argument("--seed", help="experiment seed")
    parser.add_argument("--out", help="report file path")
    parser.add_argument("--samples", help="total generated samples")
    parser.add_argument("--noise-std", dest="noise_std", help="target noise std")
    parser.add_argument("--m", help="output dimension")
    parser.add_argument("--n", help="input dimension")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (an unknown flag or command, a
    flag without its value) raise ConfigError, so that every invalid input
    exits 1 with one ``error:`` line. Its subparsers are of this class too."""

    def error(self, message: str):
        raise ConfigError([message])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="florasim",
        description="Federated low-rank adapter fine-tuning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("run", "run one experiment and write its report"),
        ("compare", "run several strategies over the identical task"),
        ("sweep-scaling", "compare at each constant scaling factor"),
    ):
        _add_config_flags(sub.add_parser(name, help=blurb))
    sub.add_parser("verify", help="run the oracle and invariant suite")
    return parser


# Flags that choose where the config comes from rather than set one of its keys.
_SOURCE_FLAGS = ("command", "preset", "config")


def _config_from_args(args: argparse.Namespace):
    """The config the flags, preset and file give, and the function that
    names the file and line of a key a later problem is about."""
    overrides = {key: value for key, value in vars(args).items() if key not in _SOURCE_FLAGS}
    return parse_config_located(path=args.config, overrides=overrides, preset=args.preset)


def _sweep_path(out: str, factor: float) -> str:
    path = Path(out)
    return str(path.with_name(f"{path.stem}.sf{factor:g}{path.suffix or '.csv'}"))


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            return 0 if run_all() else 1

        config, locate = _config_from_args(args)
        if args.command == "sweep-scaling":
            factors = SCALING_SWEEP
            reports = [_sweep_path(config.out, factor) for factor in factors]
        else:
            factors, reports = [config.scaling_override], [config.out]
        try:
            # Before the first round, every report path passes the check
            # parse_config made of out, a sweep's derived paths included, and
            # the command can honour every value of the config.
            problems = [problem for problem in map(_report_path_problem, reports) if problem]
            if args.command == "run":
                problems += _run_problems(config)
            elif args.command == "sweep-scaling" and config.scaling_override is not None:
                problems.append("scaling_override: sweep-scaling weights the clients by each factor it sweeps")
            if problems:
                raise ConfigError(problems)
            # Building the task finds some problems (a task too large to
            # allocate, a non-finite baseline) that parse_config cannot.
            comparisons = run_comparisons(config, list(config.strategies), factors)
        except ConfigError as exc:
            raise ConfigError([locate(problem) for problem in exc.problems]) from None
        for path, comparison in zip(reports, comparisons):
            emit_rows(comparison.to_rows(), path, seed=config.seed)
            finals = ", ".join(f"{s}={v:.6g}" for s, v in comparison.final_losses().items())
            print(f"wrote {path} ({finals})")
        return 0
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def script_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_main()
