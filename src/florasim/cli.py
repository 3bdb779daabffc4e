"""Command-line entry point.

Subcommands:
    run            one experiment under one strategy
    compare        the same experiment under several strategies, one file
    sweep-scaling  that comparison at each constant scaling factor of
                   0.01/0.05/0.1/0.2, one file per factor
    verify         the built-in oracle and invariant suite

run, compare and sweep-scaling differ only in their strategies, factors and
report paths; each makes one ``simulation.run_comparisons`` call, which
builds the task and partition once, and prints one line per report written.

Exit codes: 0 success, 1 invalid configuration or failed verification,
2 runtime failure (``DivergenceError`` included).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .comm import emit_rows
from .config import PRESETS, SCALING_SWEEP, parse_config
from .errors import ConfigError
from .simulation import STRATEGIES, run_comparisons
from .verification import run_all


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), help="expand a named preset first")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--strategy", help=f"one of {', '.join(STRATEGIES)}")
    parser.add_argument("--strategies", help="comma list of strategies (compare, sweep-scaling)")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

# The config key a command does not read, and why it refuses the flag that
# sets it; a preset's or file's value of that key is ignored.
_UNREAD = {
    "run": ("strategies", "run trains the one strategy --strategy names"),
    "sweep-scaling": ("scaling_override", "sweep-scaling weights the clients by each factor it sweeps"),
}


def _config_from_args(args: argparse.Namespace):
    overrides = {key: value for key, value in vars(args).items() if key not in _SOURCE_FLAGS}
    return parse_config(path=args.config, overrides=overrides, preset=args.preset)


def _sweep_path(out: str, factor: float) -> str:
    path = Path(out)
    return str(path.with_name(f"{path.stem}.sf{factor:g}{path.suffix or '.csv'}"))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return 0 if run_all() else 1

        if args.command in _UNREAD:
            key, why = _UNREAD[args.command]
            if getattr(args, key) is not None:
                raise ConfigError([f"{key}: {why}"])
            # An empty flag value overrides the ignored key, so it is not validated.
            setattr(args, key, "")
        config = _config_from_args(args)
        strategies = list(config.strategies) or [config.strategy]
        if args.command == "sweep-scaling":
            factors = SCALING_SWEEP
            reports = [_sweep_path(config.out, factor) for factor in factors]
            # parse_config checked out itself; a derived path that is a
            # directory fails now, not after the last round.
            taken = [f"out: report path {path!r} is a directory" for path in reports if Path(path).is_dir()]
            if taken:
                raise ConfigError(taken)
        else:
            factors, reports = [config.scaling_override], [config.out]
        for path, comparison in zip(reports, run_comparisons(config, strategies, factors)):
            emit_rows(comparison.to_rows(), path, seed=config.seed)
            finals = ", ".join(f"{s}={v:.6g}" for s, v in comparison.final_losses().items())
            print(f"wrote {path} ({finals})")
        return 0
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive surface for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 2


def script_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_main()
