"""Command-line entry point.

Subcommands:
    run            one experiment under one strategy
    compare        the same experiment under several strategies, one file
    sweep-scaling  re-runs with a constant scaling factor of 0.01/0.05/0.1/0.2
    verify         the built-in oracle and invariant suite

Exit codes: 0 success, 1 invalid configuration or failed verification,
2 runtime failure (``DivergenceError`` included).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .comm import emit_report, emit_rows
from .config import PRESETS, SCALING_SWEEP, parse_config, with_overrides
from .errors import ConfigError
from .simulation import STRATEGIES, compare_strategies, run_experiment
from .verification import run_all


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), help="expand a named preset first")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--strategy", help=f"one of {', '.join(STRATEGIES)}")
    parser.add_argument("--strategies", help="comma list of strategies (compare)")
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
        ("sweep-scaling", "re-run with each constant scaling factor"),
    ):
        _add_config_flags(sub.add_parser(name, help=blurb))
    sub.add_parser("verify", help="run the oracle and invariant suite")
    return parser


_FLAG_KEYS = (
    "strategy",
    "strategies",
    "clients",
    "ranks",
    "rounds",
    "epochs",
    "lr",
    "batch_size",
    "loss",
    "skew",
    "skew_strength",
    "scaling_override",
    "seed",
    "out",
    "samples",
    "noise_std",
    "m",
    "n",
)


def _config_from_args(args: argparse.Namespace):
    overrides = {key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key) is not None}
    return parse_config(path=args.config, overrides=overrides, preset=args.preset)


def _sweep_path(out: str, factor: float) -> str:
    path = Path(out)
    return str(path.with_name(f"{path.stem}.sf{factor:g}{path.suffix or '.csv'}"))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return 0 if run_all() else 1

        config = _config_from_args(args)
        if args.command == "run":
            report = run_experiment(config)
            emit_report(report, config.out)
            print(f"wrote {config.out} (final {config.strategy} loss {report.final_global_loss:.6g})")
        elif args.command == "compare":
            strategies = list(config.strategies) or [config.strategy]
            comparison = compare_strategies(config, strategies)
            emit_rows(comparison.to_rows(), config.out, seed=config.seed)
            finals = ", ".join(f"{s}={v:.6g}" for s, v in comparison.final_losses().items())
            print(f"wrote {config.out} ({finals})")
        elif args.command == "sweep-scaling":
            for factor in SCALING_SWEEP:
                swept = with_overrides(config, scaling_override=factor, out=_sweep_path(config.out, factor))
                report = run_experiment(swept)
                emit_report(report, swept.out)
                print(f"wrote {swept.out} (factor {factor:g}, final loss {report.final_global_loss:.6g})")
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
