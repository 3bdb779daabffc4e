"""The benchmark's workloads: how each builds its input and checks its output.

Each workload is what a user runs from the CLI, built from the harness seed:
the package sees only the generated ExperimentConfig (``verify`` takes no
config; its checks use their own fixed seeds). Imports of florasim happen
inside the functions so the worker can time the package import.
"""

from __future__ import annotations

import hashlib
import math
import re

# The seed used when none is given, and a second seed kept aside: a later
# change that claims a gain must also show it on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


# parse_config overrides of each workload; None runs florasim.verification.run_all().
# BENCHMARK.json says why each workload was chosen.
WORKLOADS: dict[str, dict[str, str] | None] = {
    "verify": None,
    "wide256": {
        "m": "256",
        "n": "256",
        "clients": "10",
        "ranks": ",".join(["16"] * 10),
        "samples": "20000",
        "rounds": "3",
        "strategies": "flora,fedit",
    },
    "hetero_partial": {
        "clients": "10",
        "ranks": "64,32,16,16,8,8,4,4,4,4",
        "skew": "feature-shift+size-skew",
        "skew_strength": "1.0",
        "client_fraction": "0.5",
        "loss": "softmax-cross-entropy",
        "rounds": "400",
        "strategies": "flora,zero_padding",
    },
}


def build(workload: str, seed: int):
    """Import the package and build and validate the workload's config (or None)."""
    overrides = WORKLOADS[workload]
    if overrides is None:
        import florasim.verification  # noqa: F401  (what `florasim verify` imports)

        return None
    from florasim.config import parse_config

    return parse_config(overrides={**overrides, "seed": str(seed)})


def run(config, report_path: str):
    """Run the workload as the CLI would, up to its results in hand."""
    if config is None:
        from florasim.verification import run_all

        lines: list[str] = []
        ok = run_all(echo=lines.append)
        return ok, lines
    from florasim.comm import emit_rows
    from florasim.simulation import compare_strategies

    comparison = compare_strategies(config, list(config.strategies))
    emit_rows(comparison.to_rows(), report_path, seed=config.seed)
    return comparison


# Timings inside verify's detail strings, e.g. "0.123s"; masked for the digest.
_ELAPSED = re.compile(r"\d+(\.\d+)?s\b")


def check(workload: str, config, outcome, report_path: str) -> tuple[list[tuple[str, bool, str]], str]:
    """Output checks of one run and the digest of its report bytes."""
    if config is None:
        ok, lines = outcome
        checks = [
            (f"verify.{line.split(' ', 2)[1].rstrip(':')}", line.startswith("PASS "), line)
            for line in lines
        ]
        checks.append(("verify.result", ok is True, f"run_all returned {ok!r}"))
        masked = "\n".join(_ELAPSED.sub("<t>", line) for line in lines)
        return checks, hashlib.sha256(masked.encode()).hexdigest()

    comparison = outcome
    checks = []
    for strategy in comparison.strategies:
        rows = comparison.reports[strategy].to_rows()
        bad = [r.round for r in rows if not (math.isfinite(r.global_loss) and math.isfinite(r.mean_client_loss))]
        checks.append((f"finite.{strategy}", not bad, f"rows with non-finite losses: {bad}"))
        checks.append(
            (f"rows.{strategy}", len(rows) == config.rounds + 1, f"{len(rows)} rows for {config.rounds} rounds")
        )
    if workload == "wide256":
        checks.extend(_traffic_checks(config, comparison))
    with open(report_path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return checks, digest


def _traffic_checks(config, comparison) -> list[tuple[str, bool, str]]:
    """Full participation: ledger totals equal the closed forms of check_comm_accounting."""
    k, big_r, m, n = config.clients, config.rounds, config.m, config.n
    r = config.ranks[0]
    expected = {
        "flora": k * (m * n + big_r * (r + k * r) * (m + n)),
        "fedit": k * (m * n + 2 * big_r * r * (m + n)),
    }
    checks = []
    for strategy, want in expected.items():
        got = comparison.reports[strategy].ledger.total()
        checks.append((f"traffic.{strategy}", got == want, f"ledger total {got}, closed form {want}"))
    return checks
