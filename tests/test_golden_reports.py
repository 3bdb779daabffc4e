"""Reports of small compares against stored reference reports.

The files under ``data/reports`` were written by ``florasim compare``. A
change that keeps the seeds, the order of operations and the traffic model
reproduces them: round, strategy and traffic columns exactly, and the real
columns to 1e-12 relative, which absorbs a change of BLAS kernel but not of
a seed or of the order in which clients train.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from florasim import read_report
from florasim.cli import main

REPORTS = Path(__file__).parent / "data" / "reports"
ALL = "flora,fedit,zero_padding,standalone,centralized"
SOFTMAX = ["--loss", "softmax-cross-entropy"]
REFS = "flora,zero_padding,standalone,centralized"
LR01 = ["--lr", "0.1", "--rounds", "10"]

CASES = {
    "homo16_squared_error.csv": (["--preset", "homo16", "--strategies", ALL], None),
    "homo16_softmax.csv": (["--preset", "homo16", "--strategies", ALL, *SOFTMAX], None),
    "hetero_fraction0.3_softmax.csv": (
        ["--preset", "hetero", "--strategies", REFS, *SOFTMAX],
        "client_fraction = 0.3\n",
    ),
    # Non-iid partitions at a learning rate and round count where batch order
    # shows in the loss, so a shifted or swapped seed misses the tolerance.
    "hetero_label_skew3_lr0.1_squared_error.csv": (
        ["--preset", "hetero", "--strategies", REFS, *LR01, "--skew", "label-skew",
         "--skew-strength", "3.0"],
        None,
    ),
    # The same partition under softmax: the only case whose partition depends
    # on the argmax of the softmax targets.
    "hetero_label_skew3_lr0.1_softmax.csv": (
        ["--preset", "hetero", "--strategies", REFS, *LR01, "--skew", "label-skew",
         "--skew-strength", "3.0", *SOFTMAX],
        None,
    ),
    "hetero_feature_size_skew1_lr0.1_softmax.csv": (
        ["--preset", "hetero", "--strategies", REFS, *LR01, "--skew", "feature-shift+size-skew",
         "--skew-strength", "1.0", *SOFTMAX],
        None,
    ),
    # The same partition with half the clients per round, so the participant
    # sampling seed and mixed-rank padding of a partial round show too.
    "hetero_fraction0.5_lr0.1_softmax.csv": (
        ["--preset", "hetero", "--strategies", REFS, *LR01, "--skew", "feature-shift+size-skew",
         "--skew-strength", "1.0", *SOFTMAX],
        "client_fraction = 0.5\n",
    ),
}


def _close(actual: float | None, expected: float | None) -> bool:
    if actual is None or expected is None:
        return actual is expected
    return math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_compare_reproduces_reference_report(tmp_path, name):
    flags, config_text = CASES[name]
    out = tmp_path / name
    argv = ["compare", *flags, "--out", str(out)]
    if config_text is not None:
        config = tmp_path / "extra.cfg"
        config.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 0
    actual, expected = read_report(out), read_report(REPORTS / name)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        exact = ("round", "strategy", "params_up_total", "params_down_total")
        assert [getattr(got, f) for f in exact] == [getattr(want, f) for f in exact]
        for f in ("global_loss", "mean_client_loss", "relative_noise"):
            assert _close(getattr(got, f), getattr(want, f)), (want.strategy, want.round, f)
