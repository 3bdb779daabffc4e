"""Comparisons run BLAS on one thread and give the caller back its count,
and no result depends on the count."""

from __future__ import annotations

import numpy as np
import pytest

import florasim.simulation as simulation
import florasim.verification as verification
from florasim import DivergenceError, compare_strategies
from florasim.aggregation import WeightedUpdate, fedit_noise
from florasim._blas import _controls, one_thread
from florasim.config import parse_config
from florasim.lora import LoraAdapter

CONTROLS = _controls()
pytestmark = pytest.mark.skipif(CONTROLS is None, reason="numpy's BLAS exposes no thread control")

# A comparison small enough to run in a few milliseconds.
TINY = {"m": "8", "n": "8", "clients": "3", "ranks": "2,2,2", "rounds": "2", "samples": "120"}

# A caller's count that is neither one nor, on a small machine, the default.
CALLER = 3


def blas_threads() -> int:
    return CONTROLS[0]()


@pytest.fixture
def caller_threads():
    """Set the caller's BLAS thread count to CALLER, and restore the original after the test."""
    get, put = CONTROLS
    original = get()
    put(CALLER)
    try:
        yield CALLER
    finally:
        put(original)


def test_one_thread_restores_the_callers_count_also_when_nested(caller_threads):
    with one_thread():
        assert blas_threads() == 1
        with one_thread():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == caller_threads


def test_a_round_trains_on_one_blas_thread(caller_threads, monkeypatch):
    seen = []
    train = simulation.local_train

    def recording(*args, **kwargs):
        seen.append(blas_threads())
        return train(*args, **kwargs)

    monkeypatch.setattr(simulation, "local_train", recording)
    config = parse_config(overrides={**TINY, "strategies": "flora,standalone,centralized"})
    compare_strategies(config, list(config.strategies))
    # flora: 3 clients x 2 rounds, standalone the same, centralized 2 rounds.
    assert seen == [1] * 14
    assert blas_threads() == caller_threads


def test_run_comparisons_gives_back_the_callers_count(caller_threads):
    config = parse_config(overrides={**TINY, "strategies": "flora,fedit"})
    simulation.run_comparisons(config, ["flora", "fedit"], [None, 0.5])
    assert blas_threads() == caller_threads


def test_run_comparisons_gives_back_the_callers_count_when_a_run_diverges(caller_threads):
    config = parse_config(overrides={**TINY, "strategy": "centralized", "lr": "1e8"})
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        simulation.run_comparisons(config, ["centralized"], [None])
    assert blas_threads() == caller_threads


def test_run_all_runs_checks_at_the_callers_count_and_comparisons_on_one_thread(caller_threads, monkeypatch):
    trained = []
    train = simulation.local_train

    def recording(*args, **kwargs):
        trained.append(blas_threads())
        return train(*args, **kwargs)

    def comparison():
        config = parse_config(overrides=TINY)
        compare_strategies(config, ["flora"])
        # The comparison gives the check back the caller's count.
        return blas_threads() == caller_threads, "comparison"

    monkeypatch.setattr(simulation, "local_train", recording)
    checks = [("threads", lambda: (blas_threads() == caller_threads, "caller's count")), ("comparison", comparison)]
    monkeypatch.setattr(verification, "CHECKS", checks)
    lines = []
    assert verification.run_all(echo=lines.append)
    assert lines == ["PASS threads: caller's count", "PASS comparison: comparison"]
    # flora: 3 clients x 2 rounds, each trained on one thread.
    assert trained == [1] * 6
    assert blas_threads() == caller_threads


def test_run_all_gives_back_the_callers_count_when_a_check_diverges(caller_threads, monkeypatch):
    def diverging():
        config = parse_config(overrides={**TINY, "strategy": "centralized", "lr": "1e8"})
        compare_strategies(config, ["centralized"])

    monkeypatch.setattr(verification, "CHECKS", [("diverging", diverging)])
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        verification.run_all(echo=lambda line: None)
    assert blas_threads() == caller_threads


def test_fedit_noise_called_alone_does_not_depend_on_the_blas_thread_count(caller_threads):
    # 256 x 256 norms are large enough for OpenBLAS to split a BLAS dot.
    gen = np.random.default_rng(24)
    rounds = [
        [
            WeightedUpdate(LoraAdapter(a=gen.normal(size=(16, 256)), b=gen.normal(size=(256, 16))), 0.1)
            for _ in range(10)
        ]
        for _ in range(20)
    ]
    noise = {}
    for threads in (1, 4):
        CONTROLS[1](threads)
        noise[threads] = [fedit_noise(updates).relative_noise.hex() for updates in rounds]
    assert noise[1] == noise[4]
