"""The benchmark's tracer still finds the package functions it wraps, and
every benchmark workload still builds its config.

``perfbench/tracing.py`` wraps florasim from outside the package by module
and attribute name. A renamed or deleted function is recorded as absent and
its metrics read 0 without an error, and a call that bypasses a wrapped
name is not seen at all; these tests make either show in the test suite.
``perfbench/workloads.py`` builds each workload's config from CLI-style
overrides, so a renamed config key or a parser regression shows here too,
not only when the benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from florasim import ExperimentConfig, compare_strategies
from florasim.simulation import FEDERATED_STRATEGIES, STRATEGIES, _build_world, _participants
from test_comm import record_adds

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(f"florasim.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "module, attribute",
    [(module, attribute) for module, attribute, _ in tracing.SPANNED + tracing.COUNTED],
)
def test_every_traced_name_resolves(module, attribute):
    assert callable(_resolve(module, attribute))


def test_a_traced_compare_counts_training_and_aggregation():
    config = ExperimentConfig(
        m=8, n=8, clients=3, ranks=(2, 2, 2), rounds=2, samples=120, teacher_rank=2, seed=5
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        compare_strategies(config, ["flora", "fedit"])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.absent == []
    assert metrics["training.local_train.calls"] > 0
    # One aggregate per federated round: 2 strategies x 2 rounds.
    assert metrics["aggregation.aggregate.calls"] == 4


def test_rounds_call_the_traced_loss_and_noise_names():
    # One baseline loss, one held-out loss per round of each strategy, and one
    # noise split per fedit round, which splits the update the round merged
    # instead of averaging the uploads again.
    config = ExperimentConfig(
        m=8, n=8, clients=3, ranks=(2, 2, 2), rounds=3, samples=120, teacher_rank=2, seed=5
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        compare_strategies(config, ["flora", "fedit"])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["training.evaluate.calls"] == 1 + config.rounds * 2
    assert metrics["aggregation.noise.calls"] == config.rounds
    assert metrics["aggregation.aggregate.calls"] == config.rounds * 2


@pytest.mark.parametrize(
    "strategies, client_fraction",
    [pytest.param([s], 1.0, id=s) for s in STRATEGIES]
    + [pytest.param(list(STRATEGIES), 0.5, id="all-strategies-half-the-clients")],
)
def test_a_traced_run_counts_every_sgd_sample(strategies, client_fraction):
    # The counter reads shard.size and cfg.batch_size from local_train's first
    # three positional arguments. Each epoch, a federated strategy passes over
    # the shards of the round's participants, and a reference over all
    # training rows: each client its own shard, or the centralized reference
    # the pooled one. A comparison's count is the sum over its strategies.
    config = ExperimentConfig(
        m=8, n=8, clients=3, ranks=(2, 2, 2), rounds=3, epochs=2, samples=120, teacher_rank=2, seed=5,
        client_fraction=client_fraction,
    )
    world = _build_world(config)
    training_rows = sum(shard.size for shard in world.shards)
    participant_rows = sum(
        world.shards[i].size for t in range(config.rounds) for i in _participants(config, t)
    )
    assert training_rows == 96
    assert participant_rows == (config.rounds * training_rows if client_fraction == 1 else 3 * 2 * 32)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        compare_strategies(config, strategies)
    finally:
        tracer.uninstall()
    samples = tracer.metrics()["training.sgd_samples"]
    per_strategy = [
        participant_rows if s in FEDERATED_STRATEGIES else config.rounds * training_rows for s in strategies
    ]
    assert samples == config.epochs * sum(per_strategy)


def test_a_traced_run_counts_every_transmission_and_parameter(monkeypatch):
    # The traffic counters wrap CommLedger.add and read each event's
    # direction and param_count; every transmission a round charges must
    # pass through add once, and the ledgers' totals must be what they saw.
    added = record_adds(monkeypatch)
    config = ExperimentConfig(
        m=8, n=8, clients=4, ranks=(1, 2, 3, 4), rounds=3, samples=120, teacher_rank=2, seed=5,
        client_fraction=0.5,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        comparison = compare_strategies(config, ["flora", "zero_padding", "standalone", "centralized"])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.absent == []
    # Round 0 broadcasts to its 2 participants under each federated strategy,
    # to standalone's 4 clients and to centralized's one server; then each
    # federated strategy charges 2 participants x 3 rounds x (up, down).
    assert metrics["comm.ledger.events"] == len(added) == 2 + 2 + 4 + 1 + 2 * 12
    totals = sum(report.ledger.total() for report in comparison.reports.values())
    assert metrics["comm.params_up"] + metrics["comm.params_down"] == totals
    assert totals == sum(event.param_count for _, event in added)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_builds_a_valid_config(name, seed):
    config = workloads.build(name, seed)
    if workloads.WORKLOADS[name] is None:
        assert config is None
        return
    assert isinstance(config, ExperimentConfig)
    assert config.seed == seed
    config.validate()
    assert config.strategies and config.rounds >= 1
