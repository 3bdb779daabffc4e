"""The federated round protocol over simulated clients.

One round: every client draws a fresh zero-update adapter, fine-tunes it on
its shard, and uploads it; the server aggregates the uploads under the chosen
strategy, merges the aggregate update into the global weights with
coefficient one, and redistributes, leaving every client's local base equal
to the new global weights. Redistribution is simulated by synchronizing the
merged weights — numerically identical to shipping the stacked factors and
multiplying locally — while the ledger charges the protocol-accurate stacked
sizes, so communication totals match the real wire exchange.

Clients train one after another in client order. Each client owns its
arrays and all randomness is derived per (experiment seed, client, round),
so a client's adapter does not depend on which clients trained before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import (
    WeightedUpdate,
    aggregate_fedit,
    aggregate_flora,
    aggregate_zero_padding,
    fedit_noise,
    padded_updates,
)
from .comm import CommLedger, ReportRow, charge_round
from .data import ClientShard, EvalSet, SkewSpec, gen_task, holdout_split, partition, scaling_factors
from .errors import ConfigError
from .lora import BaseWeights, Dim, InitPolicy, LoraAdapter, adapter_delta, init_adapter
from .rng import derive_seed
from .training import Batch, ToyModel, TrainConfig, _loss_and_residual, evaluate, local_train

FEDERATED_STRATEGIES = ("flora", "fedit", "zero_padding")
STRATEGIES = FEDERATED_STRATEGIES + ("standalone", "centralized")

EVAL_FRACTION = 0.2

# Stream tags keeping the per-purpose seed derivations disjoint.
_TAG_INIT = 0
_TAG_TRAIN = 1
_TAG_PARTITION = 2
_TAG_CENTRAL = 3
_TAG_SAMPLING = 4


@dataclass
class ServerState:
    """Global weights, the round counter, and the transmission ledger."""

    base: BaseWeights
    round: int = 0
    ledger: CommLedger = field(default_factory=CommLedger)


@dataclass
class ClientRuntime:
    """One simulated client: shard, rank, synchronized base, seed root."""

    client_id: int
    shard: ClientShard
    rank: int
    local_base: BaseWeights
    seed: int


@dataclass(frozen=True)
class RoundMetrics:
    """Evaluation and traffic for one completed training round.

    In a federated round every participant ends holding the redistributed
    global weights, so each entry of per_client_eval_loss equals
    global_eval_loss; it is evaluated once. Standalone clients keep their
    own adapters and report distinct losses.
    """

    round: int
    strategy: str
    global_eval_loss: float
    per_client_eval_loss: list[float]
    fedit_relative_noise: float | None
    params_up: int
    params_down: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.global_eval_loss):
            raise ValueError("global_eval_loss must be finite")
        if self.params_up < 0 or self.params_down < 0:
            raise ValueError("parameter counts must be >= 0")


@dataclass(frozen=True)
class ExperimentReport:
    """Baseline evaluation plus per-round metrics for one strategy run."""

    strategy: str
    seed: int
    baseline_loss: float
    baseline_client_losses: list[float]
    rounds: list[RoundMetrics]
    ledger: CommLedger

    @property
    def final_global_loss(self) -> float:
        return self.rounds[-1].global_eval_loss if self.rounds else self.baseline_loss

    def to_rows(self) -> list[ReportRow]:
        """Row 0 is the pre-training baseline; row t is after round t."""
        rows = [
            ReportRow(
                round=0,
                strategy=self.strategy,
                global_loss=self.baseline_loss,
                mean_client_loss=float(np.mean(self.baseline_client_losses)),
                relative_noise=None,
                params_up_total=0,
                params_down_total=0,
            )
        ]
        for metrics in self.rounds:
            rows.append(
                ReportRow(
                    round=metrics.round + 1,
                    strategy=metrics.strategy,
                    global_loss=metrics.global_eval_loss,
                    mean_client_loss=float(np.mean(metrics.per_client_eval_loss)),
                    relative_noise=metrics.fedit_relative_noise,
                    params_up_total=metrics.params_up,
                    params_down_total=metrics.params_down,
                )
            )
        return rows


@dataclass(frozen=True)
class ComparisonReport:
    """Aligned runs of several strategies over one task and partition."""

    seed: int
    strategies: tuple[str, ...]
    reports: dict[str, ExperimentReport]

    def final_losses(self) -> dict[str, float]:
        return {s: self.reports[s].final_global_loss for s in self.strategies}

    def to_rows(self) -> list[ReportRow]:
        return [row for s in self.strategies for row in self.reports[s].to_rows()]


def _eval_base(base: BaseWeights, eval_set: EvalSet, loss: str) -> float:
    value, _ = _loss_and_residual(eval_set.xs @ base.w.T, eval_set.ys, loss)
    return value


def _train_clients(
    clients: list[ClientRuntime],
    train_cfg: TrainConfig,
    init_policy: InitPolicy,
    round_index: int,
) -> list[LoraAdapter]:
    """Fresh-init and locally train every client; returns adapters in client order."""
    adapters = []
    for client in clients:
        policy = replace(init_policy, seed=derive_seed(client.seed, round_index, _TAG_INIT))
        adapter = init_adapter(client.local_base.dim, client.rank, policy)
        cfg = replace(train_cfg, seed=derive_seed(client.seed, round_index, _TAG_TRAIN))
        adapters.append(local_train(ToyModel(client.local_base, adapter), client.shard, cfg))
    return adapters


def apply_updates(
    base: BaseWeights, updates: list[WeightedUpdate], strategy: str
) -> tuple[BaseWeights, LoraAdapter]:
    """Aggregate uploads under a strategy and merge into the base weights."""
    if strategy == "flora":
        aggregate = aggregate_flora(updates)
    elif strategy == "fedit":
        aggregate = aggregate_fedit(updates)
    elif strategy == "zero_padding":
        aggregate = aggregate_zero_padding(updates)
    else:
        raise ConfigError([f"strategy: {strategy!r} is not a federated aggregation strategy"])
    return BaseWeights(base.w + adapter_delta(aggregate)), aggregate


def run_round(
    server: ServerState,
    clients: list[ClientRuntime],
    strategy: str,
    train_cfg: TrainConfig,
    eval_set: EvalSet,
    *,
    init_policy: InitPolicy = InitPolicy(),
    scaling_override: float | None = None,
) -> RoundMetrics:
    """Execute one synchronized federated round and return its metrics."""
    if strategy not in FEDERATED_STRATEGIES:
        raise ConfigError([f"strategy: {strategy!r} cannot drive a federated round"])
    ranks = [c.rank for c in clients]
    if strategy == "fedit" and len(set(ranks)) != 1:
        raise ConfigError(
            [f"strategy: fedit requires homogeneous ranks, got {sorted(set(ranks))}"]
        )
    dim = server.base.dim
    for client in clients:
        if client.local_base.dim != dim:
            raise ConfigError([f"clients: client {client.client_id} base shape differs from server"])

    adapters = _train_clients(clients, train_cfg, init_policy, server.round)
    if scaling_override is not None:
        weights = [scaling_override] * len(clients)
    else:
        weights = scaling_factors([c.shard for c in clients])
    updates = [WeightedUpdate(a, w) for a, w in zip(adapters, weights)]

    new_base, _ = apply_updates(server.base, updates, strategy)
    noise = None
    if strategy == "fedit":
        noise = fedit_noise(updates).relative_noise
    elif strategy == "zero_padding":
        noise = fedit_noise(padded_updates(updates)).relative_noise

    params_up, params_down = charge_round(server.ledger, strategy, dim, ranks, len(clients), server.round)

    server.base = new_base
    for client in clients:
        client.local_base = new_base
    round_index = server.round
    server.round += 1

    loss = _eval_base(new_base, eval_set, train_cfg.loss)
    return RoundMetrics(
        round=round_index,
        strategy=strategy,
        global_eval_loss=loss,
        per_client_eval_loss=[loss] * len(clients),
        fedit_relative_noise=noise,
        params_up=params_up,
        params_down=params_down,
    )


@dataclass(frozen=True)
class _World:
    """The data of one experiment: initial base, shards, held-out set, baseline.

    Nothing here changes during a run (the arrays are read-only), so one
    world serves every strategy of a comparison; each run draws its own
    ServerState and ClientRuntime objects from it.
    """

    base: BaseWeights
    shards: list[ClientShard]
    eval_set: EvalSet
    baseline: float


def _build_world(config) -> _World:
    """Task, holdout, shards and baseline loss from a validated config."""
    dim = Dim(config.m, config.n)
    task = gen_task(dim, config.samples, config.noise_std, config.seed, config.teacher_rank)
    train_task, eval_set = holdout_split(task, EVAL_FRACTION)
    spec = SkewSpec(config.skew, config.skew_strength, derive_seed(config.seed, _TAG_PARTITION))
    shards = partition(train_task, config.clients, spec)
    if config.loss == "softmax-cross-entropy":
        shards = [
            ClientShard(s.client_id, s.xs, np.argmax(s.ys, axis=1)) for s in shards
        ]
        eval_set = EvalSet(eval_set.xs, np.argmax(eval_set.ys, axis=1))
    return _World(task.base, shards, eval_set, _eval_base(task.base, eval_set, config.loss))


def _fresh_state(config, world: _World) -> tuple[ServerState, list[ClientRuntime]]:
    """A new server and clients, all holding the world's initial base."""
    clients = [
        ClientRuntime(
            client_id=i,
            shard=world.shards[i],
            rank=config.ranks[i],
            local_base=world.base,
            seed=derive_seed(config.seed, i),
        )
        for i in range(config.clients)
    ]
    return ServerState(base=world.base), clients


def _participants(
    clients: list[ClientRuntime], fraction: float, seed: int, round_index: int
) -> list[ClientRuntime]:
    if fraction >= 1.0:
        return clients
    count = max(1, int(np.ceil(fraction * len(clients))))
    gen = np.random.default_rng(derive_seed(seed, _TAG_SAMPLING, round_index))
    chosen = sorted(gen.choice(len(clients), size=count, replace=False).tolist())
    return [clients[i] for i in chosen]


def run_experiment(config) -> ExperimentReport:
    """Build the task, run all rounds under config.strategy, report metrics."""
    config.validate()
    return _run(config, _build_world(config))


def _run(config, world: _World) -> ExperimentReport:
    """All rounds of config.strategy on fresh state drawn from the world."""
    server, clients = _fresh_state(config, world)
    eval_set = world.eval_set
    train_cfg = TrainConfig(
        learning_rate=config.lr,
        batch_size=config.batch_size,
        local_epochs=config.epochs,
        loss=config.loss,
        seed=0,
    )
    init_policy = InitPolicy(kind=config.init_kind, std_or_bound=config.init_std, seed=0)

    rounds: list[RoundMetrics] = []
    if config.strategy in FEDERATED_STRATEGIES:
        for _ in range(config.rounds):
            active = _participants(clients, config.client_fraction, config.seed, server.round)
            metrics = run_round(
                server,
                active,
                config.strategy,
                train_cfg,
                eval_set,
                init_policy=init_policy,
                scaling_override=config.scaling_override,
            )
            for client in clients:
                client.local_base = server.base
            rounds.append(metrics)
    elif config.strategy == "standalone":
        rounds = _run_standalone(server, clients, train_cfg, init_policy, eval_set, config)
    elif config.strategy == "centralized":
        rounds = _run_centralized(server, clients, train_cfg, init_policy, eval_set, config)
    else:
        raise ConfigError([f"strategy: unknown strategy {config.strategy!r}"])

    return ExperimentReport(
        strategy=config.strategy,
        seed=config.seed,
        baseline_loss=world.baseline,
        # Every client starts from the task's base, so each one's loss is the baseline.
        baseline_client_losses=[world.baseline] * len(clients),
        rounds=rounds,
        ledger=server.ledger,
    )


def _run_standalone(
    server: ServerState,
    clients: list[ClientRuntime],
    train_cfg: TrainConfig,
    init_policy: InitPolicy,
    eval_set: EvalSet,
    config,
) -> list[RoundMetrics]:
    """Each client trains one adapter continuously; nothing is aggregated."""
    adapters = {
        c.client_id: init_adapter(
            c.local_base.dim,
            c.rank,
            replace(init_policy, seed=derive_seed(c.seed, 0, _TAG_INIT)),
        )
        for c in clients
    }
    rounds = []
    for t in range(config.rounds):
        for client in clients:
            cfg = replace(train_cfg, seed=derive_seed(client.seed, t, _TAG_TRAIN))
            adapters[client.client_id] = local_train(
                ToyModel(client.local_base, adapters[client.client_id]), client.shard, cfg
            )
        params_up, params_down = charge_round(
            server.ledger, "standalone", server.base.dim, [c.rank for c in clients], len(clients), t
        )
        per_client = [
            evaluate(
                ToyModel(c.local_base, adapters[c.client_id]),
                Batch(eval_set.xs, eval_set.ys),
                config.loss,
            )
            for c in clients
        ]
        rounds.append(
            RoundMetrics(
                round=t,
                strategy="standalone",
                global_eval_loss=float(np.mean(per_client)),
                per_client_eval_loss=per_client,
                fedit_relative_noise=None,
                params_up=params_up,
                params_down=params_down,
            )
        )
        server.round += 1
    return rounds


def _run_centralized(
    server: ServerState,
    clients: list[ClientRuntime],
    train_cfg: TrainConfig,
    init_policy: InitPolicy,
    eval_set: EvalSet,
    config,
) -> list[RoundMetrics]:
    """One adapter trained on the pooled data for rounds * epochs epochs."""
    pooled = ClientShard(
        client_id=0,
        xs=np.concatenate([c.shard.xs for c in clients]),
        ys=np.concatenate([c.shard.ys for c in clients]),
    )
    adapter = init_adapter(
        server.base.dim,
        max(c.rank for c in clients),
        replace(init_policy, seed=derive_seed(config.seed, _TAG_CENTRAL, _TAG_INIT)),
    )
    rounds = []
    for t in range(config.rounds):
        cfg = replace(train_cfg, seed=derive_seed(config.seed, _TAG_CENTRAL, t, _TAG_TRAIN))
        adapter = local_train(ToyModel(server.base, adapter), pooled, cfg)
        params_up, params_down = charge_round(
            server.ledger, "centralized", server.base.dim, [c.rank for c in clients], len(clients), t
        )
        loss = evaluate(ToyModel(server.base, adapter), Batch(eval_set.xs, eval_set.ys), config.loss)
        rounds.append(
            RoundMetrics(
                round=t,
                strategy="centralized",
                global_eval_loss=loss,
                per_client_eval_loss=[loss],
                fedit_relative_noise=None,
                params_up=params_up,
                params_down=params_down,
            )
        )
        server.round += 1
    return rounds


def compare_strategies(config, strategies: list[str]) -> ComparisonReport:
    """Run each strategy over the identical task, partition and seeds.

    The task, shards and held-out set are built once and shared; every
    strategy runs on its own fresh server and clients, so each report equals
    that of ``run_experiment`` for the same config and strategy.
    """
    if not strategies:
        raise ConfigError(["strategies: need at least one strategy to compare"])
    problems = []
    for strategy in strategies:
        if strategy not in STRATEGIES:
            problems.append(f"strategies: unknown strategy {strategy!r}")
        elif strategy == "fedit" and len(set(config.ranks)) != 1:
            problems.append("strategies: fedit requires homogeneous ranks")
    if problems:
        raise ConfigError(problems)
    configs = [replace(config, strategy=strategy) for strategy in strategies]
    for strategy_config in configs:
        strategy_config.validate()
    world = _build_world(config)
    reports = {c.strategy: _run(c, world) for c in configs}
    return ComparisonReport(seed=config.seed, strategies=tuple(strategies), reports=reports)
