"""The federated round protocol over simulated clients.

One round: every client draws a fresh zero-update adapter, fine-tunes it on
its shard, and uploads it; the server aggregates the uploads under the chosen
strategy and merges the aggregate update into the global weights with
coefficient one; the averaging strategies' noise is split from that same
aggregate. ``run_round`` does all of it itself: it trains the participants,
weights their uploads, aggregates, merges, splits the noise, evaluates and
charges the round. Redistribution is implicit: every client trains from the
server's current base, which is numerically identical to shipping the
stacked factors and multiplying locally, while the ledger charges the
protocol-accurate stacked sizes, so communication totals match the real wire
exchange.

The standalone and centralized references run the same round: they train
their carried adapters (one per client, or one on the pooled data) from the
frozen initial base, and are charged, evaluated and reported by the same
code as the federated strategies. Every round returns the one record the
report writes for it, a ``comm.ReportRow``.

Clients train one after another in client order. All randomness is derived
per (experiment seed, client, round), so a client's adapter does not depend
on which clients trained before it. Under partial participation each round's
clients are drawn once per experiment, with its data, so every federated
strategy of a comparison trains the same clients in the same round.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import (
    WeightedUpdate,
    aggregate_fedit,
    aggregate_flora,
    aggregate_zero_padding,
    fedit_noise,
)
from .comm import CommLedger, ReportRow, charge_round
from .data import (
    Batch,
    ClientShard,
    SkewSpec,
    argmax_labels,
    gen_task,
    holdout_split,
    partition,
    scaling_factors,
)
from .errors import ConfigError, DivergenceError
from .lora import BaseWeights, Dim, InitPolicy, LoraAdapter, adapter_delta, init_adapter
from .rng import derive_seed
from .training import ToyModel, TrainConfig, evaluate, local_train

FEDERATED_STRATEGIES = ("flora", "fedit", "zero_padding")
STRATEGIES = FEDERATED_STRATEGIES + ("standalone", "centralized")

# A run whose held-out loss exceeds this multiple of the baseline diverged.
DIVERGENCE_RATIO = 1e3

# Stream tags keeping the per-purpose seed derivations disjoint.
_TAG_INIT = 0
_TAG_TRAIN = 1
_TAG_PARTITION = 2
_TAG_CENTRAL = 3
_TAG_SAMPLING = 4

# A round's numpy floating-point warnings are silenced: divergence raises
# DivergenceError, which names the strategy, round and clients.
_QUIET = {"over": "ignore", "invalid": "ignore"}


@dataclass
class ServerState:
    """Global weights, the round counter, and the transmission ledger."""

    base: BaseWeights
    round: int = 0
    ledger: CommLedger = field(default_factory=CommLedger)


@dataclass
class ClientRuntime:
    """One simulated client: shard, adapter rank and seed root.

    A client holds no weights of its own; it trains from the server's base.
    """

    client_id: int
    shard: ClientShard
    rank: int
    seed: int


@dataclass(frozen=True)
class ExperimentReport:
    """Baseline loss plus the report row of every round of one strategy run.

    Every strategy's global loss is the mean of its clients' held-out losses:
    federated participants all hold the merged weights, standalone reports
    the mean over its clients' adapters and centralized its one adapter's
    loss. So each row's mean_client_loss is its global_loss.
    """

    strategy: str
    seed: int
    baseline_loss: float
    rounds: list[ReportRow]
    ledger: CommLedger

    @property
    def final_global_loss(self) -> float:
        return self.rounds[-1].global_loss if self.rounds else self.baseline_loss

    def to_rows(self) -> list[ReportRow]:
        """Row 0 is the pre-training baseline; row t is after round t."""
        baseline = ReportRow(0, self.strategy, self.baseline_loss, self.baseline_loss, None, 0, 0)
        return [baseline, *self.rounds]


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


def _train(
    server: ServerState,
    strategy: str,
    train_cfg: TrainConfig,
    jobs: Iterable[tuple[int | None, ClientShard, LoraAdapter, int]],
) -> list[LoraAdapter]:
    """Locally train (client id, shard, starting adapter, seed) jobs from the
    server's base, in order; the centralized reference's pooled job has no
    client id. Raises DivergenceError naming every job whose local SGD diverged.
    """
    trained, diverged = [], []
    for client_id, shard, adapter, seed in jobs:
        try:
            trained.append(local_train(ToyModel(server.base, adapter), shard, train_cfg, seed))
        except FloatingPointError:
            diverged.append(client_id)
    if diverged == [None]:
        what = "local SGD of the pooled adapter diverged"
        raise DivergenceError(strategy, server.round + 1, [], what)
    if diverged:
        raise DivergenceError(strategy, server.round + 1, diverged)
    return trained


def _close_round(
    server: ServerState,
    strategy: str,
    loss: float,
    noise: float | None,
    traffic: tuple[int, int],
) -> ReportRow:
    """Advance the round counter and report the round just trained and charged,
    numbered as in the report (round t of the server is row t + 1)."""
    server.round += 1
    if not np.isfinite(loss):
        raise DivergenceError(strategy, server.round, [], "the held-out loss is not finite")
    return ReportRow(server.round, strategy, loss, loss, noise, *traffic)


def run_round(
    server: ServerState,
    clients: list[ClientRuntime],
    strategy: str,
    train_cfg: TrainConfig,
    held_out: Batch,
    *,
    init_policy: InitPolicy = InitPolicy(),
    scaling_override: float | None = None,
) -> ReportRow:
    """Execute one federated round and return its report row."""
    if strategy not in FEDERATED_STRATEGIES:
        raise ConfigError([f"strategy: {strategy!r} cannot drive a federated round"])
    ranks = [c.rank for c in clients]
    if strategy == "fedit" and len(set(ranks)) != 1:
        raise ConfigError(
            [f"strategy: fedit requires homogeneous ranks, got {sorted(set(ranks))}"]
        )
    if not clients:
        raise ConfigError(["clients: a round needs at least one client"])

    t, dim = server.round, server.base.dim
    # Generated lazily, so each fresh adapter is made just before its client trains.
    jobs = (
        (
            c.client_id,
            c.shard,
            init_adapter(dim, c.rank, init_policy, derive_seed(c.seed, t, _TAG_INIT)),
            derive_seed(c.seed, t, _TAG_TRAIN),
        )
        for c in clients
    )
    with np.errstate(**_QUIET):
        adapters = _train(server, strategy, train_cfg, jobs)
        if scaling_override is not None:
            weights = [scaling_override] * len(clients)
        else:
            weights = scaling_factors([c.shard for c in clients])
        updates = [WeightedUpdate(a, w) for a, w in zip(adapters, weights)]

        try:
            if strategy == "flora":
                aggregate = aggregate_flora(updates)
            elif strategy == "fedit":
                aggregate = aggregate_fedit(updates)
            else:
                aggregate = aggregate_zero_padding(updates)
            delta = adapter_delta(aggregate)
            server.base = BaseWeights(server.base.w + delta)
            noise = None if strategy == "flora" else fedit_noise(updates, delta).relative_noise
        except ValueError as exc:
            # After the checks above the aggregate, the merge and the split
            # fail only on non-finite numbers (a sum of finite uploads can
            # overflow); the per-client updates are formed again only on
            # this path.
            diverged = [
                c.client_id
                for c, u in zip(clients, updates)
                if not np.isfinite(adapter_delta(u.adapter)).all()
            ]
            raise DivergenceError(strategy, t + 1, diverged) from exc
        loss = evaluate(server.base, held_out, train_cfg.loss)
    traffic = charge_round(server.ledger, strategy, dim, [(c.client_id, c.rank) for c in clients], t)
    return _close_round(server, strategy, loss, noise, traffic)


@dataclass(frozen=True)
class _World:
    """The data of one experiment: initial base, shards, held-out batch,
    baseline, and each round's sorted participating client ids.

    Nothing here changes during a run (the arrays are read-only), so one
    world serves every strategy and scaling factor of a command, and every
    federated strategy sees the same participants; each run draws its own
    ServerState and ClientRuntime objects from it.
    """

    base: BaseWeights
    shards: list[ClientShard]
    held_out: Batch
    baseline: float
    participants: list[list[int]]


def _build_world(config) -> _World:
    """Task, holdout, shards, baseline loss and participation schedule from a
    validated config. Under partial participation round t's clients are a
    uniform draw seeded from (seed, _TAG_SAMPLING, t)."""
    dim = Dim(config.m, config.n)
    try:
        task = gen_task(dim, config.samples, config.noise_std, config.seed, config.teacher_rank)
    except MemoryError as exc:
        # The base, and the sample pool's inputs and targets, are float64.
        values = config.m * config.n + config.samples * (config.m + config.n)
        raise ConfigError(
            [
                f"m, n, samples: the task needs m*n + samples*(m+n) = {values} float64 values "
                f"({8 * values} bytes, {8 * values / 2**30:.1f} GiB), more than could be allocated"
            ]
        ) from exc
    train_task, held = holdout_split(task)
    spec = SkewSpec(config.skew, config.skew_strength, derive_seed(config.seed, _TAG_PARTITION))
    shards = partition(train_task, config.clients, spec)
    if config.loss == "softmax-cross-entropy":
        labels = argmax_labels(train_task.ys)
        shards = [ClientShard(s.client_id, s.xs, labels, s.rows) for s in shards]
        held = Batch(held.inputs, argmax_labels(held.targets))
    with np.errstate(**_QUIET):
        baseline = evaluate(task.base, held, config.loss)
    if not np.isfinite(baseline):
        raise ConfigError([f"noise_std: {config.noise_std:g} makes the baseline held-out loss non-finite"])
    participants = [list(range(config.clients))] * config.rounds
    if config.client_fraction < 1.0:
        count = max(1, int(np.ceil(config.client_fraction * config.clients)))
        seeds = (derive_seed(config.seed, _TAG_SAMPLING, t) for t in range(config.rounds))
        participants = [
            sorted(np.random.default_rng(s).choice(config.clients, size=count, replace=False).tolist())
            for s in seeds
        ]
    return _World(task.base, shards, held, baseline, participants)


def _run(config, strategy: str, world: _World) -> ExperimentReport:
    """All rounds of one strategy on a new server and clients drawn from the world."""
    server = ServerState(base=world.base)
    clients = [
        ClientRuntime(i, world.shards[i], config.ranks[i], derive_seed(config.seed, i))
        for i in range(config.clients)
    ]
    train_cfg = TrainConfig(
        learning_rate=config.lr,
        batch_size=config.batch_size,
        local_epochs=config.epochs,
        loss=config.loss,
    )
    init_policy = InitPolicy(kind=config.init_kind, std_or_bound=config.init_std)
    dim = world.base.dim
    if strategy not in FEDERATED_STRATEGIES:
        # The references carry their adapters across rounds: standalone one
        # per client, centralized one of the largest rank trained on the
        # pooled data, whose job has no client id. Each learner is (job id,
        # shard, rank, init seed, train-seed prefix).
        if strategy == "standalone":
            learners = [
                (c.client_id, c.shard, c.rank, derive_seed(c.seed, 0, _TAG_INIT), (c.seed,))
                for c in clients
            ]
        else:
            # Every shard indexes the one training pool; the pooled shard
            # takes their rows in client order.
            pool = world.shards[0]
            rows = np.concatenate([s.rows for s in world.shards])
            seed = derive_seed(config.seed, _TAG_CENTRAL, _TAG_INIT)
            prefix = (config.seed, _TAG_CENTRAL)
            learners = [(None, ClientShard(0, pool.xs, pool.ys, rows), max(config.ranks), seed, prefix)]
        adapters = [init_adapter(dim, rank, init_policy, seed) for _, _, rank, seed, _ in learners]
        everyone = [(c.client_id, c.rank) for c in clients]

    rounds: list[ReportRow] = []
    for t in range(config.rounds):
        if strategy in FEDERATED_STRATEGIES:
            row = run_round(
                server,
                [clients[i] for i in world.participants[t]],
                strategy,
                train_cfg,
                world.held_out,
                init_policy=init_policy,
                scaling_override=config.scaling_override,
            )
        else:
            jobs = [
                (job, shard, adapter, derive_seed(*prefix, t, _TAG_TRAIN))
                for (job, shard, _, _, prefix), adapter in zip(learners, adapters)
            ]
            with np.errstate(**_QUIET):
                adapters = _train(server, strategy, train_cfg, jobs)
                losses = [
                    evaluate(ToyModel(server.base, a), world.held_out, config.loss) for a in adapters
                ]
            traffic = charge_round(server.ledger, strategy, dim, everyone, t)
            row = _close_round(server, strategy, float(np.mean(losses)), None, traffic)
        if row.global_loss > DIVERGENCE_RATIO * world.baseline:
            ratio = row.global_loss / world.baseline if world.baseline > 0 else float("inf")
            what = f"the held-out loss is {ratio:.3g} times the baseline"
            raise DivergenceError(strategy, row.round, [], what)
        rounds.append(row)

    return ExperimentReport(
        strategy=strategy,
        seed=config.seed,
        baseline_loss=world.baseline,
        rounds=rounds,
        ledger=server.ledger,
    )


def run_comparisons(
    config, strategies: list[str], factors: Iterable[float | None]
) -> list[ComparisonReport]:
    """Run each strategy over the identical task, partition and seeds, once
    per client-weight factor; each factor (None, or a constant in (0, 1])
    is that comparison's scaling_override.

    The config is validated and the world (task, shards, held-out set,
    participants) built once, since the world reads no scaling field; every
    (factor, strategy) run gets its own fresh server and clients.
    """
    if not strategies:
        raise ConfigError(["strategies: need at least one strategy to compare"])
    replace(config, strategies=tuple(strategies)).validate()
    world = _build_world(config)
    swept = [replace(config, scaling_override=f) for f in factors]
    return [ComparisonReport(c.seed, tuple(strategies), {s: _run(c, s, world) for s in strategies}) for c in swept]


def compare_strategies(config, strategies: list[str]) -> ComparisonReport:
    """Run each strategy over the identical task, partition and seeds at the
    config's own scaling_override."""
    return run_comparisons(config, strategies, [config.scaling_override])[0]


def run_experiment(config) -> ExperimentReport:
    """Run all rounds under config.strategy: the comparison of one strategy."""
    return compare_strategies(config, [config.strategy]).reports[config.strategy]
