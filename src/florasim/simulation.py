"""The federated round protocol over simulated clients.

One round: every participant trains a fresh zero-update adapter on its
shard and uploads it; the server aggregates the uploads under the chosen
strategy and merges the aggregate update into the global weights with
coefficient one; the averaging strategies' noise is split from that same
aggregate. ``run_round`` is given the round's training jobs, one per
participant, and does the rest itself: it trains the jobs, weights their
uploads, aggregates, merges, splits the noise, evaluates and charges the
round. Redistribution is implicit: every client trains from the server's
current base, which is numerically identical to shipping the stacked factors
and multiplying locally, while the ledger charges the protocol-accurate
stacked sizes, so communication totals match the real wire exchange.

A comparison (``_compare``) is one plain loop over rounds. It holds every
strategy's server, and the standalone and centralized references' learners,
and advances them round by round: round t of every strategy, in the listed
order, comes before round t + 1 of any, and within a round the clients train
one after another in client order. When round t begins the loop draws its
participants and builds their jobs (client id, shard, fresh adapter, train
seed) once, and every federated strategy's ``run_round`` trains those same
jobs. A reference carries its learners' adapters (one per client, or one on
the pooled data) across rounds and trains them from the frozen initial base;
it is trained, charged and reported by the same helpers as the federated
strategies (``_train``, ``_close_round``). Every round gives the one record
the report writes for it, a ``comm.ReportRow``.

All randomness is derived per (experiment seed, client, round), and
strategies share only the read-only world and jobs, so a client's adapter
does not depend on which clients or strategies trained before it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from math import ceil

import numpy as np

from ._blas import one_thread
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
    GlobalTask,
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
from .training import ToyModel, TrainConfig, _target_matrix, evaluate, local_train

FEDERATED_STRATEGIES = ("flora", "fedit", "zero_padding")
STRATEGIES = FEDERATED_STRATEGIES + ("standalone", "centralized")

# A run whose held-out loss exceeds this multiple of the baseline diverged;
# golden, verify and benchmark runs stay within 1.0.
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
    """Global weights, the round counter, and the traffic ledger."""

    base: BaseWeights
    round: int = 0
    ledger: CommLedger = field(default_factory=CommLedger)


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
        """Each strategy's last reported loss: the baseline when it ran no round."""
        return {s: self.reports[s].to_rows()[-1].global_loss for s in self.strategies}

    def to_rows(self) -> list[ReportRow]:
        return [row for s in self.strategies for row in self.reports[s].to_rows()]


# A training job: (client id, shard, starting adapter, train seed). The
# centralized reference's pooled job has no client id.
Job = tuple[int | None, ClientShard, LoraAdapter, int]


def _train(server: ServerState, strategy: str, train_cfg: TrainConfig, jobs: list[Job]) -> list[LoraAdapter]:
    """Locally train the jobs from the server's base, in order. Raises
    DivergenceError naming every job whose local SGD diverged."""
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
    parties: list[tuple[int, int]],
    loss: float,
    noise: float | None,
) -> ReportRow:
    """Charge the round just trained to its (client id, rank) parties, advance
    the round counter and report the round, numbered as in the report (round
    t of the server is row t + 1)."""
    traffic = charge_round(server.ledger, strategy, server.base.dim, parties, server.round)
    server.round += 1
    if not np.isfinite(loss):
        raise DivergenceError(strategy, server.round, [], "the held-out loss is not finite")
    return ReportRow(server.round, strategy, loss, loss, noise, *traffic)


def run_round(
    server: ServerState,
    jobs: list[Job],
    strategy: str,
    train_cfg: TrainConfig,
    held_out: Batch,
    *,
    scaling_override: float | None = None,
) -> ReportRow:
    """Execute one federated round on the participants' training jobs, in
    order, and return its report row. The jobs' fresh adapters give the
    ranks, their client ids the parties and their shards the weights."""
    if strategy not in FEDERATED_STRATEGIES:
        raise ConfigError([f"strategy: {strategy!r} cannot drive a federated round"])
    if not jobs:
        raise ConfigError(["clients: a round needs at least one client"])
    parties = [(i, adapter.rank) for i, _, adapter, _ in jobs]
    ranks = sorted({rank for _, rank in parties})
    if strategy == "fedit" and len(ranks) != 1:
        raise ConfigError([f"strategy: fedit requires homogeneous ranks, got {ranks}"])

    with np.errstate(**_QUIET):
        adapters = _train(server, strategy, train_cfg, jobs)
        if scaling_override is not None:
            weights = [scaling_override] * len(jobs)
        else:
            weights = scaling_factors([shard for _, shard, _, _ in jobs])
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
                i for (i, _), u in zip(parties, updates) if not np.isfinite(adapter_delta(u.adapter)).all()
            ]
            raise DivergenceError(strategy, server.round + 1, diverged) from exc
        loss = evaluate(server.base, held_out, train_cfg.loss)
    return _close_round(server, strategy, parties, loss, noise)


@dataclass(frozen=True)
class _World:
    """The data of one experiment: initial base, shards, held-out batch,
    baseline and each client's seed root, ``derive_seed(seed, i)``.

    Nothing here changes during a run (the arrays are read-only), so one
    world serves every strategy and scaling factor of a command. A
    comparison gives each run its own ServerState and builds from the world
    each round's jobs (``_round_jobs``) and the references' learners
    (``_learners``).
    """

    base: BaseWeights
    shards: list[ClientShard]
    held_out: Batch
    baseline: float
    roots: list[int]


def _task_bytes(m: int, n: int, samples: int) -> int:
    """Bytes of a task's float64 arrays: the base, and the sample pool's
    inputs and targets."""
    return 8 * (m * n + samples * (m + n))


def _task_too_big(m: int, n: int, samples: int) -> str:
    """The problem a task reports when its arrays cannot be allocated."""
    size = _task_bytes(m, n, samples)
    return (
        f"m, n, samples: the task needs m*n + samples*(m+n) = {size // 8} float64 values "
        f"({size} bytes, {size / 2**30:.1f} GiB), more than could be allocated"
    )


def _build_world(config) -> _World:
    """Task, holdout, shards and baseline loss from a validated config.

    Targets are one (count, m) float matrix for either loss. A softmax
    world's class is each generated target row's argmax, one-hot encoded
    here once for the whole pool, so its shards and held-out batch hold
    read-only one-hot rows. A one-hot row's argmax is its class, so the
    label-skew partition is the one the generated targets give."""
    dim = Dim(config.m, config.n)
    try:
        task = gen_task(dim, config.samples, config.noise_std, config.seed, config.teacher_rank)
    except MemoryError as exc:
        raise ConfigError([_task_too_big(config.m, config.n, config.samples)]) from exc
    if config.loss == "softmax-cross-entropy":
        teacher, base, xs, labels = task.teacher, task.base, task.xs, argmax_labels(task.ys)
        # Drop the generated targets first, so no moment holds two target pools.
        del task
        task = GlobalTask(teacher, base, xs, _target_matrix(labels, config.m, config.loss))
    train_task, held = holdout_split(task)
    spec = SkewSpec(config.skew, config.skew_strength, derive_seed(config.seed, _TAG_PARTITION))
    shards = partition(train_task, config.clients, spec)
    with np.errstate(**_QUIET):
        baseline = evaluate(task.base, held, config.loss)
    if not np.isfinite(baseline):
        raise ConfigError([f"noise_std: {config.noise_std:g} makes the baseline held-out loss non-finite"])
    roots = [derive_seed(config.seed, i) for i in range(config.clients)]
    return _World(task.base, shards, held, baseline, roots)


def _participants(config, t: int) -> list[int]:
    """Round t's sorted client ids: every client, or under partial
    participation a uniform draw seeded from (seed, _TAG_SAMPLING, t) of
    ceil(client_fraction * clients) of them, counted on the fraction's
    decimal form, so 0.07 of 100 clients is 7."""
    if config.client_fraction == 1.0:
        return list(range(config.clients))
    # Imported only here: fractions imports decimal, which would add some
    # 2 ms and 0.4 MB to the start-up of every run.
    from fractions import Fraction

    count = ceil(Fraction(str(config.client_fraction)) * config.clients)
    gen = np.random.default_rng(derive_seed(config.seed, _TAG_SAMPLING, t))
    return sorted(gen.choice(config.clients, size=count, replace=False).tolist())


def _round_jobs(config, world: _World, t: int) -> list[Job]:
    """Round t's training job of each participant, in client order: its
    shard, a fresh adapter drawn from (root, t, _TAG_INIT) and the train seed
    (root, t, _TAG_TRAIN)."""
    policy = InitPolicy(kind=config.init_kind, std_or_bound=config.init_std)
    return [
        (
            i,
            world.shards[i],
            init_adapter(world.base.dim, config.ranks[i], policy, derive_seed(world.roots[i], t, _TAG_INIT)),
            derive_seed(world.roots[i], t, _TAG_TRAIN),
        )
        for i in _participants(config, t)
    ]


# A reference's learner: (job id, shard, carried adapter, train-seed prefix);
# round t trains it with seed derive_seed(*prefix, t, _TAG_TRAIN).
Learner = tuple[int | None, ClientShard, LoraAdapter, tuple[int, ...]]


def _learners(config, world: _World, strategy: str) -> list[Learner]:
    """A reference's learners before round 0: standalone one per client,
    drawn from its round-0 init seed (root, 0, _TAG_INIT), centralized one
    of the largest rank on the pooled data, whose job has no client id."""
    policy = InitPolicy(kind=config.init_kind, std_or_bound=config.init_std)
    if strategy == "standalone":
        return [
            (i, shard, init_adapter(world.base.dim, rank, policy, derive_seed(root, 0, _TAG_INIT)), (root,))
            for i, (shard, rank, root) in enumerate(zip(world.shards, config.ranks, world.roots))
        ]
    # Every shard indexes the one training pool; the pooled shard takes their
    # rows in client order.
    pool = world.shards[0]
    pooled = ClientShard(0, pool.xs, pool.ys, np.concatenate([s.rows for s in world.shards]))
    seed = derive_seed(config.seed, _TAG_CENTRAL, _TAG_INIT)
    adapter = init_adapter(world.base.dim, max(config.ranks), policy, seed)
    return [(None, pooled, adapter, (config.seed, _TAG_CENTRAL))]


def _compare(config, strategies: list[str], world: _World) -> ComparisonReport:
    """Run every strategy round by round, each on its own fresh server.

    When round t begins, its participants are drawn and their jobs built
    once, and every federated strategy trains the same jobs; no jobs are
    built for a round in which no federated strategy runs. A reference trains
    its learners from the frozen initial base and carries the trained
    adapters into the next round. A round diverges when it raises
    DivergenceError or its held-out loss is above DIVERGENCE_RATIO times the
    baseline; that strategy stops and the others run on, and after the last
    round the error of the first listed strategy that diverged is raised.
    """
    cfg = TrainConfig(config.lr, config.batch_size, config.epochs, config.loss)
    # A report shares its server's ledger and collects its rows as they come.
    reports = {s: ExperimentReport(s, config.seed, world.baseline, [], CommLedger()) for s in strategies}
    servers = {s: ServerState(world.base, ledger=reports[s].ledger) for s in strategies}
    learners = {s: _learners(config, world, s) for s in strategies if s not in FEDERATED_STRATEGIES}
    everyone = list(enumerate(config.ranks))
    errors: dict[str, DivergenceError] = {}
    for t in range(config.rounds):
        running = [s for s in strategies if s not in errors]
        jobs = _round_jobs(config, world, t) if set(running) & set(FEDERATED_STRATEGIES) else None
        for s in running:
            server = servers[s]
            try:
                if s in FEDERATED_STRATEGIES:
                    row = run_round(server, jobs, s, cfg, world.held_out, scaling_override=config.scaling_override)
                else:
                    own = [(i, shard, a, derive_seed(*pre, t, _TAG_TRAIN)) for i, shard, a, pre in learners[s]]
                    with np.errstate(**_QUIET):
                        adapters = _train(server, s, cfg, own)
                        losses = [evaluate(ToyModel(server.base, a), world.held_out, config.loss) for a in adapters]
                    learners[s] = [(i, shard, a, pre) for (i, shard, _, pre), a in zip(learners[s], adapters)]
                    row = _close_round(server, s, everyone, float(np.mean(losses)), None)
                if row.global_loss > DIVERGENCE_RATIO * world.baseline:
                    ratio = row.global_loss / world.baseline if world.baseline > 0 else float("inf")
                    raise DivergenceError(s, row.round, [], f"the held-out loss is {ratio:.3g} times the baseline")
            except DivergenceError as exc:
                errors[s] = exc
            else:
                reports[s].rounds.append(row)
    if errors:
        raise next(errors[s] for s in strategies if s in errors)
    return ComparisonReport(config.seed, tuple(strategies), reports)


def run_comparisons(
    config, strategies: list[str], factors: Iterable[float | None]
) -> list[ComparisonReport]:
    """Run each strategy over the identical task, partition and seeds, once
    per client-weight factor; each factor (None, or a constant in (0, 1])
    is that comparison's scaling_override.

    The config is validated and the world (task, shards, held-out set)
    built once, since the world reads no scaling field; every
    (factor, strategy) run gets its own fresh server. Each comparison
    advances its strategies round by round, with the clients in client
    order within a round. BLAS runs on one thread throughout, which
    saves CPU time; the reports do not depend on the thread count either way.
    """
    replace(config, strategies=tuple(strategies)).validate()
    with one_thread():
        world = _build_world(config)
        return [_compare(replace(config, scaling_override=f), strategies, world) for f in factors]


def compare_strategies(config, strategies: list[str]) -> ComparisonReport:
    """Run each strategy over the identical task, partition and seeds at the
    config's own scaling_override."""
    return run_comparisons(config, strategies, [config.scaling_override])[0]


def _run_problems(config) -> list[str]:
    """Why ``run`` cannot train config.strategies: it trains exactly one."""
    count = len(config.strategies)
    return [] if count == 1 else [f"strategies: run trains one strategy, got {count}"]


def run_experiment(config) -> ExperimentReport:
    """Run all rounds under the config's one strategy: the comparison of that strategy."""
    if problems := _run_problems(config):
        raise ConfigError(problems)
    (strategy,) = config.strategies
    return compare_strategies(config, [strategy]).reports[strategy]
