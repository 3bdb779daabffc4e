"""Round protocol: training, aggregation, merge, reporting, divergence."""

from __future__ import annotations

import gc
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import florasim.simulation as simulation
import florasim.training as training
from florasim import (
    BaseWeights,
    CommLedger,
    ConfigError,
    DivergenceError,
    ExperimentConfig,
    LoraAdapter,
    WeightedUpdate,
    compare_strategies,
    fedit_noise,
    oracle_delta,
    run_experiment,
    run_round,
)
from florasim.comm import ReportRow, emit_rows
from florasim.config import parse_config
from florasim.data import scaling_factors
from florasim.lora import InitPolicy, init_adapter
from florasim.rng import derive_seed
from florasim.simulation import (
    _TAG_INIT,
    _TAG_TRAIN,
    ComparisonReport,
    ServerState,
    _build_world,
    _round_jobs,
)
from florasim.training import ToyModel, TrainConfig, evaluate, local_train
from test_aggregation import hand_padded
from test_comm import events_of, record_adds

EPS = float(np.finfo(np.float64).eps)

SMALL = ExperimentConfig(
    m=8,
    n=8,
    clients=3,
    ranks=(2, 2, 2),
    rounds=2,
    samples=120,
    teacher_rank=2,
    seed=5,
)


def with_overrides(config, **kwargs):
    """The config with kwargs replaced, validated."""
    updated = replace(config, **kwargs)
    updated.validate()
    return updated


def fresh_world(config):
    """A new server over the config's world, with round 0's jobs built as a
    comparison builds them."""
    world = _build_world(config)
    return ServerState(base=world.base), _round_jobs(config, world, 0), world.held_out


def first_round_uploads(server, jobs, cfg):
    """Every job's upload, trained here independently of run_round."""
    return [local_train(ToyModel(server.base, adapter), shard, cfg, seed) for _, shard, adapter, seed in jobs]


def shards_of(jobs):
    """The jobs' shards, in job order."""
    return [shard for _, shard, _, _ in jobs]


def recording_train(monkeypatch, failing=None, raised=None):
    """Record the (strategy, server round) of every _train call, the one call
    each round of each strategy makes; a strategy named in failing raises
    DivergenceError in that round instead of training, stored in raised."""
    calls, failing = [], failing or {}
    train = simulation._train

    def recording(server, strategy, *args):
        calls.append((strategy, server.round))
        if failing.get(strategy) == server.round:
            raised[strategy] = DivergenceError(strategy, server.round + 1, [], "injected")
            raise raised[strategy]
        return train(server, strategy, *args)

    monkeypatch.setattr(simulation, "_train", recording)
    return calls


# Two clients whose rank-1 uploads touch disjoint rows and columns.
TWO_CLIENT_UPLOADS = [
    LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]]),
    LoraAdapter(a=[[0.0, 4.0]], b=[[0.0], [1.0]]),
]


def merge_fixed_uploads(monkeypatch, strategy, base, uploads):
    """One round on a 2x2 world from the given base, in which client i
    uploads uploads[i] at weight 0.5; returns the server after the round."""
    monkeypatch.setattr(simulation, "local_train", lambda model, shard, cfg, seed: uploads[shard.client_id])
    config = ExperimentConfig(
        m=2, n=2, clients=len(uploads), ranks=tuple(u.rank for u in uploads), samples=40, teacher_rank=1
    )
    _, jobs, eval_set = fresh_world(config)
    server = ServerState(base=base)
    run_round(server, jobs, strategy, TrainConfig(), eval_set, scaling_override=0.5)
    return server


class TestRunRound:
    def test_single_client_strategies_collapse(self):
        results = {}
        for strategy in ("flora", "fedit", "zero_padding"):
            config = with_overrides(SMALL, clients=1, ranks=(2,), strategies=(strategy,))
            server, jobs, eval_set = fresh_world(config)
            run_round(server, jobs, strategy, TrainConfig(), eval_set)
            results[strategy] = server.base.w
        for strategy in ("fedit", "zero_padding"):
            gap = np.abs(results[strategy] - results["flora"]).max()
            assert gap <= 8 * EPS * max(1.0, np.abs(results["flora"]).max())

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding"])
    def test_zero_learning_rate_leaves_weights(self, strategy):
        config = with_overrides(SMALL, strategies=(strategy,), lr=0.0)
        server, jobs, eval_set = fresh_world(config)
        before = server.base.w.tobytes()
        run_round(server, jobs, strategy, TrainConfig(learning_rate=0.0), eval_set)
        assert server.base.w.tobytes() == before

    def test_flora_round_merges_exact_weighted_sum(self):
        server, jobs, eval_set = fresh_world(SMALL)
        cfg = TrainConfig()
        # Reproduce the uploads by training the same jobs.
        adapters = first_round_uploads(server, jobs, cfg)
        total = sum(shard.size for shard in shards_of(jobs))
        updates = [WeightedUpdate(a, shard.size / total) for a, shard in zip(adapters, shards_of(jobs))]
        expected = server.base.w + oracle_delta(updates)
        run_round(server, jobs, "flora", cfg, eval_set)
        k = len(jobs)
        assert np.abs(server.base.w - expected).max() <= 8 * k * EPS * max(1.0, np.abs(expected).max())

    def test_fedit_round_bias_decomposition(self):
        server, jobs, eval_set = fresh_world(SMALL)
        cfg = TrainConfig()
        adapters = first_round_uploads(server, jobs, cfg)
        total = sum(shard.size for shard in shards_of(jobs))
        updates = [WeightedUpdate(a, shard.size / total) for a, shard in zip(adapters, shards_of(jobs))]
        report = fedit_noise(updates)
        w_prev = server.base.w
        run_round(server, jobs, "fedit", cfg, eval_set)
        expected = w_prev + report.signal + report.cross
        assert np.abs(server.base.w - expected).max() <= 16 * EPS * max(1.0, np.abs(expected).max())

    def test_two_client_fixture_merge(self, monkeypatch):
        base = BaseWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        server = merge_fixed_uploads(monkeypatch, "flora", base, TWO_CLIENT_UPLOADS)
        assert server.base.w.tolist() == [[2.0, 2.0], [3.0, 6.0]]

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding"])
    def test_merge_leaves_the_given_base_untouched(self, monkeypatch, strategy):
        base = BaseWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        before = base.w.tobytes()
        server = merge_fixed_uploads(monkeypatch, strategy, base, TWO_CLIENT_UPLOADS)
        assert server.base is not base
        assert base.w.tobytes() == before
        assert not server.base.w.flags.writeable

    def test_averaging_hand_merges(self, monkeypatch):
        # Same two clients as the flora fixture: averaging mixes their factors.
        for strategy in ("fedit", "zero_padding"):
            base = BaseWeights(np.zeros((2, 2)))
            server = merge_fixed_uploads(monkeypatch, strategy, base, TWO_CLIENT_UPLOADS)
            assert server.base.w.tolist() == [[0.5, 1.0], [0.5, 1.0]]

    @pytest.mark.parametrize("strategy", ["standalone", "centralized"])
    def test_a_reference_strategy_cannot_drive_a_round(self, monkeypatch, strategy):
        def no_training(*args):
            raise AssertionError("a client trained before the strategy was checked")

        monkeypatch.setattr(simulation, "local_train", no_training)
        server, jobs, eval_set = fresh_world(SMALL)
        with pytest.raises(ConfigError) as err:
            run_round(server, jobs, strategy, TrainConfig(), eval_set)
        assert err.value.problems == [f"strategy: {strategy!r} cannot drive a federated round"]
        assert server.round == 0 and server.ledger == CommLedger()

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding"])
    def test_a_round_without_clients_is_refused_before_the_rank_check(self, strategy):
        server, _, eval_set = fresh_world(SMALL)
        with pytest.raises(ConfigError) as err:
            run_round(server, [], strategy, TrainConfig(), eval_set)
        assert err.value.problems == ["clients: a round needs at least one client"]
        assert server.round == 0 and server.ledger == CommLedger()

    @pytest.mark.parametrize("strategy", ["fedit", "zero_padding"])
    def test_client_updates_that_overflow_under_a_finite_average_name_the_clients(
        self, monkeypatch, strategy
    ):
        # Clients 1 and 2 upload finite factors of +-1e200 that cancel in the
        # average, so the merged update is finite, but each one's b @ a overflows.
        m, n = SMALL.m, SMALL.n
        uploads = [
            LoraAdapter(a=np.full((2, n), 1e-3), b=np.full((m, 2), 1e-3)),
            LoraAdapter(a=np.full((2, n), 1e200), b=np.full((m, 2), 1e200)),
            LoraAdapter(a=np.full((2, n), -1e200), b=np.full((m, 2), -1e200)),
        ]
        monkeypatch.setattr(simulation, "local_train", lambda model, shard, cfg, seed: uploads[shard.client_id])
        server, jobs, eval_set = fresh_world(SMALL)
        with pytest.raises(DivergenceError) as err:
            run_round(server, jobs, strategy, TrainConfig(), eval_set, scaling_override=0.5)
        assert str(err.value) == (
            f"strategy {strategy} diverged in round 1: non-finite update b @ a from client(s) 1, 2"
        )
        assert isinstance(err.value.__cause__, ValueError)

    def test_empty_round_rejected(self):
        server, _, eval_set = fresh_world(SMALL)
        with pytest.raises(ConfigError):
            run_round(server, [], "flora", TrainConfig(), eval_set)

    def test_fedit_rejects_mixed_ranks_before_training(self):
        config = with_overrides(SMALL, ranks=(1, 2, 3))
        server, jobs, eval_set = fresh_world(config)
        before = server.round
        with pytest.raises(ConfigError):
            run_round(server, jobs, "fedit", TrainConfig(), eval_set)
        assert server.round == before
        assert server.ledger == CommLedger()

    def test_noise_metric_only_for_averaging_strategies(self):
        for strategy, expect_noise in (("flora", False), ("fedit", True), ("zero_padding", True)):
            server, jobs, eval_set = fresh_world(with_overrides(SMALL, strategies=(strategy,)))
            row = run_round(server, jobs, strategy, TrainConfig(), eval_set)
            assert (row.relative_noise is not None) == expect_noise

    def test_zero_padding_noise_is_that_of_the_hand_padded_uploads(self):
        config = with_overrides(SMALL, ranks=(1, 2, 3), strategies=("zero_padding",))
        server, jobs, eval_set = fresh_world(config)
        cfg = TrainConfig()
        adapters = first_round_uploads(server, jobs, cfg)
        weights = scaling_factors(shards_of(jobs))
        expected = fedit_noise(hand_padded([WeightedUpdate(a, w) for a, w in zip(adapters, weights)]))
        row = run_round(server, jobs, "zero_padding", cfg, eval_set)
        assert expected.relative_noise > 0
        assert row.relative_noise == expected.relative_noise

    def test_scaling_override_replaces_data_weights(self):
        server, jobs, eval_set = fresh_world(SMALL)
        cfg = TrainConfig()
        adapters = first_round_uploads(server, jobs, cfg)
        updates = [WeightedUpdate(a, 0.05) for a in adapters]
        expected = server.base.w + oracle_delta(updates)
        run_round(server, jobs, "flora", cfg, eval_set, scaling_override=0.05)
        assert np.abs(server.base.w - expected).max() <= 24 * EPS * max(1.0, np.abs(expected).max())


class TestRunExperiment:
    def test_report_is_bit_deterministic(self, tmp_path):
        first = run_experiment(SMALL)
        second = run_experiment(SMALL)
        assert first.to_rows() == second.to_rows()
        paths = []
        for i, report in enumerate((first, second)):
            path = tmp_path / f"r{i}.csv"
            emit_rows(report.to_rows(), path, seed=report.seed)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_zero_rounds_yields_baseline_row_only(self):
        report = run_experiment(with_overrides(SMALL, rounds=0))
        assert report.rounds == []
        rows = report.to_rows()
        assert len(rows) == 1
        assert rows[0].round == 0
        assert rows[0].params_up_total == 0
        assert rows[0].global_loss == report.baseline_loss

    def test_rows_count_round_numbers_and_ledger(self):
        report = run_experiment(SMALL)
        rows = report.to_rows()
        assert [row.round for row in rows] == [0, 1, 2]
        assert rows[1].params_down_total > rows[2].params_down_total  # broadcast in round 0
        assert all(np.isfinite(row.global_loss) for row in rows)

    def test_rounds_are_the_report_rows_after_the_baseline(self):
        for strategy in ("flora", "standalone", "centralized"):
            report = run_experiment(with_overrides(SMALL, strategies=(strategy,)))
            rows = report.to_rows()
            assert rows[1:] == report.rounds
            assert [row.round for row in report.rounds] == [1, 2]
            comparison = ComparisonReport(report.seed, (strategy,), {strategy: report})
            assert comparison.final_losses() == {strategy: report.rounds[-1].global_loss}

    def test_the_final_loss_of_a_run_of_no_rounds_is_the_baseline(self):
        comparison = compare_strategies(with_overrides(SMALL, rounds=0), ["flora", "standalone"])
        baseline = comparison.reports["flora"].baseline_loss
        assert comparison.final_losses() == {"flora": baseline, "standalone": baseline}

    def test_standalone_runs_without_aggregation(self, monkeypatch):
        added = record_adds(monkeypatch)
        report = run_experiment(with_overrides(SMALL, strategies=("standalone",)))
        assert len(report.rounds) == 2
        uploads = [e for e in events_of(added, report.ledger) if e.direction == "up"]
        assert uploads == []

    def test_centralized_trains_pooled_adapter(self, monkeypatch):
        added = record_adds(monkeypatch)
        report = run_experiment(with_overrides(SMALL, strategies=("centralized",)))
        assert len(report.rounds) == 2
        broadcast = [e for e in events_of(added, report.ledger) if e.party == "broadcast"]
        assert len(broadcast) == 1

    def test_client_sampling_hook(self, monkeypatch):
        added = record_adds(monkeypatch)
        report = run_experiment(with_overrides(SMALL, client_fraction=0.5, clients=4, ranks=(2, 2, 2, 2)))
        events = events_of(added, report.ledger)
        per_round_uploads = {
            t: len([e for e in events if e.round == t and e.direction == "up"]) for t in range(2)
        }
        assert all(count == 2 for count in per_round_uploads.values())

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding"])
    def test_upload_parties_are_the_rounds_participants(self, monkeypatch, strategy):
        added = record_adds(monkeypatch)
        config = with_overrides(
            SMALL, strategies=(strategy,), client_fraction=0.3, clients=10, ranks=(2,) * 10, samples=400, rounds=3
        )
        report = run_experiment(config)
        # Each round's draw, made here independently of the simulation.
        drawn = [
            sorted(
                np.random.default_rng(derive_seed(config.seed, 4, t)).choice(10, size=3, replace=False).tolist()
            )
            for t in range(config.rounds)
        ]
        assert len({tuple(ids) for ids in drawn}) > 1
        assert [simulation._participants(config, t) for t in range(config.rounds)] == drawn
        events = events_of(added, report.ledger)
        for t, ids in enumerate(drawn):
            for direction in ("up", "down"):
                parties = [e.party for e in events if e.round == t and e.direction == direction]
                parties = [p for p in parties if p != "broadcast"]
                assert parties == ids

    def test_baseline_is_the_base_only_evaluation(self):
        config = with_overrides(SMALL, client_fraction=0.5, clients=4, ranks=(2, 2, 2, 2))
        report = run_experiment(config)
        # The base-only evaluation is the adapter path with a zero adapter, bit for bit.
        server, _, held_out = fresh_world(config)
        zero = LoraAdapter(a=np.zeros((1, config.n)), b=np.zeros((config.m, 1)))
        assert evaluate(ToyModel(server.base, zero), held_out) == report.baseline_loss

    def test_mean_client_loss_is_global_loss_on_every_row(self):
        config = with_overrides(SMALL, client_fraction=0.7, clients=10, ranks=(2,) * 10, samples=400, rounds=4)
        strategies = ["flora", "fedit", "zero_padding", "centralized", "standalone"]
        comparison = compare_strategies(config, strategies)
        for row in comparison.to_rows():
            assert row.mean_client_loss == row.global_loss

    def test_standalone_loss_is_the_mean_over_its_clients(self):
        config = with_overrides(SMALL, strategies=("standalone",))
        report = run_experiment(config)
        world = _build_world(config)
        roots = [derive_seed(config.seed, i) for i in range(config.clients)]
        policy = InitPolicy(kind=config.init_kind, std_or_bound=config.init_std)
        adapters = [
            init_adapter(world.base.dim, rank, policy, derive_seed(root, 0, _TAG_INIT))
            for root, rank in zip(roots, config.ranks)
        ]
        cfg = TrainConfig(config.lr, config.batch_size, config.epochs, config.loss)
        for t, row in enumerate(report.rounds):
            adapters = [
                local_train(ToyModel(world.base, a), shard, cfg, derive_seed(root, t, _TAG_TRAIN))
                for a, shard, root in zip(adapters, world.shards, roots)
            ]
            losses = [evaluate(ToyModel(world.base, a), world.held_out) for a in adapters]
            assert row.global_loss == float(np.mean(losses))

    @pytest.mark.parametrize(
        "lr, where",
        [
            (3e4, "eval"),  # finite merged weights whose held-out loss overflows
            (1e8, "merge"),  # finite factors whose updates b @ a overflow
            (1e30, "train"),  # local SGD itself overflows
        ],
    )
    def test_divergence_names_strategy_round_and_clients(self, monkeypatch, lr, where):
        # The round's own checks, with the loss-ratio criterion of _compare switched
        # off: at these rates every round-1 loss is finite but far above it.
        monkeypatch.setattr(simulation, "DIVERGENCE_RATIO", float("inf"))
        config = with_overrides(SMALL, lr=lr, rounds=3)
        for strategy in ("flora", "fedit", "zero_padding"):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
                run_experiment(with_overrides(config, strategies=(strategy,)))
            exc = err.value
            assert exc.strategy == strategy and 1 <= exc.round <= 3
            assert str(exc).startswith(f"strategy {strategy} diverged in round {exc.round}: ")
            if where == "eval":
                assert exc.clients == [] and str(exc).endswith("the held-out loss is not finite")
            else:
                assert exc.clients and set(exc.clients) <= {0, 1, 2}
                assert str(exc).endswith(
                    "non-finite update b @ a from client(s) " + ", ".join(map(str, exc.clients))
                )
            assert isinstance(exc.__cause__, ValueError) == (where == "merge")

    @pytest.mark.parametrize(
        "strategy, lr, expected",
        [
            ("standalone", 3e4, "the held-out loss is not finite"),
            ("standalone", 1e8, "clients"),  # local SGD of every client overflows
            ("centralized", 3e4, "local SGD of the pooled adapter diverged"),
            ("centralized", 1e8, "local SGD of the pooled adapter diverged"),
        ],
    )
    def test_reference_divergence_names_strategy_and_round(self, strategy, lr, expected):
        config = parse_config(preset="hetero", overrides={"strategies": strategy, "lr": str(lr)})
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_experiment(config)
        exc = err.value
        assert (exc.strategy, exc.round) == (strategy, 1)
        assert str(exc).startswith(f"strategy {strategy} diverged in round 1: ")
        if expected == "clients":
            assert exc.clients and set(exc.clients) <= set(range(10))
            assert str(exc).endswith(", ".join(map(str, exc.clients)))
        else:
            assert exc.clients == [] and str(exc).endswith(expected)

    def test_centralized_non_finite_held_out_loss(self):
        # At this rate the pooled adapter stays finite but its held-out loss overflows.
        config = with_overrides(SMALL, strategies=("centralized",), lr=100.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_experiment(config)
        assert str(err.value) == (
            "strategy centralized diverged in round 1: the held-out loss is not finite"
        )

    @pytest.mark.parametrize("strategy", simulation.STRATEGIES)
    def test_a_loss_above_the_ratio_times_the_baseline_is_divergence(self, monkeypatch, strategy):
        config = with_overrides(SMALL, strategies=(strategy,), lr=0.5, rounds=4)
        report = run_experiment(config)
        ratios = [row.global_loss / report.baseline_loss for row in report.rounds]
        assert max(ratios) < simulation.DIVERGENCE_RATIO
        monkeypatch.setattr(simulation, "DIVERGENCE_RATIO", max(ratios) * (1 + 1e-9))
        assert run_experiment(config).rounds == report.rounds
        threshold = max(ratios) * (1 - 1e-9)
        monkeypatch.setattr(simulation, "DIVERGENCE_RATIO", threshold)
        with pytest.raises(DivergenceError) as err:
            run_experiment(config)
        first = next(t for t, ratio in enumerate(ratios, start=1) if ratio > threshold)
        ratio = ratios[first - 1]
        assert (err.value.strategy, err.value.round, err.value.clients) == (strategy, first, [])
        assert str(err.value) == (
            f"strategy {strategy} diverged in round {first}: "
            f"the held-out loss is {ratio:.3g} times the baseline"
        )

    def test_divergence_of_the_merge_alone_names_no_client(self):
        assert str(DivergenceError("fedit", 3, [])) == (
            "strategy fedit diverged in round 3: the merged weights are not finite"
        )

    def test_invalid_config_rejected_with_fields(self):
        bad = ExperimentConfig(clients=3, ranks=(1, 2), rounds=-1)
        with pytest.raises(ConfigError) as err:
            run_experiment(bad)
        message = str(err.value)
        assert "ranks" in message and "rounds" in message


class TestCompare:
    def test_identical_shard_bytes_across_strategies(self):
        _, jobs_a, _ = fresh_world(SMALL)
        _, jobs_b, _ = fresh_world(SMALL)
        for a, b in zip(shards_of(jobs_a), shards_of(jobs_b)):
            assert a.rows.tobytes() == b.rows.tobytes()
            assert a.xs[a.rows].tobytes() == b.xs[b.rows].tobytes()
            assert a.ys[a.rows].tobytes() == b.ys[b.rows].tobytes()

    @pytest.mark.parametrize("loss", ["squared-error", "softmax-cross-entropy"])
    def test_centralized_pools_the_shards_rows(self, monkeypatch, loss):
        trained = []

        def recording(model, shard, cfg, seed):
            trained.append(shard)
            return local_train(model, shard, cfg, seed)

        worlds = []

        def spying(config):
            worlds.append(_build_world(config))
            return worlds[-1]

        monkeypatch.setattr(simulation, "local_train", recording)
        monkeypatch.setattr(simulation, "_build_world", spying)
        config = replace(SMALL, loss=loss, skew="size-skew", skew_strength=1.0)
        compare_strategies(config, ["centralized"])
        [world] = worlds
        assert len(trained) == config.rounds
        pooled = trained[0]
        for shard in world.shards:
            assert np.shares_memory(pooled.xs, shard.xs) and np.shares_memory(pooled.ys, shard.ys)
        assert np.array_equal(pooled.rows, np.concatenate([s.rows for s in world.shards]))

    def test_homogeneous_flora_beats_fedit_smoke(self):
        config = ExperimentConfig(
            ranks=(16,) * 10,
            rounds=5,
            skew="feature-shift",
            skew_strength=1.0,
            seed=0,
        )
        comparison = compare_strategies(config, ["flora", "fedit"])
        finals = comparison.final_losses()
        assert finals["flora"] < finals["fedit"]

    def test_capability_matrix(self):
        hetero = with_overrides(SMALL, ranks=(1, 2, 3))
        comparison = compare_strategies(hetero, ["flora", "zero_padding"])
        assert set(comparison.reports) == {"flora", "zero_padding"}
        with pytest.raises(ConfigError):
            compare_strategies(hetero, ["flora", "fedit"])

    def test_rows_are_aligned_per_strategy(self):
        comparison = compare_strategies(SMALL, ["flora", "fedit"])
        rows = comparison.to_rows()
        flora_rounds = [r.round for r in rows if r.strategy == "flora"]
        fedit_rounds = [r.round for r in rows if r.strategy == "fedit"]
        assert flora_rounds == fedit_rounds == [0, 1, 2]

    @pytest.mark.parametrize("loss", ["squared-error", "softmax-cross-entropy"])
    def test_each_strategy_matches_its_own_run(self, tmp_path, loss):
        strategies = ["flora", "fedit", "zero_padding", "standalone", "centralized"]
        config = with_overrides(SMALL, clients=4, ranks=(2,) * 4, rounds=3, loss=loss, client_fraction=0.5)
        comparison = compare_strategies(config, strategies)
        for strategy in strategies:
            shared = tmp_path / f"{strategy}.shared.csv"
            alone = tmp_path / f"{strategy}.alone.csv"
            emit_rows(comparison.reports[strategy].to_rows(), shared, seed=config.seed)
            emit_rows(run_experiment(replace(config, strategies=(strategy,))).to_rows(), alone, seed=config.seed)
            assert shared.read_bytes() == alone.read_bytes()

    def test_builds_task_and_partition_once(self, monkeypatch):
        calls = {"gen_task": 0, "partition": 0}

        def counted(name):
            original = getattr(simulation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(simulation, name, counted(name))
        config = with_overrides(SMALL, clients=3, ranks=(2,) * 3)
        compare_strategies(config, ["flora", "fedit", "zero_padding", "standalone", "centralized"])
        assert calls == {"gen_task": 1, "partition": 1}

    def test_draws_each_rounds_participants_once(self, monkeypatch):
        draws = []

        def counted(*parts):
            if len(parts) == 3 and parts[1] == simulation._TAG_SAMPLING:
                draws.append(parts)
            return derive_seed(*parts)

        monkeypatch.setattr(simulation, "derive_seed", counted)
        config = with_overrides(SMALL, clients=4, ranks=(2,) * 4, rounds=3, client_fraction=0.5)
        compare_strategies(config, ["flora", "fedit", "zero_padding", "standalone", "centralized"])
        assert draws == [(config.seed, simulation._TAG_SAMPLING, t) for t in range(3)]

    @pytest.mark.parametrize(
        "fraction, clients, count",
        [
            # The float product of each of these is just above the count.
            (0.07, 100, 7),
            (0.28, 25, 7),
            (0.55, 100, 55),
            # The fractions the goldens, tests and workloads use.
            (0.3, 10, 3),
            (0.5, 3, 2),
            (0.5, 4, 2),
            (0.7, 10, 7),
            # Every client, and at least one.
            (0.95, 10, 10),
            (1e-9, 10, 1),
        ],
    )
    def test_a_round_draws_the_decimal_fraction_of_the_clients_rounded_up(self, fraction, clients, count):
        config = with_overrides(
            SMALL, clients=clients, ranks=(2,) * clients, samples=10 * clients, client_fraction=fraction
        )
        drawn = simulation._participants(config, 0)
        assert len(drawn) == count and drawn == sorted(set(drawn))

    def test_draws_each_participants_fresh_adapter_once(self, monkeypatch):
        draws, starts = [], {}
        init, train = simulation.init_adapter, simulation.local_train

        def counted_init(*args):
            draws.append(args)
            return init(*args)

        def recording_train(model, shard, cfg, seed):
            starts.setdefault((shard.client_id, seed), []).append(model.adapter)
            return train(model, shard, cfg, seed)

        monkeypatch.setattr(simulation, "init_adapter", counted_init)
        monkeypatch.setattr(simulation, "local_train", recording_train)
        config = with_overrides(SMALL, clients=4, ranks=(2,) * 4, rounds=3, client_fraction=0.5)
        compare_strategies(config, list(simulation.FEDERATED_STRATEGIES))
        participants = [simulation._participants(config, t) for t in range(config.rounds)]
        assert len(draws) == sum(len(ids) for ids in participants) == 6
        # One key per (client, round): each train seed is its own.
        assert len(starts) == 6
        for adapters in starts.values():
            assert len(adapters) == 3 and all(a is adapters[0] for a in adapters)
        for strategy, initial in (("standalone", config.clients), ("centralized", 1)):
            draws.clear()
            compare_strategies(config, [strategy])
            assert len(draws) == initial

    def test_advances_every_strategy_round_by_round(self, monkeypatch):
        calls = recording_train(monkeypatch)
        strategies = ["flora", "fedit", "standalone"]
        compare_strategies(with_overrides(SMALL, rounds=3), strategies)
        assert calls == [(s, t) for t in range(3) for s in strategies]

    def test_a_strategy_reports_the_same_rows_alone_or_among_others(self, monkeypatch):
        added = record_adds(monkeypatch)
        config = with_overrides(SMALL, rounds=3, client_fraction=0.5)
        together = compare_strategies(config, list(simulation.STRATEGIES))
        for s in simulation.STRATEGIES:
            alone = run_experiment(with_overrides(config, strategies=(s,)))
            assert together.reports[s].rounds == alone.rounds
            assert together.reports[s].ledger == alone.ledger
            assert events_of(added, together.reports[s].ledger) == events_of(added, alone.ledger)

    @pytest.mark.parametrize(
        "failing, reported",
        [
            ({"standalone": 0}, "standalone"),
            # The later-listed strategy diverges in an earlier round, yet the
            # first listed one that diverged is reported.
            ({"flora": 1, "standalone": 0}, "flora"),
        ],
    )
    def test_a_diverged_strategy_stops_and_the_others_run_on(self, monkeypatch, failing, reported):
        raised = {}
        calls = recording_train(monkeypatch, failing, raised)
        strategies, config = ["flora", "fedit", "standalone"], with_overrides(SMALL, rounds=3)
        with pytest.raises(DivergenceError) as err:
            compare_strategies(config, strategies)
        assert err.value is raised[reported]
        for s in strategies:
            # A diverged strategy is never advanced past its failing round.
            last = failing.get(s, config.rounds - 1)
            assert [t for name, t in calls if name == s] == list(range(last + 1))

    def test_rejects_empty_strategy_list(self):
        with pytest.raises(ConfigError) as err:
            compare_strategies(SMALL, [])
        assert err.value.problems == ["strategies: need at least one strategy"]

    def test_rejects_a_repeated_strategy(self):
        with pytest.raises(ConfigError) as err:
            compare_strategies(SMALL, ["flora", "fedit", "flora"])
        assert err.value.problems == ["strategies: 'flora' is listed more than once"]

    def test_reports_every_strategy_problem_at_once(self):
        mixed = with_overrides(SMALL, ranks=(1, 2, 3))
        with pytest.raises(ConfigError) as err:
            compare_strategies(mixed, ["warp", "fedit"])
        problems = err.value.problems
        assert len(problems) == 2
        assert any("unknown strategy 'warp'" in p for p in problems)
        assert any("fedit requires homogeneous ranks" in p for p in problems)


class TestRelationsBetweenRuns:
    """Runs that must agree bit for bit, whatever the numbers they report."""

    def test_one_client_reports_alike_under_every_federated_strategy(self):
        config = with_overrides(SMALL, clients=1, ranks=(2,), rounds=3)
        comparison = compare_strategies(config, list(simulation.FEDERATED_STRATEGIES))

        def columns(strategy):
            rows = comparison.reports[strategy].to_rows()
            return [(row.global_loss, row.params_up_total, row.params_down_total) for row in rows]

        for strategy in ("fedit", "zero_padding"):
            assert columns(strategy) == columns("flora")
            assert [row.relative_noise for row in comparison.reports[strategy].rounds] == [0.0] * config.rounds

    def test_a_fraction_that_draws_every_client_writes_the_report_of_all_clients(self, tmp_path):
        config = with_overrides(SMALL, clients=10, ranks=(2,) * 10, samples=400, rounds=3)
        written = {}
        for fraction in (1.0, 0.95):
            partial = with_overrides(config, client_fraction=fraction)
            comparison = compare_strategies(partial, list(simulation.STRATEGIES))
            path = tmp_path / f"{fraction}.csv"
            emit_rows(comparison.to_rows(), path, seed=config.seed)
            written[fraction] = path.read_bytes()
        assert written[0.95] == written[1.0]

    @pytest.mark.parametrize(
        "overrides, strategies",
        [
            (dict(clients=2, ranks=(4, 2), samples=5000, batch_size=7),
             ["flora", "zero_padding", "standalone", "centralized"]),
            (dict(clients=3, ranks=(3, 3, 3), loss="softmax-cross-entropy",
                  skew="feature-shift+size-skew", skew_strength=1.0),
             ["flora", "fedit", "centralized"]),
            # Shards of 1201 and 1200 rows: chunks of 1200 leave a one-row last chunk.
            (dict(m=40, n=24, clients=2, ranks=(5, 1), samples=3001, batch_size=1, teacher_rank=3),
             ["flora", "zero_padding"]),
        ],
    )
    def test_the_training_chunk_size_moves_no_report_byte(self, monkeypatch, tmp_path, overrides, strategies):
        """Local SGD hoists the base product over chunks of whole batches of
        about BLOCK_ROWS rows; where the chunks end changes no bit."""
        config = with_overrides(ExperimentConfig(), **overrides)
        written = set()
        for rows in (96, 256, 1000, 1200, 5000):
            monkeypatch.setattr(training, "BLOCK_ROWS", rows)
            path = tmp_path / f"{rows}.csv"
            emit_rows(compare_strategies(config, strategies).to_rows(), path, seed=config.seed)
            written.add(path.read_bytes())
        assert len(written) == 1

    def test_no_strategy_moves_the_loss_at_learning_rate_zero(self):
        config = with_overrides(SMALL, lr=0.0, rounds=3)
        comparison = compare_strategies(config, list(simulation.STRATEGIES))
        for report in comparison.reports.values():
            assert [row.global_loss for row in report.to_rows()] == [report.baseline_loss] * (config.rounds + 1)


class TestServerClientState:
    def test_server_round_advances(self):
        server, jobs, eval_set = fresh_world(SMALL)
        assert server.round == 0
        run_round(server, jobs, "flora", TrainConfig(), eval_set)
        assert server.round == 1

    def test_round_jobs_hold_each_participants_shard_rank_and_table_seeds(self):
        _, jobs, _ = fresh_world(SMALL)
        assert [adapter.rank for _, _, adapter, _ in jobs] == [2, 2, 2]
        assert all(isinstance(adapter, LoraAdapter) for _, _, adapter, _ in jobs)
        assert all(shard.size > 0 for shard in shards_of(jobs))
        config = with_overrides(SMALL, clients=4, ranks=(1, 2, 3, 4), rounds=3, client_fraction=0.5)
        world = _build_world(config)
        policy = InitPolicy(kind=config.init_kind, std_or_bound=config.init_std)
        for t in range(config.rounds):
            jobs = _round_jobs(config, world, t)
            assert [i for i, _, _, _ in jobs] == simulation._participants(config, t)
            for i, shard, adapter, seed in jobs:
                # README's derivation table: root (seed, i), fresh adapter
                # (root, t, 0), local training (root, t, 1).
                root = derive_seed(config.seed, i)
                fresh = init_adapter(world.base.dim, config.ranks[i], policy, derive_seed(root, t, 0))
                assert shard is world.shards[i] and adapter.rank == config.ranks[i]
                assert adapter.a.tobytes() == fresh.a.tobytes() and adapter.b.tobytes() == fresh.b.tobytes()
                assert seed == derive_seed(root, t, 1)

    def test_server_state_defaults(self):
        server = ServerState(base=BaseWeights(np.eye(2)))
        assert server.round == 0
        assert server.ledger == CommLedger()


class TestRunMemory:
    def test_a_longer_run_keeps_little_more_than_its_extra_report_rows(self):
        # What a comparison of 10N rounds keeps beyond one of N rounds is its
        # extra report rows and the ledgers' totals of the extra rounds: at
        # most a quarter more than those rows take on their own.
        config = with_overrides(
            SMALL, m=4, n=4, clients=4, ranks=(1,) * 4, teacher_rank=1, samples=80, client_fraction=0.5
        )
        strategies, rounds = ["flora", "zero_padding"], 30

        def kept(count):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                comparison = compare_strategies(replace(config, rounds=count), strategies)
                # CPython's type attribute cache keeps alive each name string
                # a lookup was made with. The package freezes arrays with
                # setflags, which builds no such string, so the clear frees
                # nothing today; it stays so that the bound counts what the
                # run keeps, not what the cache holds. A lookup by a fresh
                # string per call (numpy's flags.writeable setter makes one)
                # would otherwise count as some 30 KB kept.
                gc.collect()
                sys._clear_type_cache()
                return comparison, tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        def copy(row):
            # New objects throughout, as a round builds its row: one float
            # shared by both loss columns.
            loss = row.global_loss * 1.0
            noise = None if row.relative_noise is None else row.relative_noise * 1.0
            numbers = [int(str(value)) for value in (row.round, row.params_up_total, row.params_down_total)]
            return ReportRow(numbers[0], row.strategy, loss, loss, noise, *numbers[1:])

        compare_strategies(replace(config, rounds=2), strategies)  # one-time allocations, untraced
        _, short = kept(rounds)
        comparison, long = kept(10 * rounds)
        extra = [row for report in comparison.reports.values() for row in report.rounds if row.round > rounds]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = [copy(row) for row in extra]
            rows_size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rows == extra and len(rows) == 2 * 9 * rounds
        assert long - short <= 1.25 * rows_size, (long - short) / rows_size
