"""Round protocol: training, aggregation, merge, reporting, divergence."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import florasim.simulation as simulation
from florasim import (
    BaseWeights,
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
from florasim.comm import emit_rows
from florasim.config import parse_config, with_overrides
from florasim.data import scaling_factors
from florasim.lora import InitPolicy, init_adapter
from florasim.rng import derive_seed
from florasim.simulation import _TAG_INIT, _TAG_TRAIN, ClientRuntime, ServerState, _build_world
from florasim.training import ToyModel, TrainConfig, evaluate, local_train
from test_aggregation import hand_padded

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


def fresh_world(config):
    """A new server and clients over the config's world, built as a run builds them."""
    world = _build_world(config)
    clients = [
        ClientRuntime(i, world.shards[i], config.ranks[i], derive_seed(config.seed, i))
        for i in range(config.clients)
    ]
    return ServerState(base=world.base), clients, world.held_out


def first_round_uploads(server, clients, cfg, policy):
    """Every client's round-0 upload, derived independently of run_round."""
    uploads = []
    for c in clients:
        adapter = init_adapter(server.base.dim, c.rank, policy, derive_seed(c.seed, 0, _TAG_INIT))
        train_seed = derive_seed(c.seed, 0, _TAG_TRAIN)
        uploads.append(local_train(ToyModel(server.base, adapter), c.shard, cfg, train_seed))
    return uploads


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
    _, clients, eval_set = fresh_world(config)
    server = ServerState(base=base)
    run_round(server, clients, strategy, TrainConfig(), eval_set, scaling_override=0.5)
    return server


class TestRunRound:
    def test_single_client_strategies_collapse(self):
        results = {}
        for strategy in ("flora", "fedit", "zero_padding"):
            config = with_overrides(SMALL, clients=1, ranks=(2,), strategy=strategy)
            server, clients, eval_set = fresh_world(config)
            run_round(server, clients, strategy, TrainConfig(), eval_set)
            results[strategy] = server.base.w
        for strategy in ("fedit", "zero_padding"):
            gap = np.abs(results[strategy] - results["flora"]).max()
            assert gap <= 8 * EPS * max(1.0, np.abs(results["flora"]).max())

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding"])
    def test_zero_learning_rate_leaves_weights(self, strategy):
        config = with_overrides(SMALL, strategy=strategy, lr=0.0)
        server, clients, eval_set = fresh_world(config)
        before = server.base.w.tobytes()
        run_round(server, clients, strategy, TrainConfig(learning_rate=0.0), eval_set)
        assert server.base.w.tobytes() == before

    def test_flora_round_merges_exact_weighted_sum(self):
        server, clients, eval_set = fresh_world(SMALL)
        cfg = TrainConfig()
        policy = InitPolicy()
        # Reproduce the uploads through the same deterministic derivation.
        adapters = first_round_uploads(server, clients, cfg, policy)
        total = sum(c.shard.size for c in clients)
        updates = [
            WeightedUpdate(a, c.shard.size / total) for a, c in zip(adapters, clients)
        ]
        expected = server.base.w + oracle_delta(updates)
        run_round(server, clients, "flora", cfg, eval_set, init_policy=policy)
        k = len(clients)
        assert np.abs(server.base.w - expected).max() <= 8 * k * EPS * max(1.0, np.abs(expected).max())

    def test_fedit_round_bias_decomposition(self):
        server, clients, eval_set = fresh_world(SMALL)
        cfg = TrainConfig()
        policy = InitPolicy()
        adapters = first_round_uploads(server, clients, cfg, policy)
        total = sum(c.shard.size for c in clients)
        updates = [
            WeightedUpdate(a, c.shard.size / total) for a, c in zip(adapters, clients)
        ]
        report = fedit_noise(updates)
        w_prev = server.base.w
        run_round(server, clients, "fedit", cfg, eval_set, init_policy=policy)
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

    @pytest.mark.parametrize("strategy", ["standalone", "centralized", "full_ft"])
    def test_a_reference_strategy_cannot_drive_a_round(self, monkeypatch, strategy):
        def no_training(*args):
            raise AssertionError("a client trained before the strategy was checked")

        monkeypatch.setattr(simulation, "local_train", no_training)
        server, clients, eval_set = fresh_world(SMALL)
        with pytest.raises(ConfigError) as err:
            run_round(server, clients, strategy, TrainConfig(), eval_set)
        assert err.value.problems == [f"strategy: {strategy!r} cannot drive a federated round"]
        assert server.round == 0 and server.ledger.events == []

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
        server, clients, eval_set = fresh_world(SMALL)
        with pytest.raises(DivergenceError) as err:
            run_round(server, clients, strategy, TrainConfig(), eval_set, scaling_override=0.5)
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
        server, clients, eval_set = fresh_world(config)
        before = server.round
        with pytest.raises(ConfigError):
            run_round(server, clients, "fedit", TrainConfig(), eval_set)
        assert server.round == before
        assert server.ledger.events == []

    def test_noise_metric_only_for_averaging_strategies(self):
        for strategy, expect_noise in (("flora", False), ("fedit", True), ("zero_padding", True)):
            server, clients, eval_set = fresh_world(with_overrides(SMALL, strategy=strategy))
            row = run_round(server, clients, strategy, TrainConfig(), eval_set)
            assert (row.relative_noise is not None) == expect_noise

    def test_zero_padding_noise_is_that_of_the_hand_padded_uploads(self):
        config = with_overrides(SMALL, ranks=(1, 2, 3), strategy="zero_padding")
        server, clients, eval_set = fresh_world(config)
        cfg, policy = TrainConfig(), InitPolicy()
        adapters = first_round_uploads(server, clients, cfg, policy)
        weights = scaling_factors([c.shard for c in clients])
        expected = fedit_noise(hand_padded([WeightedUpdate(a, w) for a, w in zip(adapters, weights)]))
        row = run_round(server, clients, "zero_padding", cfg, eval_set, init_policy=policy)
        assert expected.relative_noise > 0
        assert row.relative_noise == expected.relative_noise

    def test_scaling_override_replaces_data_weights(self):
        server, clients, eval_set = fresh_world(SMALL)
        cfg = TrainConfig()
        policy = InitPolicy()
        adapters = first_round_uploads(server, clients, cfg, policy)
        updates = [WeightedUpdate(a, 0.05) for a in adapters]
        expected = server.base.w + oracle_delta(updates)
        run_round(server, clients, "flora", cfg, eval_set, init_policy=policy, scaling_override=0.05)
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
            report = run_experiment(with_overrides(SMALL, strategy=strategy))
            rows = report.to_rows()
            assert rows[1:] == report.rounds
            assert [row.round for row in report.rounds] == [1, 2]
            assert report.final_global_loss == report.rounds[-1].global_loss

    def test_standalone_runs_without_aggregation(self):
        report = run_experiment(with_overrides(SMALL, strategy="standalone"))
        assert len(report.rounds) == 2
        uploads = [e for e in report.ledger.events if e.direction == "up"]
        assert uploads == []

    def test_centralized_trains_pooled_adapter(self):
        report = run_experiment(with_overrides(SMALL, strategy="centralized"))
        assert len(report.rounds) == 2
        broadcast = [e for e in report.ledger.events if e.party == "broadcast"]
        assert len(broadcast) == 1

    def test_client_sampling_hook(self):
        report = run_experiment(with_overrides(SMALL, client_fraction=0.5, clients=4, ranks=(2, 2, 2, 2)))
        per_round_uploads = {
            t: len([e for e in report.ledger.events if e.round == t and e.direction == "up"])
            for t in range(2)
        }
        assert all(count == 2 for count in per_round_uploads.values())

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding"])
    def test_upload_parties_are_the_rounds_participants(self, strategy):
        config = with_overrides(
            SMALL, strategy=strategy, client_fraction=0.3, clients=10, ranks=(2,) * 10, samples=400, rounds=3
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
        assert _build_world(config).participants == drawn
        for t, ids in enumerate(drawn):
            for direction in ("up", "down"):
                parties = [e.party for e in report.ledger.events if e.round == t and e.direction == direction]
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
        config = with_overrides(SMALL, strategy="standalone")
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
        # The round's own checks, with the loss-ratio criterion of _run switched
        # off: at these rates every round-1 loss is finite but far above it.
        monkeypatch.setattr(simulation, "DIVERGENCE_RATIO", float("inf"))
        config = with_overrides(SMALL, lr=lr, rounds=3)
        for strategy in ("flora", "fedit", "zero_padding"):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
                run_experiment(with_overrides(config, strategy=strategy))
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
        config = parse_config(preset="hetero", overrides={"strategy": strategy, "lr": str(lr)})
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
        config = with_overrides(SMALL, strategy="centralized", lr=100.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_experiment(config)
        assert str(err.value) == (
            "strategy centralized diverged in round 1: the held-out loss is not finite"
        )

    @pytest.mark.parametrize("strategy", simulation.STRATEGIES)
    def test_a_loss_above_the_ratio_times_the_baseline_is_divergence(self, monkeypatch, strategy):
        config = with_overrides(SMALL, strategy=strategy, lr=0.5, rounds=4)
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
        _, clients_a, _ = fresh_world(SMALL)
        _, clients_b, _ = fresh_world(SMALL)
        for lhs, rhs in zip(clients_a, clients_b):
            a, b = lhs.shard, rhs.shard
            assert a.rows.tobytes() == b.rows.tobytes()
            assert a.xs[a.rows].tobytes() == b.xs[b.rows].tobytes()
            assert a.ys[a.rows].tobytes() == b.ys[b.rows].tobytes()

    @pytest.mark.parametrize("loss", ["squared-error", "softmax-cross-entropy"])
    def test_centralized_pools_the_shards_rows(self, monkeypatch, loss):
        trained = []

        def recording(model, shard, cfg, seed):
            trained.append(shard)
            return local_train(model, shard, cfg, seed)

        monkeypatch.setattr(simulation, "local_train", recording)
        config = replace(SMALL, strategy="centralized", loss=loss, skew="size-skew", skew_strength=1.0)
        world = _build_world(config)
        simulation._run(config, config.strategy, world)
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
            emit_rows(run_experiment(replace(config, strategy=strategy)).to_rows(), alone, seed=config.seed)
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

    def test_rejects_empty_strategy_list(self):
        with pytest.raises(ConfigError):
            compare_strategies(SMALL, [])

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


class TestServerClientState:
    def test_server_round_advances(self):
        server, clients, eval_set = fresh_world(SMALL)
        assert server.round == 0
        run_round(server, clients, "flora", TrainConfig(), eval_set)
        assert server.round == 1

    def test_client_runtime_holds_shard_and_rank(self):
        _, clients, _ = fresh_world(SMALL)
        assert [c.rank for c in clients] == [2, 2, 2]
        assert all(isinstance(c, ClientRuntime) for c in clients)
        assert all(c.shard.size > 0 for c in clients)

    def test_server_state_defaults(self):
        server = ServerState(base=BaseWeights(np.eye(2)))
        assert server.round == 0
        assert server.ledger.events == []
