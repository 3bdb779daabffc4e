"""Round protocol: training, aggregation, merge, redistribution, reporting."""

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
    adapter_delta,
    apply_updates,
    compare_strategies,
    fedit_noise,
    oracle_delta,
    run_experiment,
    run_round,
)
from florasim.comm import emit_rows
from florasim.config import with_overrides
from florasim.simulation import (
    ClientRuntime,
    ServerState,
    _build_world,
    _fresh_state,
    _train_clients,
)
from florasim.lora import InitPolicy
from florasim.training import Batch, ToyModel, TrainConfig, evaluate

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
    world = _build_world(config)
    server, clients = _fresh_state(config, world)
    return server, clients, world.eval_set


class TestRunRound:
    def test_single_client_strategies_collapse(self):
        results = {}
        for strategy in ("flora", "fedit", "zero_padding"):
            config = with_overrides(SMALL, clients=1, ranks=(2,), strategy=strategy)
            server, clients, eval_set = fresh_world(config)
            run_round(server, clients, strategy, TrainConfig(seed=0), eval_set)
            results[strategy] = server.base.w
        for strategy in ("fedit", "zero_padding"):
            gap = np.abs(results[strategy] - results["flora"]).max()
            assert gap <= 8 * EPS * max(1.0, np.abs(results["flora"]).max())

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding"])
    def test_zero_learning_rate_leaves_weights(self, strategy):
        config = with_overrides(SMALL, strategy=strategy, lr=0.0)
        server, clients, eval_set = fresh_world(config)
        before = server.base.w.tobytes()
        run_round(server, clients, strategy, TrainConfig(learning_rate=0.0, seed=0), eval_set)
        assert server.base.w.tobytes() == before

    def test_flora_round_merges_exact_weighted_sum(self):
        server, clients, eval_set = fresh_world(SMALL)
        cfg = TrainConfig(seed=0)
        policy = InitPolicy()
        # Reproduce the uploads through the same deterministic derivation.
        adapters = _train_clients(clients, cfg, policy, round_index=0)
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
        cfg = TrainConfig(seed=0)
        policy = InitPolicy()
        adapters = _train_clients(clients, cfg, policy, round_index=0)
        total = sum(c.shard.size for c in clients)
        updates = [
            WeightedUpdate(a, c.shard.size / total) for a, c in zip(adapters, clients)
        ]
        report = fedit_noise(updates)
        w_prev = server.base.w
        run_round(server, clients, "fedit", cfg, eval_set, init_policy=policy)
        expected = w_prev + report.signal + report.cross
        assert np.abs(server.base.w - expected).max() <= 16 * EPS * max(1.0, np.abs(expected).max())

    def test_two_client_fixture_merge(self):
        base = BaseWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        updates = [
            WeightedUpdate(LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]]), 0.5),
            WeightedUpdate(LoraAdapter(a=[[0.0, 4.0]], b=[[0.0], [1.0]]), 0.5),
        ]
        merged, aggregate = apply_updates(base, updates, "flora")
        assert merged.w.tolist() == [[2.0, 2.0], [3.0, 6.0]]
        assert aggregate.rank == 2

    def test_redistribution_synchronizes_clients(self):
        server, clients, eval_set = fresh_world(SMALL)
        run_round(server, clients, "flora", TrainConfig(seed=0), eval_set)
        for client in clients:
            assert client.local_base.w.tobytes() == server.base.w.tobytes()

    def test_empty_round_rejected(self):
        server, _, eval_set = fresh_world(SMALL)
        with pytest.raises(ConfigError):
            run_round(server, [], "flora", TrainConfig(seed=0), eval_set)

    def test_fedit_rejects_mixed_ranks_before_training(self):
        config = with_overrides(SMALL, ranks=(1, 2, 3))
        server, clients, eval_set = fresh_world(config)
        before = server.round
        with pytest.raises(ConfigError):
            run_round(server, clients, "fedit", TrainConfig(seed=0), eval_set)
        assert server.round == before
        assert server.ledger.events == []

    def test_noise_metric_only_for_averaging_strategies(self):
        for strategy, expect_noise in (("flora", False), ("fedit", True), ("zero_padding", True)):
            server, clients, eval_set = fresh_world(with_overrides(SMALL, strategy=strategy))
            metrics = run_round(server, clients, strategy, TrainConfig(seed=0), eval_set)
            assert (metrics.fedit_relative_noise is not None) == expect_noise

    def test_scaling_override_replaces_data_weights(self):
        server, clients, eval_set = fresh_world(SMALL)
        cfg = TrainConfig(seed=0)
        policy = InitPolicy()
        adapters = _train_clients(clients, cfg, policy, round_index=0)
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

    def test_federated_losses_match_round_metrics(self):
        report = run_experiment(SMALL)
        assert report.final_global_loss == report.rounds[-1].global_eval_loss

    def test_standalone_runs_without_aggregation(self):
        report = run_experiment(with_overrides(SMALL, strategy="standalone"))
        assert len(report.rounds) == 2
        assert all(len(m.per_client_eval_loss) == 3 for m in report.rounds)
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

    def test_federated_client_losses_equal_global_loss(self):
        config = with_overrides(SMALL, client_fraction=0.5, clients=4, ranks=(2, 2, 2, 2))
        report = run_experiment(config)
        assert report.baseline_client_losses == [report.baseline_loss] * 4
        for metrics in report.rounds:
            assert metrics.per_client_eval_loss == [metrics.global_eval_loss] * 2
        # The base-only evaluation is the adapter path with a zero adapter, bit for bit.
        server, _, eval_set = fresh_world(config)
        zero = LoraAdapter(a=np.zeros((1, config.n)), b=np.zeros((config.m, 1)))
        batch = Batch(eval_set.xs, eval_set.ys)
        assert evaluate(ToyModel(server.base, zero), batch) == report.baseline_loss

    def test_mean_client_loss_is_global_loss_on_federated_rows(self):
        # np.mean of ten or seven copies of a loss need not return that loss.
        config = with_overrides(SMALL, client_fraction=0.7, clients=10, ranks=(2,) * 10, samples=400, rounds=4)
        strategies = ["flora", "fedit", "zero_padding", "centralized", "standalone"]
        comparison = compare_strategies(config, strategies)
        for strategy in strategies:
            report = comparison.reports[strategy]
            rows = report.to_rows()
            assert rows[0].mean_client_loss == rows[0].global_loss
            for row, metrics in zip(rows[1:], report.rounds):
                if strategy == "standalone":
                    assert row.mean_client_loss == float(np.mean(metrics.per_client_eval_loss))
                else:
                    assert row.mean_client_loss == row.global_loss

    @pytest.mark.parametrize(
        "lr, where",
        [
            (3e4, "eval"),  # finite merged weights whose held-out loss overflows
            (1e8, "merge"),  # finite factors whose updates b @ a overflow
            (1e30, "train"),  # local SGD itself overflows
        ],
    )
    def test_divergence_names_strategy_round_and_clients(self, lr, where):
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
            assert lhs.shard.xs.tobytes() == rhs.shard.xs.tobytes()
            assert lhs.shard.ys.tobytes() == rhs.shard.ys.tobytes()

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

    def test_rejects_empty_strategy_list(self):
        with pytest.raises(ConfigError):
            compare_strategies(SMALL, [])


class TestServerClientState:
    def test_server_round_advances(self):
        server, clients, eval_set = fresh_world(SMALL)
        assert server.round == 0
        run_round(server, clients, "flora", TrainConfig(seed=0), eval_set)
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
