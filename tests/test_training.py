"""Forward pass, hand-derived gradients vs finite differences, local SGD."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from florasim import (
    BaseWeights,
    Batch,
    ClientShard,
    Dim,
    InitPolicy,
    LoraAdapter,
    ToyModel,
    TrainConfig,
    adapter_delta,
    forward,
    init_adapter,
    local_train,
    loss_and_grads,
)
from florasim.rng import derive_seed
from florasim.training import LOSS_KINDS, evaluate

EPS = float(np.finfo(np.float64).eps)


def random_model(gen, m, n, r):
    return ToyModel(
        BaseWeights(gen.normal(size=(m, n))),
        LoraAdapter(a=gen.normal(size=(r, n)), b=gen.normal(size=(m, r))),
    )


def finite_difference_grads(model, batch, loss_kind, h=1e-6):
    """Central differences of the batch loss in every adapter coordinate."""

    def loss_at(a, b):
        probe = ToyModel(model.base, LoraAdapter(a=a, b=b))
        value, _, _ = loss_and_grads(probe, batch, loss_kind)
        return value

    a0, b0 = np.array(model.adapter.a), np.array(model.adapter.b)
    d_a, d_b = np.zeros_like(a0), np.zeros_like(b0)
    for idx in np.ndindex(a0.shape):
        bumped = np.array(a0)
        bumped[idx] = a0[idx] + h
        up = loss_at(bumped, b0)
        bumped[idx] = a0[idx] - h
        d_a[idx] = (up - loss_at(bumped, b0)) / (2 * h)
    for idx in np.ndindex(b0.shape):
        bumped = np.array(b0)
        bumped[idx] = b0[idx] + h
        up = loss_at(a0, bumped)
        bumped[idx] = b0[idx] - h
        d_b[idx] = (up - loss_at(a0, bumped)) / (2 * h)
    return d_a, d_b


def assert_grads_close(analytic, numeric):
    gap = np.abs(analytic - numeric)
    assert (gap <= 1e-8 + 1e-5 * np.abs(numeric)).all()


class TestForward:
    def test_zero_base_fresh_adapter(self):
        model = ToyModel(BaseWeights(np.zeros((2, 2))), init_adapter(Dim(2, 2), 1, InitPolicy(seed=4)))
        assert np.array_equal(forward(model, np.array([1.0, -2.0])), np.zeros(2))

    def test_hand_value(self):
        model = ToyModel(BaseWeights(np.eye(2)), LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]]))
        assert forward(model, np.array([1.0, 0.0])).tolist() == [3.0, 0.0]

    def test_matches_dense_path(self):
        gen = np.random.default_rng(1234)
        for _ in range(50):
            m, n, r = int(gen.integers(2, 9)), int(gen.integers(2, 9)), int(gen.integers(1, 4))
            model = random_model(gen, m, n, r)
            x = gen.normal(size=n)
            dense = (model.base.w + adapter_delta(model.adapter)) @ x
            scale = max(1.0, float(np.abs(dense).max()))
            assert np.abs(forward(model, x) - dense).max() <= 4 * EPS * scale

    def test_rejects_wrong_length(self):
        model = random_model(np.random.default_rng(0), 3, 4, 2)
        with pytest.raises(ValueError):
            forward(model, np.zeros(5))


class TestLossAndGrads:
    def test_hand_fixture_against_finite_differences(self):
        model = ToyModel(BaseWeights(np.zeros((2, 2))), LoraAdapter(a=[[1.0, 0.0]], b=[[1.0], [0.0]]))
        batch = Batch(inputs=[[1.0, 0.0]], targets=[[0.0, 0.0]])
        loss, d_a, d_b = loss_and_grads(model, batch, "squared-error")
        assert loss == pytest.approx(0.5)
        assert d_b.tolist() == [[1.0], [0.0]]
        assert d_a.tolist() == [[1.0, 0.0]]
        fd_a, fd_b = finite_difference_grads(model, batch, "squared-error")
        assert_grads_close(d_a, fd_a)
        assert_grads_close(d_b, fd_b)

    def test_zero_residual_means_zero_grads(self):
        model = ToyModel(BaseWeights(np.eye(2)), LoraAdapter(a=[[1.0, 0.0]], b=[[1.0], [0.0]]))
        x = np.array([1.0, 2.0])
        batch = Batch(inputs=[x], targets=[forward(model, x)])
        _, d_a, d_b = loss_and_grads(model, batch, "squared-error")
        assert np.array_equal(d_a, np.zeros((1, 2)))
        assert np.array_equal(d_b, np.zeros((2, 1)))

    def test_fresh_adapter_blocks_a_gradient_exactly(self):
        gen = np.random.default_rng(31)
        model = ToyModel(BaseWeights(gen.normal(size=(3, 4))), init_adapter(Dim(3, 4), 2, InitPolicy(seed=6)))
        batch = Batch(inputs=gen.normal(size=(5, 4)), targets=gen.normal(size=(5, 3)))
        _, d_a, d_b = loss_and_grads(model, batch, "squared-error")
        assert np.array_equal(d_a, np.zeros((2, 4)))
        assert np.abs(d_b).max() > 0

    @pytest.mark.parametrize("loss_kind", ["squared-error", "softmax-cross-entropy"])
    def test_matches_finite_differences_on_random_instances(self, loss_kind):
        gen = np.random.default_rng(32)
        for _ in range(25):
            m = int(gen.integers(2, 9))
            n = int(gen.integers(2, 9))
            r = int(gen.integers(1, 4))
            model = random_model(gen, m, n, r)
            if loss_kind == "squared-error":
                targets = gen.normal(size=(4, m))
            else:
                targets = gen.integers(0, m, size=4)
            batch = Batch(inputs=gen.normal(size=(4, n)), targets=targets)
            _, d_a, d_b = loss_and_grads(model, batch, loss_kind)
            fd_a, fd_b = finite_difference_grads(model, batch, loss_kind)
            assert_grads_close(d_a, fd_a)
            assert_grads_close(d_b, fd_b)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            Batch(inputs=np.zeros((0, 2)), targets=np.zeros((0, 2)))


class TestOneStepIdentity:
    def test_product_moves_by_first_order_term_plus_lr_squared_gap(self):
        gen = np.random.default_rng(33)
        for _ in range(20):
            m, n, r = int(gen.integers(2, 7)), int(gen.integers(2, 7)), int(gen.integers(1, 4))
            model = random_model(gen, m, n, r)
            batch = Batch(inputs=gen.normal(size=(3, n)), targets=gen.normal(size=(3, m)))
            _, d_a, d_b = loss_and_grads(model, batch, "squared-error")
            lr = 0.05
            a1 = model.adapter.a - lr * d_a
            b1 = model.adapter.b - lr * d_b
            moved = b1 @ a1 - adapter_delta(model.adapter)
            predicted = -lr * (d_b @ model.adapter.a + model.adapter.b @ d_a) + lr**2 * (d_b @ d_a)
            scale = max(1.0, float(np.abs(moved).max()))
            assert np.abs(moved - predicted).max() <= 8 * EPS * scale


class TestLocalTrain:
    def shard(self, gen, count=12, n=4, m=3):
        xs = gen.normal(size=(count, n))
        teacher = gen.normal(size=(m, n))
        return ClientShard(client_id=0, xs=xs, ys=xs @ teacher.T)

    def test_zero_learning_rate_is_bit_identical(self):
        gen = np.random.default_rng(34)
        shard = self.shard(gen)
        model = random_model(gen, 3, 4, 2)
        trained = local_train(model, shard, TrainConfig(learning_rate=0.0, batch_size=4, seed=1))
        assert trained.a.tobytes() == model.adapter.a.tobytes()
        assert trained.b.tobytes() == model.adapter.b.tobytes()

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_single_full_batch_step_matches_hand_application(self, loss_kind):
        gen = np.random.default_rng(35)
        shard = self.shard(gen, count=6)
        if loss_kind == "softmax-cross-entropy":
            shard = ClientShard(client_id=0, xs=shard.xs, ys=np.argmax(shard.ys, axis=1))
        model = random_model(gen, 3, 4, 2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=6, local_epochs=1, loss=loss_kind, seed=9)
        trained = local_train(model, shard, cfg)
        # Replay the documented epoch shuffle: seed derived as (cfg.seed, epoch).
        order = np.random.default_rng(derive_seed(9, 0)).permutation(6)
        _, d_a, d_b = loss_and_grads(
            model, Batch(inputs=shard.xs[order], targets=shard.ys[order]), loss_kind
        )
        assert np.array_equal(trained.a, model.adapter.a - 0.01 * d_a)
        assert np.array_equal(trained.b, model.adapter.b - 0.01 * d_b)

    def test_loss_improves_on_linear_teacher(self):
        gen = np.random.default_rng(36)
        shard = self.shard(gen, count=64)
        model = ToyModel(
            BaseWeights(gen.normal(size=(3, 4))),
            init_adapter(Dim(3, 4), 2, InitPolicy(std_or_bound=0.1, seed=2)),
        )
        batch = Batch(inputs=shard.xs, targets=shard.ys)
        before = evaluate(model, batch)
        trained = local_train(
            model, shard, TrainConfig(learning_rate=0.02, batch_size=8, local_epochs=5, seed=3)
        )
        after = evaluate(ToyModel(model.base, trained), batch)
        assert after < before

    def test_base_is_frozen(self):
        gen = np.random.default_rng(37)
        shard = self.shard(gen)
        model = random_model(gen, 3, 4, 2)
        digest = hashlib.sha256(model.base.w.tobytes()).hexdigest()
        local_train(model, shard, TrainConfig(learning_rate=0.05, batch_size=4, seed=4))
        assert hashlib.sha256(model.base.w.tobytes()).hexdigest() == digest

    def test_deterministic_for_fixed_seed(self):
        gen = np.random.default_rng(38)
        shard = self.shard(gen)
        model = random_model(gen, 3, 4, 2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=4, local_epochs=3, seed=5)
        first = local_train(model, shard, cfg)
        second = local_train(model, shard, cfg)
        assert first.a.tobytes() == second.a.tobytes()
        assert first.b.tobytes() == second.b.tobytes()

    def test_oversized_batch_clamps_to_shard(self):
        gen = np.random.default_rng(39)
        shard = self.shard(gen, count=3)
        model = random_model(gen, 3, 4, 2)
        trained = local_train(model, shard, TrainConfig(learning_rate=0.01, batch_size=100, seed=6))
        assert trained.a.shape == model.adapter.a.shape


class TestValidation:
    def test_train_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(local_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")

    def test_toy_model_shape_check(self):
        with pytest.raises(ValueError):
            ToyModel(BaseWeights(np.zeros((2, 3))), LoraAdapter(a=[[1.0, 1.0]], b=[[1.0], [1.0]]))
