"""Forward pass, hand-derived gradients vs finite differences, local SGD."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    @pytest.mark.parametrize(
        "m, n, r, count",
        [
            (3, 2, 5, 4),  # stacked rank above max(m, n)
            (2, 4, 7, 3),
            (4, 3, 2, 1),  # a remainder batch of one sample
            (3, 3, 6, 1),
        ],
    )
    def test_matches_finite_differences_on_stacked_ranks_and_single_samples(self, loss_kind, m, n, r, count):
        gen = np.random.default_rng(1000 * m + 100 * n + 10 * r + count)
        for _ in range(5):
            model = random_model(gen, m, n, r)
            if loss_kind == "squared-error":
                targets = gen.normal(size=(count, m))
            else:
                targets = gen.integers(0, m, size=count)
            batch = Batch(inputs=gen.normal(size=(count, n)), targets=targets)
            _, d_a, d_b = loss_and_grads(model, batch, loss_kind)
            fd_a, fd_b = finite_difference_grads(model, batch, loss_kind)
            assert_grads_close(d_a, fd_a)
            assert_grads_close(d_b, fd_b)

    def test_wide_a_gradient_matches_dense_route(self):
        self.check_a_gradient_against_dense_route(64, 64, 4, 32, "squared-error", 0)
        self.check_a_gradient_against_dense_route(64, 64, 4, 32, "softmax-cross-entropy", 0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 64),
        n=st.integers(1, 64),
        r=st.integers(1, 80),
        count=st.integers(1, 40),
        loss_kind=st.sampled_from(LOSS_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_gradient_matches_dense_route_property(self, m, n, r, count, loss_kind, seed):
        self.check_a_gradient_against_dense_route(m, n, r, count, loss_kind, seed)

    @staticmethod
    def check_a_gradient_against_dense_route(m, n, r, count, loss_kind, seed):
        """d_a against b^T (g^T x) / count, which forms the m x n product g^T x."""
        gen = np.random.default_rng(seed)
        model = random_model(gen, m, n, r)
        x = gen.normal(size=(count, n))
        w, a, b = model.base.w, model.adapter.a, model.adapter.b
        y = x @ w.T + (x @ a.T) @ b.T
        if loss_kind == "squared-error":
            targets = gen.normal(size=(count, m))
            g = y - targets
        else:
            targets = gen.integers(0, m, size=count)
            e = np.exp(y - y.max(axis=1, keepdims=True))
            g = e / e.sum(axis=1, keepdims=True)
            g[np.arange(count), targets] -= 1.0
        reference = b.T @ (g.T @ x) / count
        _, d_a, _ = loss_and_grads(model, Batch(inputs=x, targets=targets), loss_kind)
        assert d_a.shape == (r, n)
        assert np.abs(d_a - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            Batch(inputs=np.zeros((0, 2)), targets=np.zeros((0, 2)))


class TestSoftmaxLoss:
    @staticmethod
    def logit_model(logits):
        """A model whose output on the input [1.0] is the given logits."""
        w = np.asarray(logits, dtype=np.float64)[:, None]
        return ToyModel(BaseWeights(w), LoraAdapter(a=np.zeros((1, 1)), b=np.zeros((len(w), 1))))

    def test_extreme_logits_give_finite_loss(self):
        # The label's probability exp(-1600) underflows to 0, where -log(p) is inf.
        model = self.logit_model([0.0, 800.0, -800.0])
        batch = Batch(inputs=[[1.0]], targets=[2])
        loss = evaluate(model, batch, "softmax-cross-entropy")
        assert np.isfinite(loss)
        assert loss == pytest.approx(1600.0, rel=1e-15)

    def test_matches_negative_log_softmax_where_finite(self):
        gen = np.random.default_rng(43)
        for _ in range(25):
            logits = gen.normal(scale=10.0, size=(6, 5))
            labels = gen.integers(0, 5, size=6)
            model = ToyModel(
                BaseWeights(logits.T.copy()),
                LoraAdapter(a=np.zeros((1, 6)), b=np.zeros((5, 1))),
            )
            batch = Batch(inputs=np.eye(6), targets=labels)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            old = float(-np.log(probs[np.arange(6), labels]).mean())
            assert np.isfinite(old)
            assert evaluate(model, batch, "softmax-cross-entropy") == pytest.approx(old, rel=1e-13)

    def test_residual_is_probabilities_minus_onehot(self):
        gen = np.random.default_rng(44)
        model = random_model(gen, 4, 3, 2)
        x = gen.normal(size=(5, 3))
        labels = gen.integers(0, 4, size=5)
        _, d_a, d_b = loss_and_grads(model, Batch(inputs=x, targets=labels), "softmax-cross-entropy")
        y = x @ model.base.w.T + (x @ model.adapter.a.T) @ model.adapter.b.T
        e = np.exp(y - y.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(probs)
        onehot[np.arange(5), labels] = 1.0
        g = probs - onehot
        assert np.array_equal(d_b, g.T @ (x @ model.adapter.a.T) / 5)
        assert np.array_equal(d_a, (g @ model.adapter.b).T @ x / 5)


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

    def test_diverged_factors_raise_floating_point_error(self):
        gen = np.random.default_rng(45)
        shard = ClientShard(client_id=0, xs=gen.normal(size=(40, 8)), ys=gen.normal(size=(40, 8)))
        model = random_model(gen, 8, 8, 2)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            local_train(model, shard, TrainConfig(learning_rate=1e150, batch_size=4, seed=1))


def reference_local_train(model, shard, cfg):
    """The plain per-step loop: gather each batch from the shard, call
    loss_and_grads, step both factors."""
    a, b = np.array(model.adapter.a), np.array(model.adapter.b)
    batch = min(cfg.batch_size, shard.size)
    for epoch in range(cfg.local_epochs):
        order = np.random.default_rng(derive_seed(cfg.seed, epoch)).permutation(shard.size)
        for start in range(0, shard.size, batch):
            idx = order[start : start + batch]
            probe = ToyModel(model.base, LoraAdapter(a=a, b=b))
            _, d_a, d_b = loss_and_grads(probe, Batch(shard.xs[idx], shard.ys[idx]), cfg.loss)
            a -= cfg.learning_rate * d_a
            b -= cfg.learning_rate * d_b
    return a, b


class TestLocalTrainMatchesPerStepReference:
    """The chunked loop (hoisted x w^T, one gather per chunk) against the
    per-step reference. Equal to a tolerance: whether a row of a larger GEMM
    rounds like the same row of a smaller one depends on the BLAS build."""

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize(
        "size, batch_size, dim",
        [
            (100, 32, 16),  # ragged last batch of 4
            (5, 32, 16),  # shard smaller than the batch
            (600, 7, 16),  # chunks of 252 rows, not aligned to 256
            (600, 7, 64),
            (300, 32, 64),
        ],
    )
    def test_matches_reference(self, loss_kind, epochs, size, batch_size, dim):
        gen = np.random.default_rng(size + 7 * batch_size + dim + epochs)
        xs = gen.normal(size=(size, dim))
        ys = xs @ gen.normal(scale=0.3, size=(dim, dim)).T
        if loss_kind == "softmax-cross-entropy":
            ys = np.argmax(ys, axis=1)
        shard = ClientShard(client_id=0, xs=xs, ys=ys)
        model = ToyModel(
            BaseWeights(gen.normal(scale=0.3, size=(dim, dim))),
            LoraAdapter(a=gen.normal(scale=0.1, size=(4, dim)), b=gen.normal(scale=0.1, size=(dim, 4))),
        )
        cfg = TrainConfig(
            learning_rate=0.01, batch_size=batch_size, local_epochs=epochs, loss=loss_kind, seed=11
        )
        trained = local_train(model, shard, cfg)
        ref_a, ref_b = reference_local_train(model, shard, cfg)
        assert not np.array_equal(ref_b, model.adapter.b)  # training moved the adapter
        assert np.abs(trained.a - ref_a).max() <= 1e-12 * np.abs(ref_a).max()
        assert np.abs(trained.b - ref_b).max() <= 1e-12 * np.abs(ref_b).max()


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
