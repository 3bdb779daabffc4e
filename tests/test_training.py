"""Evaluation, hand-derived gradients vs finite differences, local SGD."""

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
    init_adapter,
    local_train,
    loss_and_grads,
)
from florasim.data import BLOCK_ROWS, row_blocks
from florasim.rng import derive_seed
from florasim.training import LOSS_KINDS, _target_matrix, evaluate

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
        # w x + b (a x) = [1, 2] + [1, 0] * 1, exactly.
        batch = Batch(inputs=[[1.0, 2.0]], targets=[[2.0, 2.0]])
        _, d_a, d_b = loss_and_grads(model, batch, "squared-error")
        assert np.array_equal(d_a, np.zeros((1, 2)))
        assert np.array_equal(d_b, np.zeros((2, 1)))

    def test_fresh_adapter_blocks_a_gradient_exactly(self):
        gen = np.random.default_rng(31)
        model = ToyModel(BaseWeights(gen.normal(size=(3, 4))), init_adapter(Dim(3, 4), 2, InitPolicy(), 6))
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


class TestEvaluate:
    @staticmethod
    def loss_paths(targets, loss, features=3):
        """Every loss path at m=n=3, on four rows of the given width with the
        given targets."""
        model = ToyModel(BaseWeights(np.eye(3)), init_adapter(Dim(3, 3), 1, InitPolicy(), 4))
        batch = Batch(np.ones((4, features)), targets)
        shard = ClientShard(0, batch.inputs, batch.targets)
        return [
            lambda: evaluate(model, batch, loss),
            lambda: evaluate(model.base, batch, loss),
            lambda: loss_and_grads(model, batch, loss),
            lambda: local_train(model, shard, TrainConfig(loss=loss), 0),
        ]

    def test_unknown_loss_name_is_rejected_on_every_loss_path(self):
        # The underscore spelling once scored as softmax cross-entropy.
        for path in self.loss_paths(np.array([0, 1, 2, 0]), "squared_error"):
            with pytest.raises(ValueError, match="unknown loss 'squared_error'") as err:
                path()
            assert str(LOSS_KINDS) in str(err.value)

    def test_squared_error_targets_of_the_wrong_width_are_rejected(self):
        # (4, 1) targets once broadcast against the (4, 3) outputs. Softmax
        # takes (count, 3) target rows as well as class indices, so a (4, 2)
        # matrix is neither and the message names both forms.
        cases = [
            ("squared-error", np.ones((4, 1)),
             r"^squared-error targets must be \(count, 3\), got shape \(4, 1\)$"),
            ("softmax-cross-entropy", np.ones((4, 2)),
             r"^softmax-cross-entropy targets must be \(count,\) labels or \(count, 3\) rows, "
             r"got shape \(4, 2\)$"),
        ]
        for loss, targets, expected in cases:
            for path in self.loss_paths(targets, loss):
                with pytest.raises(ValueError, match=expected):
                    path()

    @pytest.mark.parametrize("loss", LOSS_KINDS)
    def test_inputs_of_the_wrong_width_are_named_on_every_loss_path(self, loss):
        # local_train once raised numpy's matmul core-dimension error here.
        targets = np.array([0, 1, 2, 0]) if loss == "softmax-cross-entropy" else np.ones((4, 3))
        for path in self.loss_paths(targets, loss, features=4):
            with pytest.raises(ValueError, match=r"^inputs have 4 features, model expects 3$"):
                path()

    def test_one_hot_rows_give_the_bits_of_their_class_indices_on_every_loss_path(self):
        # 600 rows cross evaluate's row blocks and local_train's chunks.
        gen = np.random.default_rng(41)
        model = random_model(gen, 5, 4, 2)
        xs = gen.normal(size=(600, 4))
        labels = gen.integers(0, 5, size=600)
        onehot = np.eye(5)[labels]
        rows = gen.permutation(600)[:457]
        cfg = TrainConfig(learning_rate=0.05, batch_size=9, local_epochs=2, loss="softmax-cross-entropy")
        results = []
        for targets in (labels, onehot):
            batch = Batch(xs, targets)
            trained = local_train(model, ClientShard(0, xs, targets, rows), cfg, 5)
            results.append([
                evaluate(model, batch, cfg.loss),
                evaluate(model.base, batch, cfg.loss),
                *loss_and_grads(model, batch, cfg.loss),
                trained.a,
                trained.b,
            ])
        by_labels, by_rows = results
        for got, want in zip(by_rows, by_labels):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize(
        "bad, shown",
        [
            (-1, "-1"),  # once wrapped to the last class
            (0.5, "0.5"),  # once truncated to class 0
            (7, "7"),  # once a bare IndexError
            ("a", "dtype <U21"),
        ],
    )
    def test_softmax_labels_outside_the_classes_are_rejected(self, bad, shown):
        labels = np.array([0, 1, bad, 2])
        expected = rf"^softmax-cross-entropy labels must be whole numbers in \[0, 3\), got {shown}$"
        for path in self.loss_paths(labels, "softmax-cross-entropy"):
            with pytest.raises(ValueError, match=expected):
                path()

    def test_whole_float_labels_are_their_classes(self):
        model = random_model(np.random.default_rng(3), 3, 3, 1)
        whole = evaluate(model, Batch(np.eye(3), [0.0, 2.0, 1.0]), "softmax-cross-entropy")
        assert whole == evaluate(model, Batch(np.eye(3), [0, 2, 1]), "softmax-cross-entropy")

    def test_zero_base_fresh_adapter_scores_the_targets_alone(self):
        model = ToyModel(BaseWeights(np.zeros((2, 2))), init_adapter(Dim(2, 2), 1, InitPolicy(), 4))
        batch = Batch(inputs=[[1.0, -2.0], [3.0, 0.5]], targets=[[1.0, 0.0], [0.0, 2.0]])
        assert evaluate(model, batch) == 0.5 * (1.0 + 4.0) / 2

    def test_hand_value(self):
        # The model maps [1, 0] to (I + b a) [1, 0] = [3, 0].
        model = ToyModel(BaseWeights(np.eye(2)), LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]]))
        assert evaluate(model, Batch(inputs=[[1.0, 0.0]], targets=[[3.0, 0.0]])) == 0.0
        assert evaluate(model, Batch(inputs=[[1.0, 0.0]], targets=[[1.0, 0.0]])) == 2.0

    def test_rejects_inputs_of_the_wrong_width(self):
        model = random_model(np.random.default_rng(0), 3, 4, 2)
        with pytest.raises(ValueError):
            evaluate(model, Batch(inputs=np.zeros((1, 5)), targets=np.zeros((1, 3))))

    def test_thin_products_match_the_dense_outputs(self):
        gen = np.random.default_rng(1234)
        for _ in range(50):
            m, n, r = int(gen.integers(2, 9)), int(gen.integers(2, 9)), int(gen.integers(1, 4))
            model = random_model(gen, m, n, r)
            x = gen.normal(size=(int(gen.integers(1, 6)), n))
            dense = x @ (model.base.w + adapter_delta(model.adapter)).T
            gap = 4 * EPS * max(1.0, float(np.abs(dense).max()))
            # Every output within gap of the dense one bounds the mean half squared error.
            assert evaluate(model, Batch(inputs=x, targets=dense)) <= 0.5 * m * gap**2


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


def whole_array_loss(w, adapter, xs, targets, loss_kind):
    """The held-out loss formed over the whole array at once, the reference
    that evaluation in row blocks must match."""
    y = xs @ w.T
    if adapter is not None:
        y = y + (xs @ adapter.a.T) @ adapter.b.T
    if loss_kind == "squared-error":
        return float(0.5 * ((y - targets) ** 2).sum() / len(y))
    onehot = np.zeros_like(y)
    onehot[np.arange(len(y)), targets] = 1.0
    shifted = y - y.max(axis=1, keepdims=True)
    return float((np.log(np.exp(shifted).sum(axis=1)) - (shifted * onehot).sum(axis=1)).mean())


class TestBlockedEvaluation:
    """The held-out loss goes through the rows in blocks of BLOCK_ROWS; it
    must equal the whole-array formula at every block boundary.

    The bare base's outputs x w^T are the same bits in a block as in the
    whole array, so its softmax loss is byte-equal. With an adapter the thin
    product x a^T is not: OpenBLAS picks its kernel for a (count, n) x (n, r)
    product by size (at n=64, r=4 a product of 320 or more rows differs in
    the last bit from the same rows taken 256 at a time), so past one block
    both losses are held to a few ulp instead.
    """

    @staticmethod
    def held_out(count, dim, loss_kind, seed):
        gen = np.random.default_rng(seed)
        w = gen.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, dim))
        a, b = gen.normal(0.0, 0.3, size=(4, dim)), gen.normal(0.0, 0.3, size=(dim, 4))
        xs = gen.normal(size=(count, dim))
        if loss_kind == "squared-error":
            targets = gen.normal(size=(count, dim))
        else:
            targets = gen.integers(0, dim, size=count)
        return BaseWeights(w), LoraAdapter(a=a, b=b), xs, targets

    @staticmethod
    def assert_matches(got, reference, exact):
        if exact:
            assert np.float64(got).tobytes() == np.float64(reference).tobytes()
        else:
            # A mean of row sums is not numpy's pairwise sum over the flat array.
            assert abs(got - reference) <= 4 * EPS * abs(reference), (got, reference)

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    @pytest.mark.parametrize("dim", [16, 64, 256])
    @pytest.mark.parametrize("count", [1, 2, 255, 256, 257, 513, 4000])
    def test_matches_the_whole_array_loss(self, count, dim, loss_kind):
        base, adapter, xs, targets = self.held_out(count, dim, loss_kind, seed=count * 1000 + dim)
        softmax = loss_kind == "softmax-cross-entropy"
        bare = evaluate(base, Batch(xs, targets), loss_kind)
        reference = whole_array_loss(base.w, None, xs, targets, loss_kind)
        self.assert_matches(bare, reference, exact=softmax)
        adapted = evaluate(ToyModel(base, adapter), Batch(xs, targets), loss_kind)
        reference = whole_array_loss(base.w, adapter, xs, targets, loss_kind)
        self.assert_matches(adapted, reference, exact=softmax and len(row_blocks(count)) == 1)

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_one_row_tail_joins_the_full_block_before_it(self, loss_kind):
        # Two full blocks and one more row: no block is a single row, which
        # would go through gemv.
        count = 2 * BLOCK_ROWS + 1
        assert row_blocks(count) == [(0, BLOCK_ROWS), (BLOCK_ROWS, count)]
        base, adapter, xs, targets = self.held_out(count, 64, loss_kind, seed=77)
        bare = evaluate(base, Batch(xs, targets), loss_kind)
        reference = whole_array_loss(base.w, None, xs, targets, loss_kind)
        self.assert_matches(bare, reference, exact=loss_kind == "softmax-cross-entropy")
        # The tail row scores as it does on its own, and the rest as the rest.
        got = evaluate(ToyModel(base, adapter), Batch(xs, targets), loss_kind)
        head = evaluate(ToyModel(base, adapter), Batch(xs[:-1], targets[:-1]), loss_kind)
        tail = whole_array_loss(base.w, adapter, xs[-1:], targets[-1:], loss_kind)
        assert got == pytest.approx((head * (count - 1) + tail) / count, rel=1e-12)


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

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_row_indexed_shard_trains_like_its_copied_rows(self, loss_kind):
        gen = np.random.default_rng(33)
        pool = self.shard(gen, count=900, n=16, m=16)
        ys = pool.ys if loss_kind == "squared-error" else np.argmax(pool.ys, axis=1)
        rows = gen.permutation(900)[:611]
        indexed = ClientShard(0, pool.xs, ys, rows)
        copied = ClientShard(0, pool.xs[rows], ys[rows])
        model = random_model(gen, 16, 16, 4)
        cfg = TrainConfig(learning_rate=0.002, batch_size=7, local_epochs=2, loss=loss_kind)
        lhs, rhs = local_train(model, indexed, cfg, 3), local_train(model, copied, cfg, 3)
        assert lhs.a.tobytes() == rhs.a.tobytes()
        assert lhs.b.tobytes() == rhs.b.tobytes()
        assert not np.array_equal(lhs.a, model.adapter.a)

    def test_zero_learning_rate_is_bit_identical(self):
        gen = np.random.default_rng(34)
        shard = self.shard(gen)
        model = random_model(gen, 3, 4, 2)
        trained = local_train(model, shard, TrainConfig(learning_rate=0.0, batch_size=4), 1)
        assert trained.a.tobytes() == model.adapter.a.tobytes()
        assert trained.b.tobytes() == model.adapter.b.tobytes()

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_single_full_batch_step_matches_hand_application(self, loss_kind):
        gen = np.random.default_rng(35)
        shard = self.shard(gen, count=6)
        if loss_kind == "softmax-cross-entropy":
            shard = ClientShard(client_id=0, xs=shard.xs, ys=np.argmax(shard.ys, axis=1))
        model = random_model(gen, 3, 4, 2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=6, local_epochs=1, loss=loss_kind)
        trained = local_train(model, shard, cfg, 9)
        # Replay the documented epoch shuffle: seed derived as (seed, epoch).
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
            init_adapter(Dim(3, 4), 2, InitPolicy(std_or_bound=0.1), 2),
        )
        batch = Batch(inputs=shard.xs, targets=shard.ys)
        before = evaluate(model, batch)
        trained = local_train(
            model, shard, TrainConfig(learning_rate=0.02, batch_size=8, local_epochs=5), 3
        )
        after = evaluate(ToyModel(model.base, trained), batch)
        assert after < before

    def test_base_is_frozen(self):
        gen = np.random.default_rng(37)
        shard = self.shard(gen)
        model = random_model(gen, 3, 4, 2)
        digest = hashlib.sha256(model.base.w.tobytes()).hexdigest()
        local_train(model, shard, TrainConfig(learning_rate=0.05, batch_size=4), 4)
        assert hashlib.sha256(model.base.w.tobytes()).hexdigest() == digest

    def test_deterministic_for_fixed_seed(self):
        gen = np.random.default_rng(38)
        shard = self.shard(gen)
        model = random_model(gen, 3, 4, 2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=4, local_epochs=3)
        first = local_train(model, shard, cfg, 5)
        second = local_train(model, shard, cfg, 5)
        assert first.a.tobytes() == second.a.tobytes()
        assert first.b.tobytes() == second.b.tobytes()

    def test_oversized_batch_clamps_to_shard(self):
        gen = np.random.default_rng(39)
        shard = self.shard(gen, count=3)
        model = random_model(gen, 3, 4, 2)
        trained = local_train(model, shard, TrainConfig(learning_rate=0.01, batch_size=100), 6)
        assert trained.a.shape == model.adapter.a.shape

    def test_diverged_factors_raise_floating_point_error(self):
        gen = np.random.default_rng(45)
        shard = ClientShard(client_id=0, xs=gen.normal(size=(40, 8)), ys=gen.normal(size=(40, 8)))
        model = random_model(gen, 8, 8, 2)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            local_train(model, shard, TrainConfig(learning_rate=1e150, batch_size=4), 1)


def reference_local_train(model, shard, cfg, seed):
    """The plain per-step loop: gather each batch from the shard, call
    loss_and_grads, step both factors."""
    a, b = np.array(model.adapter.a), np.array(model.adapter.b)
    batch = min(cfg.batch_size, shard.size)
    for epoch in range(cfg.local_epochs):
        order = np.random.default_rng(derive_seed(seed, epoch)).permutation(shard.size)
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
        cfg = TrainConfig(learning_rate=0.01, batch_size=batch_size, local_epochs=epochs, loss=loss_kind)
        trained = local_train(model, shard, cfg, 11)
        ref_a, ref_b = reference_local_train(model, shard, cfg, 11)
        assert not np.array_equal(ref_b, model.adapter.b)  # training moved the adapter
        assert np.abs(trained.a - ref_a).max() <= 1e-12 * np.abs(ref_a).max()
        assert np.abs(trained.b - ref_b).max() <= 1e-12 * np.abs(ref_b).max()


def chunked_local_train(model, shard, cfg, seed):
    """The chunked loop as it stood before the joined factor buffers: ``@``
    products, a fresh residual and gradient pair per step, and separate
    updates of a and b. Returns the factors (a, b)."""

    def residual(y, t):
        if cfg.loss == "squared-error":
            return y - t
        e = np.exp(y - y.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True) - t

    def grads(g, x, ax, b):
        count = len(x)
        return (g @ b).T @ x / count, g.T @ ax / count

    a, b = np.array(model.adapter.a), np.array(model.adapter.b)
    w, lr = model.base.w, cfg.learning_rate
    batch = min(cfg.batch_size, shard.size)
    chunk = max(1, BLOCK_ROWS // batch) * batch
    xs_buf = np.empty((min(chunk, shard.size), shard.xs.shape[1]))
    base_buf = np.empty((len(xs_buf), model.base.m))
    for epoch in range(cfg.local_epochs):
        order = np.random.default_rng(derive_seed(seed, epoch)).permutation(shard.size)
        rows = shard.rows[order]
        for chunk_start in range(0, shard.size, chunk):
            idx = rows[chunk_start : chunk_start + chunk]
            xs = shard.xs.take(idx, axis=0, out=xs_buf[: len(idx)], mode="clip")
            ts = _target_matrix(shard.ys[idx], model.base.m, cfg.loss)
            base_ys = np.matmul(xs, w.T, out=base_buf[: len(idx)])
            for start in range(0, len(idx), batch):
                x = xs[start : start + batch]
                ax = x @ a.T
                y = base_ys[start : start + batch] + ax @ b.T
                d_a, d_b = grads(residual(y, ts[start : start + batch]), x, ax, b)
                a -= lr * d_a
                b -= lr * d_b
    return a, b


class TestLocalTrainKeepsItsBits:
    """Each step scales and applies both factors' gradients as one buffer and
    takes its products through ``ndarray.dot``; every element still gets the
    same operations in the same order as the plain chunked loop, so the
    factors must equal it byte for byte."""

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize(
        "size, batch_size, m, n, rank",
        [
            (40, 1, 16, 16, 4),  # one-row batches
            (57, 7, 12, 20, 3),  # m != n and a 1-row last batch
            (33, 16, 16, 16, 4),  # a 1-row last batch after two full ones
            (600, 7, 16, 16, 4),  # chunks of 252 rows: crosses a chunk boundary
            (20, 50, 8, 24, 5),  # batch larger than the shard
            (90, 16, 6, 5, 9),  # rank above min(m, n)
            (300, 16, 64, 48, 8),
        ],
    )
    def test_factors_equal_the_chunked_loop_byte_for_byte(self, loss_kind, epochs, size, batch_size, m, n, rank):
        gen = np.random.default_rng(size * 100 + batch_size * 10 + epochs)
        pool = size + 13
        xs = gen.normal(size=(pool, n))
        ys = xs @ gen.normal(scale=0.3, size=(m, n)).T
        if loss_kind == "softmax-cross-entropy":
            ys = np.argmax(ys, axis=1)
        shard = ClientShard(client_id=0, xs=xs, ys=ys, rows=gen.permutation(pool)[:size])
        model = ToyModel(
            BaseWeights(gen.normal(scale=0.3, size=(m, n))),
            LoraAdapter(a=gen.normal(scale=0.1, size=(rank, n)), b=gen.normal(scale=0.1, size=(m, rank))),
        )
        cfg = TrainConfig(learning_rate=0.01, batch_size=batch_size, local_epochs=epochs, loss=loss_kind)
        trained = local_train(model, shard, cfg, 11)
        ref_a, ref_b = chunked_local_train(model, shard, cfg, 11)
        assert not np.array_equal(ref_b, model.adapter.b)  # training moved the adapter
        assert trained.a.tobytes() == ref_a.tobytes()
        assert trained.b.tobytes() == ref_b.tobytes()


class TestLocalTrainAppliesTheCheckedGradient:
    """``local_train`` and ``loss_and_grads`` share one step, so the gradient
    the finite-difference tests check is the one SGD applies: one full-batch
    epoch on at most BLOCK_ROWS rows is one step over the permuted rows."""

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    @pytest.mark.parametrize("size, m, n, rank", [(2, 4, 3, 2), (57, 12, 20, 3), (BLOCK_ROWS, 16, 16, 4)])
    def test_one_step_is_factor_minus_lr_times_loss_and_grads(self, loss_kind, size, m, n, rank):
        gen = np.random.default_rng(size * 10 + m)
        pool = size + 9
        xs = gen.normal(size=(pool, n))
        ys = xs @ gen.normal(scale=0.3, size=(m, n)).T
        if loss_kind == "softmax-cross-entropy":
            ys = np.argmax(ys, axis=1)
        shard = ClientShard(client_id=0, xs=xs, ys=ys, rows=gen.permutation(pool)[:size])
        model = random_model(gen, m, n, rank)
        cfg = TrainConfig(learning_rate=0.01, batch_size=size, loss=loss_kind)
        trained = local_train(model, shard, cfg, 5)
        rows = shard.rows[np.random.default_rng(derive_seed(5, 0)).permutation(size)]
        _, d_a, d_b = loss_and_grads(model, Batch(xs[rows], ys[rows]), loss_kind)
        assert not np.array_equal(trained.b, model.adapter.b)  # the step moved the adapter
        assert trained.a.tobytes() == (model.adapter.a - cfg.learning_rate * d_a).tobytes()
        assert trained.b.tobytes() == (model.adapter.b - cfg.learning_rate * d_b).tobytes()


class TestOwnedFactors:
    """``init_adapter`` and ``local_train`` hand their own arrays to the
    adapter without a copy; they must still be frozen float64 C matrices."""

    @staticmethod
    def assert_frozen(adapter):
        for factor in (adapter.a, adapter.b):
            assert factor.dtype == np.float64 and factor.flags.c_contiguous
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 1.0

    def test_fresh_and_trained_factors_are_read_only(self):
        gen = np.random.default_rng(46)
        fresh = init_adapter(Dim(6, 5), 3, InitPolicy(std_or_bound=0.1), 4)
        self.assert_frozen(fresh)
        shard = ClientShard(client_id=0, xs=gen.normal(size=(30, 5)), ys=gen.normal(size=(30, 6)))
        model = ToyModel(BaseWeights(gen.normal(size=(6, 5))), fresh)
        trained = local_train(model, shard, TrainConfig(learning_rate=0.05, batch_size=8), 2)
        self.assert_frozen(trained)
        assert trained.a.shape == (3, 5) and trained.b.shape == (6, 3)
        assert trained.b.any()  # the zero b trained away from its start

    def test_public_constructor_still_copies_and_checks(self):
        a, b = np.ones((2, 3)), np.ones((4, 2))
        adapter = LoraAdapter(a=a, b=b)
        assert adapter.a is not a and adapter.b is not b
        assert a.flags.writeable and b.flags.writeable
        a[0, 0] = 5.0
        assert adapter.a[0, 0] == 1.0
        with pytest.raises(ValueError, match="finite"):
            LoraAdapter(a=np.full((2, 3), np.nan), b=b)

    def test_overflowing_init_draw_is_rejected(self):
        # About half of N(0, 1) draws scaled by 1e308 overflow to inf; the
        # policy refuses the std before any draw.
        with pytest.raises(ValueError, match="can overflow a zero-delta-gaussian draw"):
            init_adapter(Dim(16, 16), 4, InitPolicy(std_or_bound=1e308), 1)


class TestZeroPaddingStaysZero:
    """A zero row of a with the matching zero column of b gets zero gradient
    (d_b = g^T (x a^T), d_a = (g b)^T x), so local SGD keeps it exactly zero
    and the live block trains as the unpadded adapter does."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(2, 32),
        n=st.integers(2, 32),
        r=st.integers(1, 6),
        pad=st.integers(1, 6),
        size=st.integers(1, 80),
        batch_size=st.integers(1, 40),
        epochs=st.integers(1, 3),
        loss_kind=st.sampled_from(LOSS_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_padded_factors_stay_zero_property(self, m, n, r, pad, size, batch_size, epochs, loss_kind, seed):
        gen = np.random.default_rng(seed)
        xs = gen.normal(size=(size, n))
        ys = gen.normal(size=(size, m)) if loss_kind == "squared-error" else gen.integers(0, m, size=size)
        shard = ClientShard(client_id=0, xs=xs, ys=ys)
        base = BaseWeights(gen.normal(scale=0.3, size=(m, n)))
        a, b = gen.normal(scale=0.3, size=(r, n)), gen.normal(scale=0.3, size=(m, r))
        padded = LoraAdapter(a=np.vstack([a, np.zeros((pad, n))]), b=np.hstack([b, np.zeros((m, pad))]))
        cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, local_epochs=epochs, loss=loss_kind)
        trained = local_train(ToyModel(base, padded), shard, cfg, seed)
        assert not trained.a[r:].any() and not trained.b[:, r:].any()
        live = local_train(ToyModel(base, LoraAdapter(a=a, b=b)), shard, cfg, seed)
        for got, want in ((trained.a[:r], live.a), (trained.b[:, :r], live.b)):
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


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
