"""Task generation, non-IID partitioning and scaling factors."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from florasim import (
    Batch,
    ClientShard,
    Dim,
    ExperimentConfig,
    LoraAdapter,
    SkewSpec,
    ToyModel,
    compare_strategies,
    evaluate,
    gen_task,
    holdout_split,
    partition,
    scaling_factors,
)
from florasim.data import BLOCK_ROWS, argmax_labels, row_blocks
from florasim.rng import derive_seed
from florasim.simulation import _TAG_PARTITION, _build_world

DIM = Dim(16, 16)
ALL_KINDS = [("iid", 0.0), ("feature-shift", 1.0), ("size-skew", 1.5), ("label-skew", 3.0),
             ("feature-shift+size-skew", 1.0)]


def sample_keys(xs):
    return {row.tobytes() for row in np.asarray(xs)}


def shard_xs(shard):
    """The shard's own inputs, gathered from the pool it indexes."""
    return shard.xs[shard.rows]


def shard_ys(shard):
    return shard.ys[shard.rows]


class TestGenTask:
    def test_deterministic(self):
        first = gen_task(DIM, 200, 0.05, seed=11)
        second = gen_task(DIM, 200, 0.05, seed=11)
        assert first.xs.tobytes() == second.xs.tobytes()
        assert first.ys.tobytes() == second.ys.tobytes()
        assert first.teacher.tobytes() == second.teacher.tobytes()

    def test_noise_free_targets_follow_teacher(self):
        task = gen_task(DIM, 100, 0.0, seed=12)
        assert np.array_equal(task.ys, task.xs @ task.teacher.T)
        # A basis input maps to the matching teacher column.
        basis = np.zeros(16)
        basis[3] = 1.0
        assert np.array_equal(task.teacher @ basis, task.teacher[:, 3])

    def test_base_to_teacher_gap_has_rank_four(self):
        task = gen_task(DIM, 10, 0.0, seed=13)
        singulars = np.linalg.svd(task.teacher - task.base.w, compute_uv=False)
        assert int((singulars > 1e-9).sum()) == 4

    def test_noise_changes_targets(self):
        clean = gen_task(DIM, 100, 0.0, seed=14)
        noisy = gen_task(DIM, 100, 0.5, seed=14)
        assert np.array_equal(clean.xs, noisy.xs)
        assert not np.array_equal(clean.ys, noisy.ys)

    @pytest.mark.parametrize("dim", [Dim(16, 16), Dim(64, 48), Dim(256, 256)])
    @pytest.mark.parametrize("samples", [255, 256, 257, 513, 1025])
    def test_row_blocks_equal_the_one_shot_product(self, dim, samples):
        task = gen_task(dim, samples, 0.3, seed=31)
        # Replay gen_task's draws, then draw the whole noise matrix at once.
        gen = np.random.default_rng(31)
        gen.normal(size=(dim.m, dim.n))
        gen.normal(size=(dim.m, 4))
        gen.normal(size=(4, dim.n))
        assert gen.normal(size=(samples, dim.n)).tobytes() == task.xs.tobytes()
        noise = gen.normal(0.0, 0.3, size=(samples, dim.m))
        assert task.ys.tobytes() == (task.xs @ task.teacher.T + noise).tobytes()
        clean = gen_task(dim, samples, 0.0, seed=31)
        assert clean.ys.tobytes() == (clean.xs @ clean.teacher.T).tobytes()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_task(DIM, 0, 0.0, seed=1)
        with pytest.raises(ValueError):
            gen_task(DIM, 10, -0.1, seed=1)
        with pytest.raises(ValueError):
            gen_task(DIM, 10, 0.0, seed=1, teacher_rank=17)


class TestHoldoutSplit:
    def test_sizes_and_disjointness(self):
        task = gen_task(DIM, 1000, 0.0, seed=15)
        train, evalset = holdout_split(task)
        assert train.size == 800
        assert isinstance(evalset, Batch) and len(evalset) == 200
        assert sample_keys(train.xs) | sample_keys(evalset.inputs) == sample_keys(task.xs)
        assert sample_keys(train.xs) & sample_keys(evalset.inputs) == set()

    def test_rejects_a_pool_it_would_leave_without_training_data(self):
        # The holdout keeps at least one sample, which is all of a one-sample pool.
        task = gen_task(DIM, 1, 0.0, seed=15)
        with pytest.raises(ValueError, match="would leave no training data"):
            holdout_split(task)


class TestPartition:
    def test_iid_equal_sizes_when_divisible(self):
        task = gen_task(DIM, 1000, 0.0, seed=16)
        shards = partition(task, 10, SkewSpec("iid", 0.0, 1))
        assert [s.size for s in shards] == [100] * 10

    @pytest.mark.parametrize("kind,strength", ALL_KINDS)
    def test_exact_cover_no_duplicates(self, kind, strength):
        task = gen_task(DIM, 500, 0.0, seed=17)
        shards = partition(task, 7, SkewSpec(kind, strength, 2))
        assert sum(s.size for s in shards) == 500
        union = set()
        for shard in shards:
            keys = sample_keys(shard_xs(shard))
            assert len(keys) == shard.size
            assert union.isdisjoint(keys)
            union |= keys
        assert union == sample_keys(task.xs)

    @pytest.mark.parametrize("kind,strength", ALL_KINDS)
    def test_shards_index_the_task_pool(self, kind, strength):
        task = gen_task(DIM, 500, 0.0, seed=17)
        shards = partition(task, 7, SkewSpec(kind, strength, 2))
        for shard in shards:
            assert np.shares_memory(shard.xs, task.xs)
            assert np.shares_memory(shard.ys, task.ys)
            assert not shard.xs.flags.writeable and not shard.rows.flags.writeable
        rows = np.concatenate([s.rows for s in shards])
        assert np.array_equal(np.sort(rows), np.arange(task.size))

    def test_size_skew_ratio_exceeds_three(self):
        task = gen_task(DIM, 1000, 0.0, seed=18)
        for seed in range(5):
            sizes = [s.size for s in partition(task, 10, SkewSpec("size-skew", 1.5, seed))]
            assert max(sizes) / min(sizes) > 3

    def test_feature_shift_separates_client_means(self):
        task = gen_task(DIM, 1000, 0.0, seed=19)

        def spread(shards):
            means = np.array([shard_xs(s).mean(axis=0) for s in shards])
            return max(
                np.linalg.norm(means[i] - means[j])
                for i in range(len(means))
                for j in range(i + 1, len(means))
            )

        iid = spread(partition(task, 10, SkewSpec("iid", 0.0, 3)))
        shifted = spread(partition(task, 10, SkewSpec("feature-shift", 1.0, 3)))
        assert shifted > 2 * iid

    def test_label_skew_concentrates_pseudo_labels(self):
        task = gen_task(DIM, 1000, 0.0, seed=20)

        def top_share(shards):
            shares = []
            for s in shards:
                labels = np.argmax(shard_ys(s), axis=1)
                shares.append(np.bincount(labels, minlength=16).max() / s.size)
            return float(np.mean(shares))

        iid = top_share(partition(task, 10, SkewSpec("iid", 0.0, 3)))
        skewed = top_share(partition(task, 10, SkewSpec("label-skew", 5.0, 3)))
        assert skewed > 1.5 * iid

    @pytest.mark.parametrize("kind", ["feature-shift", "size-skew", "label-skew"])
    def test_zero_strength_is_bitwise_iid(self, kind):
        task = gen_task(DIM, 300, 0.0, seed=21)
        base = partition(task, 6, SkewSpec("iid", 0.0, 9))
        other = partition(task, 6, SkewSpec(kind, 0.0, 9))
        for lhs, rhs in zip(base, other):
            assert lhs.rows.tobytes() == rhs.rows.tobytes()
            assert shard_xs(lhs).tobytes() == shard_xs(rhs).tobytes()
            assert shard_ys(lhs).tobytes() == shard_ys(rhs).tobytes()

    def test_deterministic_per_seed(self):
        task = gen_task(DIM, 300, 0.0, seed=22)
        first = partition(task, 5, SkewSpec("feature-shift", 0.8, 4))
        second = partition(task, 5, SkewSpec("feature-shift", 0.8, 4))
        for lhs, rhs in zip(first, second):
            assert lhs.rows.tobytes() == rhs.rows.tobytes()
        # A shard's rows differ from another seed's, so the check above is not vacuous.
        other = partition(task, 5, SkewSpec("feature-shift", 0.8, 5))
        assert first[0].rows.tobytes() != other[0].rows.tobytes()

    def test_label_skew_refills_empty_clients_from_the_largest_shard(self):
        # Two pseudo-labels spread by a concentration of 1/50 leave most of the
        # ten clients empty; each takes single rows from the largest shard.
        task = gen_task(Dim(2, 4), 200, 0.01, 3, 1)
        shards = partition(task, 10, SkewSpec("label-skew", 50.0, 11))
        assert [s.size for s in shards] == [1, 1, 1, 107, 1, 1, 85, 1, 1, 1]
        rows = np.concatenate([s.rows for s in shards])
        assert np.array_equal(np.sort(rows), np.arange(task.size))

    def test_rejects_too_few_samples(self):
        task = gen_task(DIM, 3, 0.0, seed=23)
        with pytest.raises(ValueError):
            partition(task, 5, SkewSpec())
        with pytest.raises(ValueError):
            partition(task, 0, SkewSpec())

    def test_skew_spec_validation(self):
        with pytest.raises(ValueError):
            SkewSpec(kind="dirichlet")
        with pytest.raises(ValueError):
            SkewSpec(strength=-1.0)


class TestScalingFactors:
    def _shard(self, count, client_id=0):
        gen = np.random.default_rng(count)
        return ClientShard(client_id=client_id, xs=gen.normal(size=(count, 2)), ys=gen.normal(size=(count, 2)))

    def test_hand_values(self):
        shards = [self._shard(15, 0), self._shard(35, 1), self._shard(50, 2)]
        assert scaling_factors(shards) == [0.15, 0.35, 0.50]

    def test_equal_sizes_give_tenths(self):
        shards = [self._shard(40, i) for i in range(10)]
        assert scaling_factors(shards) == [0.1] * 10

    def test_single_client(self):
        assert scaling_factors([self._shard(7)]) == [1.0]

    def test_sums_to_one_and_permutation_equivariant(self):
        gen = np.random.default_rng(24)
        shards = [self._shard(int(c), i) for i, c in enumerate(gen.integers(1, 200, size=9))]
        factors = scaling_factors(shards)
        assert abs(sum(factors) - 1.0) <= 1e-12
        reversed_factors = scaling_factors(list(reversed(shards)))
        assert reversed_factors == list(reversed(factors))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            scaling_factors([])



class TestRowBlocks:
    def test_blocks_cover_the_rows_with_no_single_row_block(self):
        assert row_blocks(0) == []
        for count in range(1, 3 * BLOCK_ROWS + 3):
            blocks = row_blocks(count)
            assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
            assert blocks[-1][1] == count
            sizes = [stop - start for start, stop in blocks]
            assert all(1 <= size <= BLOCK_ROWS + 1 for size in sizes)
            assert 1 not in sizes or count == 1
            assert sizes[:-1] == [BLOCK_ROWS] * (len(sizes) - 1)

    def test_a_one_row_tail_joins_the_block_before_it(self):
        assert row_blocks(1) == [(0, 1)]
        assert row_blocks(BLOCK_ROWS) == [(0, BLOCK_ROWS)]
        assert row_blocks(BLOCK_ROWS + 1) == [(0, BLOCK_ROWS + 1)]
        assert row_blocks(BLOCK_ROWS + 2) == [(0, BLOCK_ROWS), (BLOCK_ROWS, BLOCK_ROWS + 2)]


class TestClientShard:
    def test_rows_default_to_the_whole_pool(self):
        xs, ys = np.ones((5, 2)), np.zeros((5, 3))
        shard = ClientShard(3, xs, ys)
        assert shard.size == 5
        assert np.array_equal(shard.rows, np.arange(5))

    def test_rejects_rows_outside_the_pool(self):
        xs, ys = np.ones((5, 2)), np.zeros((5, 3))
        for rows in ([], [0, 5], [-1], [[0, 1]]):
            with pytest.raises(ValueError):
                ClientShard(0, xs, ys, np.array(rows, dtype=np.int64))
        with pytest.raises(ValueError):
            ClientShard(0, xs, ys[:4])

    def test_rejects_a_malformed_pool_or_malformed_rows(self):
        xs, ys = np.ones((4, 2)), np.zeros((4, 3))
        # A mask once became rows [1, 0, 1, 0], and float rows were truncated.
        for rows in (np.array([True, False, True, False]), np.array([0.5, 2.7])):
            with pytest.raises(ValueError, match="shard rows must be integer indices"):
                ClientShard(0, xs, ys, rows)
        # A 1-d pool once failed in local_train, a 3-d one inside ndarray.take.
        for pool in (np.ones(4), np.ones((4, 2, 2))):
            with pytest.raises(ValueError, match=r"shard pool inputs must be a \(count, n\) array"):
                ClientShard(0, pool, ys)
        # 0-d targets once raised TypeError; 3-d ones passed until the first loss call.
        for targets in (np.float64(1.0), np.zeros((4, 3, 2))):
            with pytest.raises(ValueError, match=r"shard pool targets must be 4 labels or rows"):
                ClientShard(0, xs, targets)


class TestBatch:
    def test_rejects_malformed_inputs_or_targets(self):
        for inputs in (np.ones(4), np.ones((4, 2, 2)), np.ones((0, 2))):
            with pytest.raises(ValueError, match=r"batch inputs must be a \(count, n\) array"):
                Batch(inputs, np.zeros(4))
        for targets in (5, np.float64(1.0), np.zeros((4, 3, 2)), np.zeros(3)):
            with pytest.raises(ValueError, match=r"batch targets must be 4 labels or rows"):
                Batch(np.ones((4, 3)), targets)


@st.composite
def sample_arrays(draw):
    """An array of 0 to 3 dimensions whose first axis holds 0 to 4 entries."""
    ndim = draw(st.integers(0, 3))
    if ndim == 0:
        return np.array(draw(st.integers(0, 3)))
    shape = (draw(st.integers(0, 4)),) + tuple(draw(st.integers(1, 3)) for _ in range(ndim - 1))
    return np.ones(shape, dtype=draw(st.sampled_from([np.float64, np.int64])))


def built_pool(container, xs, ys):
    """The inputs and targets a ClientShard or a Batch holds once built."""
    if container == "shard":
        shard = ClientShard(0, xs, ys)
        return shard.xs, shard.ys
    batch = Batch(xs, ys)
    return batch.inputs, batch.targets


class TestSamplePoolCheck:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(container=st.sampled_from(["shard", "batch"]), xs=sample_arrays(), ys=sample_arrays())
    def test_a_malformed_pool_raises_a_value_error_naming_its_container(self, container, xs, ys):
        try:
            inputs, targets = built_pool(container, xs, ys)
        except ValueError as exc:
            assert str(exc).startswith(container), str(exc)
        else:
            assert inputs.ndim == 2 and len(inputs) >= 1 and inputs.dtype == np.float64
            assert targets.ndim in (1, 2) and len(targets) == len(inputs)


class TestSoftmaxWorld:
    def test_shards_and_held_out_batch_hold_one_hot_rows_of_the_generated_argmax(self):
        config = ExperimentConfig(m=16, n=16, samples=2000, loss="softmax-cross-entropy",
                                  skew="label-skew", skew_strength=3.0)
        world = _build_world(config)
        task = gen_task(DIM, config.samples, config.noise_std, config.seed, config.teacher_rank)
        train, held = holdout_split(task)
        pools = [world.held_out.targets] + [shard.ys for shard in world.shards]
        for pool, targets in zip(pools, [held.targets] + [train.ys] * len(world.shards)):
            assert pool.shape == targets.shape and pool.dtype == np.float64
            assert not pool.flags.writeable
            assert np.array_equal(pool, np.eye(16)[argmax_labels(targets)])
        # The argmax of a one-hot row is its class, so the label-skew
        # partition is the one the generated targets give.
        spec = SkewSpec("label-skew", 3.0, derive_seed(config.seed, _TAG_PARTITION))
        for shard, expected in zip(world.shards, partition(train, config.clients, spec), strict=True):
            assert np.array_equal(shard.rows, expected.rows)


def traced_peak(fn):
    """fn's result and the peak of the memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


LOSSES = ["squared-error", "softmax-cross-entropy"]


class TestWorldMemory:
    @pytest.mark.parametrize("loss", ["squared-error", "softmax-cross-entropy"])
    def test_building_a_world_copies_no_sample_pool(self, loss):
        config = ExperimentConfig(m=64, n=64, samples=20_000, loss=loss, skew="label-skew",
                                  skew_strength=3.0)
        pool_bytes = 2 * config.samples * 64 * 8
        tracemalloc.start()
        try:
            world = _build_world(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert world.shards[0].size > 0
        assert peak <= 1.5 * pool_bytes, peak / pool_bytes

    def test_labels_of_a_read_only_pool_copy_no_pool(self):
        ys = np.random.default_rng(32).normal(size=(20_000, 64))
        ys.flags.writeable = False
        tracemalloc.start()
        try:
            labels = argmax_labels(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(labels, np.argmax(ys, axis=1))
        assert peak <= 0.1 * ys.nbytes, peak / ys.nbytes

    @pytest.mark.parametrize("loss", LOSSES)
    def test_held_out_evaluation_forms_no_full_size_temporary(self, loss):
        world = _build_world(ExperimentConfig(m=64, n=64, samples=20_000, loss=loss))
        held = world.held_out
        eval_bytes = held.inputs.nbytes
        gen = np.random.default_rng(3)
        adapter = LoraAdapter(a=gen.normal(0, 0.1, (16, 64)), b=gen.normal(0, 0.1, (64, 16)))
        model = ToyModel(world.base, adapter)
        baseline, peak = traced_peak(
            lambda: evaluate(world.base, held, loss)
        )
        assert baseline == world.baseline
        assert peak <= 0.5 * eval_bytes, peak / eval_bytes
        loss_value, peak = traced_peak(
            lambda: evaluate(model, held, loss)
        )
        assert np.isfinite(loss_value) and loss_value != baseline
        assert peak <= 0.5 * eval_bytes, peak / eval_bytes

    def test_a_softmax_world_stays_near_its_pool(self):
        config = ExperimentConfig(m=64, n=64, samples=20_000, loss="softmax-cross-entropy")
        pool_bytes = 2 * config.samples * 64 * 8
        world, peak = traced_peak(lambda: _build_world(config))
        assert world.shards[0].size > 0
        assert peak <= 1.15 * pool_bytes, peak / pool_bytes

    @pytest.mark.parametrize("loss", LOSSES)
    def test_a_comparison_round_stays_near_its_pool(self, loss):
        config = ExperimentConfig(m=64, n=64, samples=20_000, rounds=1, loss=loss)
        pool_bytes = 2 * config.samples * 64 * 8
        strategies = ["flora", "fedit", "standalone", "centralized"]
        comparison, peak = traced_peak(lambda: compare_strategies(config, strategies))
        assert all(len(comparison.reports[s].rounds) == 1 for s in strategies)
        assert peak <= 1.15 * pool_bytes, peak / pool_bytes
