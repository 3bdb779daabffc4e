"""Aggregation strategies, the noise decomposition, and the privacy shuffle."""

from __future__ import annotations

from statistics import median

import numpy as np
import pytest

from florasim import (
    HeterogeneousRankError,
    LoraAdapter,
    WeightedUpdate,
    adapter_delta,
    aggregate_fedit,
    aggregate_flora,
    aggregate_zero_padding,
    fedit_noise,
    oracle_delta,
    scale_adapter,
    shuffled_stack,
    split_rank1,
    stack_adapters,
)
from florasim.rng import derive_seed, fisher_yates

EPS = float(np.finfo(np.float64).eps)

HETERO_RANKS = (64, 32, 16, 16, 8, 8, 4, 4, 4, 4)


def two_client_fixture():
    return [
        WeightedUpdate(LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]]), 0.5),
        WeightedUpdate(LoraAdapter(a=[[0.0, 4.0]], b=[[0.0], [1.0]]), 0.5),
    ]


def random_round(gen, homogeneous=False, k=None):
    k = k if k is not None else int(gen.integers(2, 11))
    m, n = int(gen.integers(2, 33)), int(gen.integers(2, 33))
    if homogeneous:
        ranks = [int(gen.integers(1, 9))] * k
    else:
        ranks = [int(gen.integers(1, 9)) for _ in range(k)]
    raw = gen.exponential(size=k)
    weights = raw / raw.sum()
    return [
        WeightedUpdate(LoraAdapter(a=gen.normal(size=(r, n)), b=gen.normal(size=(m, r))), float(w))
        for r, w in zip(ranks, weights)
    ]


class TestFlora:
    def test_hand_fixture(self):
        delta = adapter_delta(aggregate_flora(two_client_fixture()))
        assert delta.tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_single_client_is_identity(self):
        update = WeightedUpdate(LoraAdapter(a=[[1.0, 2.0]], b=[[3.0], [4.0]]), 1.0)
        assert np.array_equal(
            adapter_delta(aggregate_flora([update])), adapter_delta(update.adapter)
        )

    def test_hetero_profile_global_rank(self):
        gen = np.random.default_rng(0)
        updates = [
            WeightedUpdate(LoraAdapter(a=gen.normal(size=(r, 8)), b=gen.normal(size=(8, r))), 0.1)
            for r in HETERO_RANKS
        ]
        assert aggregate_flora(updates).rank == 160

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_flora([])

    def test_matches_oracle_on_random_rounds(self):
        gen = np.random.default_rng(21)
        for _ in range(50):
            updates = random_round(gen)
            gap = np.abs(adapter_delta(aggregate_flora(updates)) - oracle_delta(updates)).max()
            assert gap <= 1e-10


class TestFedit:
    def test_hand_fixture_factors_and_bias(self):
        aggregate = aggregate_fedit(two_client_fixture())
        assert aggregate.a.tolist() == [[1.0, 2.0]]
        assert aggregate.b.tolist() == [[0.5], [0.5]]
        delta = adapter_delta(aggregate)
        assert delta.tolist() == [[0.5, 1.0], [0.5, 1.0]]
        assert not np.array_equal(delta, oracle_delta(two_client_fixture()))

    def test_single_client_full_weight_is_exact(self):
        update = WeightedUpdate(LoraAdapter(a=[[1.0, 2.0]], b=[[3.0], [4.0]]), 1.0)
        assert np.array_equal(
            adapter_delta(aggregate_fedit([update])), adapter_delta(update.adapter)
        )

    def test_identical_clients_recover_common_update(self):
        gen = np.random.default_rng(14)
        adapter = LoraAdapter(a=gen.normal(size=(3, 5)), b=gen.normal(size=(4, 3)))
        updates = [WeightedUpdate(adapter, 0.25) for _ in range(4)]
        aggregated = adapter_delta(aggregate_fedit(updates))
        assert np.abs(aggregated - adapter_delta(adapter)).max() <= 32 * EPS * 4

    def test_rejects_heterogeneous_ranks(self):
        gen = np.random.default_rng(15)
        updates = [
            WeightedUpdate(LoraAdapter(a=gen.normal(size=(1, 3)), b=gen.normal(size=(2, 1))), 0.5),
            WeightedUpdate(LoraAdapter(a=gen.normal(size=(2, 3)), b=gen.normal(size=(2, 2))), 0.5),
        ]
        with pytest.raises(HeterogeneousRankError):
            aggregate_fedit(updates)

    def test_strict_bias_on_random_rounds(self):
        gen = np.random.default_rng(22)
        for _ in range(50):
            updates = random_round(gen, homogeneous=True)
            gap = np.linalg.norm(adapter_delta(aggregate_fedit(updates)) - oracle_delta(updates))
            assert gap > 1e-12


class TestZeroPadding:
    def test_homogeneous_is_bit_identical_to_fedit(self):
        gen = np.random.default_rng(16)
        for _ in range(50):
            updates = random_round(gen, homogeneous=True)
            padded = aggregate_zero_padding(updates)
            averaged = aggregate_fedit(updates)
            assert padded.a.tobytes() == averaged.a.tobytes()
            assert padded.b.tobytes() == averaged.b.tobytes()

    def test_mixed_ranks_hand_construction(self):
        a0, b0 = np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])
        a1, b1 = np.array([[5.0, 6.0], [7.0, 8.0]]), np.array([[1.0, 0.5], [2.0, 1.5]])
        w0, w1 = 0.25, 0.75
        updates = [
            WeightedUpdate(LoraAdapter(a=a0, b=b0), w0),
            WeightedUpdate(LoraAdapter(a=a1, b=b1), w1),
        ]
        # Pad the rank-1 pair by hand, then average both sides with weights.
        a0_pad = np.vstack([a0, np.zeros((1, 2))])
        b0_pad = np.hstack([b0, np.zeros((2, 1))])
        expected = (w0 * b0_pad + w1 * b1) @ (w0 * a0_pad + w1 * a1)
        result = adapter_delta(aggregate_zero_padding(updates))
        assert np.abs(result - expected).max() <= 16 * EPS * max(1.0, np.abs(expected).max())

    def test_single_client_identity(self):
        update = WeightedUpdate(LoraAdapter(a=[[1.0, 2.0]], b=[[3.0], [4.0]]), 1.0)
        padded = aggregate_zero_padding([update])
        assert padded.rank == 1
        assert np.array_equal(adapter_delta(padded), adapter_delta(update.adapter))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_zero_padding([])


class TestOracleDelta:
    def test_hand_fixture(self):
        assert oracle_delta(two_client_fixture()).tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_all_zero_weights(self):
        updates = [WeightedUpdate(u.adapter, 0.0) for u in two_client_fixture()]
        assert np.array_equal(oracle_delta(updates), np.zeros((2, 2)))

    def test_single_client_equals_delta(self):
        update = WeightedUpdate(LoraAdapter(a=[[1.0, 2.0]], b=[[3.0], [4.0]]), 1.0)
        assert np.array_equal(oracle_delta([update]), adapter_delta(update.adapter))


class TestNoiseReport:
    def test_hand_fixture_cross_is_exact(self):
        report = fedit_noise(two_client_fixture())
        assert report.cross.tolist() == [[0.0, 1.0], [0.5, 0.0]]
        assert report.signal.tolist() == [[0.5, 0.0], [0.0, 1.0]]
        assert report.relative_noise == pytest.approx(0.5)

    def test_cross_matches_double_sum_oracle(self):
        gen = np.random.default_rng(23)
        for _ in range(30):
            updates = random_round(gen, homogeneous=True)
            report = fedit_noise(updates)
            k = len(updates)
            double_sum = np.zeros_like(report.cross)
            for i in range(k):
                for j in range(k):
                    if i != j:
                        double_sum += (
                            updates[i].weight
                            * updates[j].weight
                            * (updates[i].adapter.b @ updates[j].adapter.a)
                        )
            scale = max(1.0, float(np.abs(double_sum).max()))
            assert np.abs(report.cross - double_sum).max() <= 8 * k * k * EPS * scale

    def test_decomposition_identity(self):
        gen = np.random.default_rng(24)
        for _ in range(30):
            updates = random_round(gen, homogeneous=True)
            report = fedit_noise(updates)
            averaged = adapter_delta(aggregate_fedit(updates))
            tol = 8 * len(updates) * EPS * max(1.0, float(np.abs(averaged).max()))
            assert np.abs(report.signal + report.cross - averaged).max() <= tol

    @pytest.mark.parametrize("weight", [1.0, 0.7])
    def test_single_client_has_no_cross_term(self, weight):
        update = WeightedUpdate(LoraAdapter(a=[[1.0, 2.0]], b=[[3.0], [4.0]]), weight)
        report = fedit_noise([update])
        assert np.array_equal(report.cross, np.zeros((2, 2)))
        assert report.relative_noise == 0.0

    def test_identical_clients_closed_form(self):
        gen = np.random.default_rng(25)
        k = 5
        adapter = LoraAdapter(a=gen.normal(size=(3, 6)), b=gen.normal(size=(4, 3)))
        updates = [WeightedUpdate(adapter, 1.0 / k) for _ in range(k)]
        report = fedit_noise(updates)
        delta = adapter_delta(adapter)
        assert np.allclose(report.signal, delta / k, atol=64 * EPS)
        assert np.allclose(report.cross, (1 - 1 / k) * delta, atol=64 * EPS)

    def test_zero_adapters_define_zero_over_zero_as_zero(self):
        updates = [
            WeightedUpdate(LoraAdapter(a=np.zeros((1, 2)), b=np.zeros((2, 1))), 0.5)
            for _ in range(2)
        ]
        assert fedit_noise(updates).relative_noise == 0.0

    def test_rejects_heterogeneous(self):
        gen = np.random.default_rng(26)
        updates = [
            WeightedUpdate(LoraAdapter(a=gen.normal(size=(1, 3)), b=gen.normal(size=(2, 1))), 0.5),
            WeightedUpdate(LoraAdapter(a=gen.normal(size=(2, 3)), b=gen.normal(size=(2, 2))), 0.5),
        ]
        with pytest.raises(HeterogeneousRankError):
            fedit_noise(updates)

    def test_relative_noise_grows_with_constant_client_weight(self):
        medians = []
        for k in (2, 5, 10):
            values = []
            for seed in range(20):
                gen = np.random.default_rng(derive_seed(seed, k))
                updates = [
                    WeightedUpdate(
                        LoraAdapter(a=gen.normal(size=(4, 16)), b=gen.normal(size=(16, 4))), 0.1
                    )
                    for _ in range(k)
                ]
                values.append(fedit_noise(updates).relative_noise)
            medians.append(median(values))
        assert medians[0] < medians[1] < medians[2]


class TestShuffledStack:
    def test_update_invariant_under_shuffle(self):
        gen = np.random.default_rng(27)
        for _ in range(10):
            updates = random_round(gen)
            reference = adapter_delta(aggregate_flora(updates))
            for seed in (0, 1, 17):
                gap = np.abs(adapter_delta(shuffled_stack(updates, seed)) - reference).max()
                assert gap <= 1e-10

    def test_identity_permutation_seed_is_bit_identical(self):
        # fisher_yates(4, 21) is the identity permutation.
        assert fisher_yates(4, 21) == [0, 1, 2, 3]
        gen = np.random.default_rng(28)
        updates = random_round(gen, k=2)
        while sum(u.adapter.rank for u in updates) != 4:
            updates = random_round(gen, k=2)
        shuffled = shuffled_stack(updates, seed=21)
        plain = aggregate_flora(updates)
        assert shuffled.a.tobytes() == plain.a.tobytes()
        assert shuffled.b.tobytes() == plain.b.tobytes()

    def test_some_seed_breaks_client_contiguity(self):
        # Three clients with ranks (2, 1, 1); rows of a identify the owner.
        updates = [
            WeightedUpdate(LoraAdapter(a=np.full((2, 3), 1.0), b=np.ones((2, 2))), 1.0),
            WeightedUpdate(LoraAdapter(a=np.full((1, 3), 2.0), b=np.ones((2, 1))), 1.0),
            WeightedUpdate(LoraAdapter(a=np.full((1, 3), 3.0), b=np.ones((2, 1))), 1.0),
        ]
        found = False
        for seed in range(10):
            stacked = shuffled_stack(updates, seed)
            assert stacked.rank == 4
            owners = stacked.a[:, 0].tolist()
            if all(owners[i] != owners[i + 1] for i in range(3)):
                found = True
        assert found

    def test_hetero_profile_rank_and_equality(self):
        gen = np.random.default_rng(29)
        updates = [
            WeightedUpdate(LoraAdapter(a=gen.normal(size=(r, 16)), b=gen.normal(size=(16, r))), 0.1)
            for r in HETERO_RANKS
        ]
        shuffled = shuffled_stack(updates, seed=3)
        assert shuffled.rank == 160
        gap = np.abs(adapter_delta(shuffled) - adapter_delta(aggregate_flora(updates))).max()
        assert gap <= 1e-10


class TestStackingFactorsMatchAdapterComposition:
    """Stacking builds its factors directly; they must equal, byte for byte,
    the composition of scale_adapter, split_rank1 and stack_adapters."""

    def test_aggregate_flora(self):
        gen = np.random.default_rng(46)
        for k in [1] * 5 + [None] * 40:
            updates = random_round(gen, k=k)
            composed = stack_adapters([scale_adapter(u.adapter, u.weight) for u in updates])
            stacked = aggregate_flora(updates)
            assert stacked.a.tobytes() == composed.a.tobytes()
            assert stacked.b.tobytes() == composed.b.tobytes()

    def test_shuffled_stack(self):
        gen = np.random.default_rng(47)
        for k in [1] * 5 + [None] * 40:
            updates = random_round(gen, k=k)
            seed = int(gen.integers(0, 2**63))
            pieces = [p for u in updates for p in split_rank1(scale_adapter(u.adapter, u.weight))]
            composed = stack_adapters([pieces[i] for i in fisher_yates(len(pieces), seed)])
            shuffled = shuffled_stack(updates, seed)
            assert shuffled.a.tobytes() == composed.a.tobytes()
            assert shuffled.b.tobytes() == composed.b.tobytes()


class TestWeightedUpdate:
    @pytest.mark.parametrize("weight", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_weights(self, weight):
        with pytest.raises(ValueError):
            WeightedUpdate(LoraAdapter(a=[[1.0]], b=[[1.0]]), weight)

    def test_split_stack_shuffle_pipeline_stays_consistent(self):
        gen = np.random.default_rng(30)
        updates = random_round(gen)
        pieces = [p for u in updates for p in split_rank1(u.adapter)]
        rebuilt = stack_adapters(pieces)
        assert rebuilt.rank == sum(u.adapter.rank for u in updates)
