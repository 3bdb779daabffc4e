"""Aggregation strategies, the noise decomposition, and the privacy shuffle."""

from __future__ import annotations

from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    shuffled_stack,
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


def scaled_rank1_pieces(updates):
    """Reference: every update's rank-1 pieces (row i of a, column i of b) in
    stacking order, each a row scaled by its update's weight (the a side only)."""
    return [
        (u.weight * u.adapter.a[i : i + 1], u.adapter.b[:, i : i + 1])
        for u in updates
        for i in range(u.adapter.rank)
    ]


def stack_pieces(pieces):
    """Reference stacking: a pieces row-wise, b pieces column-wise, in list order."""
    return LoraAdapter(a=np.vstack([a for a, _ in pieces]), b=np.hstack([b for _, b in pieces]))


def hand_padded(updates):
    """Reference zero-padding: every adapter extended to the round's largest
    rank with zero rows of a and zero columns of b."""
    r_max = max(u.adapter.rank for u in updates)
    return [
        WeightedUpdate(
            LoraAdapter(
                a=np.vstack([u.adapter.a, np.zeros((r_max - u.adapter.rank, u.adapter.n))]),
                b=np.hstack([u.adapter.b, np.zeros((u.adapter.m, r_max - u.adapter.rank))]),
            ),
            u.weight,
        )
        for u in updates
    ]


@st.composite
def weighted_rounds(draw):
    """K <= 10 updates with mixed ranks 1-8, dims 2-32 and weights on the
    simplex, zero and unit weights included."""
    k = draw(st.integers(1, 10))
    m, n = draw(st.integers(2, 32)), draw(st.integers(2, 32))
    ranks = draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
    raw = draw(st.lists(st.integers(0, 1000), min_size=k, max_size=k).filter(any))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        WeightedUpdate(LoraAdapter(a=gen.normal(size=(r, n)), b=gen.normal(size=(m, r))), w / sum(raw))
        for r, w in zip(ranks, raw)
    ]


@st.composite
def integer_rounds(draw, equal_ranks=False):
    """1-10 updates with ranks 1-8 (one shared rank under equal_ranks), m, n
    in 1-16, integer factor entries in [-8, 8] and weights k/16. Every
    product and sum of these is a small multiple of 1/256, exact in float64,
    so any order of summation gives the same bits."""
    k = draw(st.integers(1, 10))
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    if equal_ranks:
        ranks = [draw(st.integers(1, 8))] * k
    else:
        ranks = draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
    weights = draw(st.lists(st.integers(0, 16), min_size=k, max_size=k))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor(rows, cols):
        return gen.integers(-8, 9, size=(rows, cols)).astype(float)

    return [WeightedUpdate(LoraAdapter(a=factor(r, n), b=factor(m, r)), w / 16) for r, w in zip(ranks, weights)]


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

    def test_shape_arithmetic(self):
        updates = [
            WeightedUpdate(LoraAdapter(a=np.ones((1, 2)), b=np.ones((3, 1))), 0.5),
            WeightedUpdate(LoraAdapter(a=np.ones((2, 2)), b=np.ones((3, 2))), 0.5),
        ]
        stacked = aggregate_flora(updates)
        assert stacked.a.shape == (3, 2)
        assert stacked.b.shape == (3, 3)
        assert stacked.rank == 3

    def test_weight_scales_the_a_side_only(self):
        adapter = LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]])
        stacked = aggregate_flora([WeightedUpdate(adapter, 0.25)])
        assert stacked.b.tobytes() == adapter.b.tobytes()
        assert stacked.a.tolist() == [[0.5, 0.0]]

    @pytest.mark.parametrize("weight", [0.0, 0.5, 1.0, 2.0])
    def test_power_of_two_weights_scale_the_update_exactly(self, weight):
        gen = np.random.default_rng(3)
        adapter = LoraAdapter(a=gen.normal(size=(2, 5)), b=gen.normal(size=(4, 2)))
        stacked = aggregate_flora([WeightedUpdate(adapter, weight)])
        assert np.array_equal(adapter_delta(stacked), weight * adapter_delta(adapter))

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

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(updates=weighted_rounds())
    def test_averages_and_splits_as_the_hand_padded_updates_property(self, updates):
        padded = hand_padded(updates)
        aggregate = aggregate_zero_padding(updates)
        reference = aggregate_fedit(padded)
        assert aggregate.rank == max(u.adapter.rank for u in updates)
        assert aggregate.a.tobytes() == reference.a.tobytes()
        assert aggregate.b.tobytes() == reference.b.tobytes()
        split, noise = fedit_noise(updates, adapter_delta(aggregate)), fedit_noise(padded)
        assert split.signal.tobytes() == noise.signal.tobytes()
        assert split.cross.tobytes() == noise.cross.tobytes()
        assert split.relative_noise == noise.relative_noise
        assert not split.signal.flags.writeable and not split.cross.flags.writeable


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

    def test_updates_whose_own_products_overflow_are_rejected(self):
        # The factors cancel in the average, whose product is finite, but each
        # client's b @ a overflows: the split raises, not its identity check.
        updates = [
            WeightedUpdate(LoraAdapter(a=[[sign * 1e200]], b=[[sign * 1e200]]), 0.5)
            for sign in (1.0, -1.0)
        ]
        assert np.isfinite(adapter_delta(aggregate_fedit(updates))).all()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                fedit_noise(updates)

    def test_an_average_that_overflows_finite_updates_is_rejected(self):
        # Each client's b @ a is about 6.7e307; the averaged factors' product is inf.
        updates = [WeightedUpdate(LoraAdapter(a=[[1e154, 0.0]], b=[[1e154 / 1.5], [0.0]]), 1.0)] * 2
        assert all(np.isfinite(adapter_delta(u.adapter)).all() for u in updates)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="the averaged update, or its cross terms, is not finite"):
                fedit_noise(updates)

    def test_entries_whose_squares_overflow_keep_their_ratio(self):
        # signal and cross are 5e307 and the oracle 1e308: their norms' squares overflow.
        updates = [WeightedUpdate(LoraAdapter(a=[[1e154, 0.0]], b=[[1e154], [0.0]]), 0.5)] * 2
        assert fedit_noise(updates).relative_noise == 0.5

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

    def test_one_rank1_update_at_full_weight_is_unchanged(self):
        adapter = LoraAdapter(a=[[1.0, 2.0]], b=[[3.0], [4.0]])
        for seed in (0, 1, 17):
            shuffled = shuffled_stack([WeightedUpdate(adapter, 1.0)], seed)
            assert shuffled.a.tobytes() == adapter.a.tobytes()
            assert shuffled.b.tobytes() == adapter.b.tobytes()

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
    the reference: scale each a, split into rank-1 pieces, stack the pieces."""

    def test_aggregate_flora(self):
        gen = np.random.default_rng(46)
        for k in [1] * 5 + [None] * 40:
            updates = random_round(gen, k=k)
            self.check_aggregate_flora(updates)

    def test_shuffled_stack(self):
        gen = np.random.default_rng(47)
        for k in [1] * 5 + [None] * 40:
            updates = random_round(gen, k=k)
            self.check_shuffled_stack(updates, int(gen.integers(0, 2**63)))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(updates=weighted_rounds(), seed=st.integers(0, 2**63 - 1))
    def test_reference_and_oracle_property(self, updates, seed):
        self.check_aggregate_flora(updates)
        self.check_shuffled_stack(updates, seed)
        oracle = oracle_delta(updates)
        assert np.abs(adapter_delta(aggregate_flora(updates)) - oracle).max() <= 1e-10
        assert np.abs(adapter_delta(shuffled_stack(updates, seed)) - oracle).max() <= 1e-10

    @staticmethod
    def check_aggregate_flora(updates):
        composed = stack_pieces(scaled_rank1_pieces(updates))
        stacked = aggregate_flora(updates)
        assert stacked.rank == sum(u.adapter.rank for u in updates)
        assert stacked.a.tobytes() == composed.a.tobytes()
        assert stacked.b.tobytes() == composed.b.tobytes()

    @staticmethod
    def check_shuffled_stack(updates, seed):
        pieces = scaled_rank1_pieces(updates)
        composed = stack_pieces([pieces[i] for i in fisher_yates(len(pieces), seed)])
        shuffled = shuffled_stack(updates, seed)
        assert shuffled.a.tobytes() == composed.a.tobytes()
        assert shuffled.b.tobytes() == composed.b.tobytes()


class TestExactOnIntegerFactors:
    """The paper's claim with no tolerance: on factors whose arithmetic is
    exact, stacking reproduces the dense weighted sum bit for bit, and
    averaging's cross term is the hand double sum over client pairs."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(updates=integer_rounds(), seed=st.integers(0, 2**63 - 1))
    def test_stacking_is_the_oracle(self, updates, seed):
        oracle = oracle_delta(updates)
        assert np.array_equal(adapter_delta(aggregate_flora(updates)), oracle)
        assert np.array_equal(adapter_delta(aggregate_flora(updates[::-1])), oracle)
        assert np.array_equal(adapter_delta(shuffled_stack(updates, seed)), oracle)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(updates=integer_rounds(equal_ranks=True))
    def test_averaging_cross_term_is_the_double_sum(self, updates):
        double_sum = np.zeros((updates[0].adapter.m, updates[0].adapter.n))
        for i, ui in enumerate(updates):
            for j, uj in enumerate(updates):
                if i != j:
                    double_sum += ui.weight * uj.weight * (ui.adapter.b @ uj.adapter.a)
        assert np.array_equal(fedit_noise(updates).cross, double_sum)


class TestWeightedUpdate:
    @pytest.mark.parametrize("weight", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_weights(self, weight):
        with pytest.raises(ValueError):
            WeightedUpdate(LoraAdapter(a=[[1.0]], b=[[1.0]]), weight)

    @pytest.mark.parametrize(
        "combine",
        [
            aggregate_flora,
            aggregate_fedit,
            aggregate_zero_padding,
            oracle_delta,
            lambda updates: shuffled_stack(updates, seed=0),
        ],
        ids=["flora", "fedit", "zero_padding", "oracle", "shuffled_stack"],
    )
    def test_every_combination_rejects_mismatched_base_shapes(self, combine):
        updates = [
            WeightedUpdate(LoraAdapter(a=np.ones((1, 2)), b=np.ones((2, 1))), 0.5),
            WeightedUpdate(LoraAdapter(a=np.ones((1, 3)), b=np.ones((2, 1))), 0.5),
        ]
        with pytest.raises(ValueError, match="disagree on base shape"):
            combine(updates)

    def test_split_stack_shuffle_pipeline_stays_consistent(self):
        # Unit weights: stacking the unscaled rank-1 pieces rebuilds the stack.
        gen = np.random.default_rng(30)
        updates = [WeightedUpdate(u.adapter, 1.0) for u in random_round(gen)]
        rebuilt = stack_pieces(scaled_rank1_pieces(updates))
        assert rebuilt.rank == sum(u.adapter.rank for u in updates)
        assert rebuilt.a.tobytes() == aggregate_flora(updates).a.tobytes()
