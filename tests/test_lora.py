"""Adapter values: init, dense update, trainable fraction, immutability."""

from __future__ import annotations

import numpy as np
import pytest

from florasim import (
    BaseWeights,
    Dim,
    InitPolicy,
    LoraAdapter,
    adapter_delta,
    init_adapter,
    trainable_fraction,
)
from florasim.lora import _MAX_INIT_BOUND, INIT_KINDS

EPS = float(np.finfo(np.float64).eps)


def _random_adapter(gen, m, n, r):
    return LoraAdapter(a=gen.normal(size=(r, n)), b=gen.normal(size=(m, r)))


class TestInit:
    @pytest.mark.parametrize("kind", ["zero-delta-gaussian", "zero-delta-uniform"])
    def test_fresh_adapter_has_exactly_zero_delta(self, kind):
        adapter = init_adapter(Dim(2, 2), 1, InitPolicy(kind=kind, std_or_bound=0.3), 5)
        assert np.array_equal(adapter_delta(adapter), np.zeros((2, 2)))

    def test_same_seed_is_bit_identical(self):
        policy = InitPolicy()
        first = init_adapter(Dim(6, 4), 3, policy, 99)
        second = init_adapter(Dim(6, 4), 3, policy, 99)
        assert first.a.tobytes() == second.a.tobytes()
        assert first.b.tobytes() == second.b.tobytes()

    def test_attention_scale_shapes(self):
        adapter = init_adapter(Dim(4096, 4096), 16, InitPolicy(), 0)
        assert adapter.a.shape == (16, 4096)
        assert adapter.b.shape == (4096, 16)

    def test_rejects_zero_rank_and_bad_dims(self):
        with pytest.raises(ValueError):
            init_adapter(Dim(2, 2), 0, InitPolicy(), 0)
        with pytest.raises(ValueError):
            Dim(0, 2)
        with pytest.raises(ValueError):
            InitPolicy(kind="xavier")
        with pytest.raises(ValueError):
            InitPolicy(std_or_bound=-1.0)

    @pytest.mark.parametrize("kind", INIT_KINDS)
    def test_largest_bound_draws_finite_and_one_above_is_refused(self, kind):
        largest = _MAX_INIT_BOUND[kind]
        adapter = init_adapter(Dim(4, 1000), 100, InitPolicy(kind, largest), 7)
        assert np.isfinite(adapter.a).all()
        assert np.abs(adapter.a).max() > largest / 4
        with pytest.raises(ValueError, match=f"can overflow a {kind} draw"):
            InitPolicy(kind, np.nextafter(largest, np.inf))
        with pytest.raises(ValueError, match=f"can overflow a {kind} draw"):
            InitPolicy(kind, 1e308)


class TestDelta:
    def test_hand_product(self):
        adapter = LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]])
        assert adapter_delta(adapter).tolist() == [[2.0, 0.0], [0.0, 0.0]]

    def test_zero_b_gives_zero_matrix(self):
        adapter = LoraAdapter(a=[[1.0, 2.0], [3.0, 4.0]], b=np.zeros((3, 2)))
        assert np.array_equal(adapter_delta(adapter), np.zeros((3, 2)))

    def test_matches_per_element_loop(self):
        gen = np.random.default_rng(11)
        adapter = _random_adapter(gen, 3, 3, 2)
        delta = adapter_delta(adapter)
        for x in range(3):
            for y in range(3):
                by_hand = sum(adapter.b[x][i] * adapter.a[i][y] for i in range(2))
                assert abs(delta[x][y] - by_hand) <= 8 * EPS * max(1.0, abs(by_hand))


class TestTrainableFraction:
    def test_attention_scale_value(self):
        assert trainable_fraction(Dim(4096, 4096), 16) == 0.0078125

    def test_tiny_and_stacked_values(self):
        assert trainable_fraction(Dim(2, 2), 1) == 1.0
        assert trainable_fraction(Dim(4096, 4096), 160) == 0.078125

    def test_rejects_zero_rank(self):
        with pytest.raises(ValueError):
            trainable_fraction(Dim(2, 2), 0)


class TestImmutability:
    def test_adapter_arrays_are_read_only(self):
        adapter = LoraAdapter(a=[[1.0, 2.0]], b=[[3.0], [4.0]])
        with pytest.raises(ValueError):
            adapter.a[0, 0] = 9.0
        with pytest.raises(ValueError):
            adapter.b[0, 0] = 9.0

    def test_base_weights_read_only(self):
        base = BaseWeights(np.eye(2))
        with pytest.raises(ValueError):
            base.w[0, 0] = 5.0

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            LoraAdapter(a=[[float("nan")]], b=[[1.0]])
        with pytest.raises(ValueError):
            BaseWeights([[float("inf")]])

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LoraAdapter(a=np.ones((2, 3)), b=np.ones((3, 1)))
