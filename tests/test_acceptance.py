"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single line when its criterion holds; run with -s (or on
failure pytest shows the captured output). Random instances are generated
fresh here with independent oracles rather than reusing the library's
verification module.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np
import pytest

from florasim import (
    CommLedger,
    Dim,
    ExperimentConfig,
    LoraAdapter,
    ToyModel,
    WeightedUpdate,
    adapter_delta,
    aggregate_fedit,
    aggregate_flora,
    aggregate_zero_padding,
    charge_round,
    compare_strategies,
    fedit_noise,
    loss_and_grads,
    oracle_delta,
    shuffled_stack,
    trainable_fraction,
)
from florasim.cli import main
from florasim.lora import BaseWeights
from florasim.rng import derive_seed
from florasim.training import Batch

EPS = float(np.finfo(np.float64).eps)
HETERO_RANKS = (64, 32, 16, 16, 8, 8, 4, 4, 4, 4)


def random_round(gen, homogeneous=False):
    k = int(gen.integers(2, 11))
    m, n = int(gen.integers(2, 33)), int(gen.integers(2, 33))
    ranks = [int(gen.integers(1, 9))] * k if homogeneous else [int(gen.integers(1, 9)) for _ in range(k)]
    raw = gen.exponential(size=k)
    weights = raw / raw.sum()
    return [
        WeightedUpdate(LoraAdapter(a=gen.normal(size=(r, n)), b=gen.normal(size=(m, r))), float(w))
        for r, w in zip(ranks, weights)
    ]


def test_criterion_1_stacking_exactness():
    gen = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        updates = random_round(gen)
        gap = np.abs(adapter_delta(aggregate_flora(updates)) - oracle_delta(updates)).max()
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: stacking exactness, max gap {worst:.3e} in {elapsed:.3f}s")


def test_criterion_2_noise_decomposition():
    gen = np.random.default_rng(1002)
    for _ in range(100):
        updates = random_round(gen, homogeneous=True)
        report = fedit_noise(updates)
        averaged = adapter_delta(aggregate_fedit(updates))
        tol = 8 * len(updates) * EPS * max(1.0, float(np.abs(averaged).max()))
        assert np.abs(report.signal + report.cross - averaged).max() <= tol
    fixture = [
        WeightedUpdate(LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]]), 0.5),
        WeightedUpdate(LoraAdapter(a=[[0.0, 4.0]], b=[[0.0], [1.0]]), 0.5),
    ]
    assert fedit_noise(fixture).cross.tolist() == [[0.0, 1.0], [0.5, 0.0]]
    print("PASS criterion 2: noise decomposition within 8K eps, fixture cross exact")


def test_criterion_3_fedit_bias_is_strict():
    gen = np.random.default_rng(1003)
    smallest = float("inf")
    for _ in range(100):
        updates = random_round(gen, homogeneous=True)
        gap = float(np.linalg.norm(adapter_delta(aggregate_fedit(updates)) - oracle_delta(updates)))
        smallest = min(smallest, gap)
    assert smallest > 1e-12
    print(f"PASS criterion 3: averaging bias strict, min Frobenius gap {smallest:.3e}")


def test_criterion_4_zero_padding_collapse():
    gen = np.random.default_rng(1004)
    for _ in range(50):
        updates = random_round(gen, homogeneous=True)
        padded = aggregate_zero_padding(updates)
        averaged = aggregate_fedit(updates)
        assert padded.a.tobytes() == averaged.a.tobytes()
        assert padded.b.tobytes() == averaged.b.tobytes()
    print("PASS criterion 4: zero-padding bit-identical to averaging, 50 rounds")


def test_criterion_5_privacy_shuffle():
    gen = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        updates = random_round(gen)
        reference = adapter_delta(aggregate_flora(updates))
        for seed in range(20):
            gap = np.abs(adapter_delta(shuffled_stack(updates, seed)) - reference).max()
            worst = max(worst, float(gap))
    mixed = [
        WeightedUpdate(LoraAdapter(a=gen.normal(size=(r, 16)), b=gen.normal(size=(16, r))), 0.1)
        for r in HETERO_RANKS
    ]
    reference = adapter_delta(aggregate_flora(mixed))
    for seed in range(20):
        shuffled = shuffled_stack(mixed, seed)
        assert shuffled.rank == 160
        worst = max(worst, float(np.abs(adapter_delta(shuffled) - reference).max()))
    assert worst <= 1e-10
    print(f"PASS criterion 5: shuffle invariance across seeds, max gap {worst:.3e}, rank 160")


def test_criterion_6_gradient_correctness():
    gen = np.random.default_rng(1006)
    for _ in range(50):
        m, n = int(gen.integers(2, 9)), int(gen.integers(2, 9))
        r = int(gen.integers(1, 4))
        model = ToyModel(
            BaseWeights(gen.normal(size=(m, n))),
            LoraAdapter(a=gen.normal(size=(r, n)), b=gen.normal(size=(m, r))),
        )
        batch = Batch(inputs=gen.normal(size=(4, n)), targets=gen.normal(size=(4, m)))
        _, d_a, d_b = loss_and_grads(model, batch, "squared-error")

        def loss_at(a, b):
            value, _, _ = loss_and_grads(ToyModel(model.base, LoraAdapter(a=a, b=b)), batch, "squared-error")
            return value

        h = 1e-6
        for analytic, point, other, is_a in ((d_a, model.adapter.a, model.adapter.b, True),
                                             (d_b, model.adapter.b, model.adapter.a, False)):
            numeric = np.zeros_like(analytic)
            for idx in np.ndindex(point.shape):
                bumped = np.array(point)
                bumped[idx] = point[idx] + h
                up = loss_at(bumped, other) if is_a else loss_at(other, bumped)
                bumped[idx] = point[idx] - h
                down = loss_at(bumped, other) if is_a else loss_at(other, bumped)
                numeric[idx] = (up - down) / (2 * h)
            assert (np.abs(analytic - numeric) <= 1e-8 + 1e-5 * np.abs(numeric)).all()

        lr = 0.02
        a1, b1 = model.adapter.a - lr * d_a, model.adapter.b - lr * d_b
        moved = b1 @ a1 - adapter_delta(model.adapter)
        predicted = -lr * (d_b @ model.adapter.a + model.adapter.b @ d_a) + lr**2 * (d_b @ d_a)
        assert np.abs(moved - predicted).max() <= 8 * EPS * max(1.0, float(np.abs(moved).max()))
    print("PASS criterion 6: gradients within 1e-5 of central differences; one-step identity to 8 eps")


def test_criterion_7_desk_scale_strategy_comparison():
    start = time.perf_counter()

    def wins(ranks, rival):
        count = 0
        for seed in range(20):
            config = ExperimentConfig(
                ranks=ranks,
                rounds=10,
                epochs=1,
                lr=3e-4,
                skew="feature-shift+size-skew",
                skew_strength=1.0,
                seed=seed,
            )
            finals = compare_strategies(config, ["flora", rival]).final_losses()
            count += finals["flora"] < finals[rival]
        return count

    homo = wins((16,) * 10, "fedit")
    hetero = wins(HETERO_RANKS, "zero_padding")
    elapsed = time.perf_counter() - start
    assert homo >= 18
    assert hetero >= 18
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: flora<fedit in {homo}/20 seeds, "
        f"flora<zero_padding in {hetero}/20, {elapsed:.1f}s"
    )


def test_criterion_8_noise_growth_with_clients():
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
    print(
        "PASS criterion 8: relative noise medians grow with K: "
        + ", ".join(f"{v:.4f}" for v in medians)
    )


def test_criterion_9_communication_accounting():
    dim = Dim(4096, 4096)
    assert trainable_fraction(dim, 16) == 0.0078125
    m = n = 4096
    k, r, rounds = 10, 16, 3
    totals = {}
    for strategy in ("flora", "fedit"):
        ledger = CommLedger()
        for t in range(rounds):
            charge_round(ledger, strategy, dim, [(i, r) for i in range(k)], t)
        totals[strategy] = ledger.total()
    assert totals["flora"] == k * (m * n + rounds * (r + k * r) * (m + n))
    assert totals["fedit"] == k * (m * n + rounds * 2 * r * (m + n))
    adapter_only = k * rounds * 2 * r * (m + n)
    broadcast = k * m * n
    assert totals["flora"] > totals["fedit"] > adapter_only
    # The two smaller quantities sit within 1.1x of the one-time broadcast;
    # the stacked total is provably 1.2578x at these dims (see its closed form).
    assert totals["fedit"] < 1.1 * broadcast
    assert adapter_only < 1.1 * broadcast
    print(
        f"PASS criterion 9: fraction 0.0078125 exact; totals flora={totals['flora']}, "
        f"fedit={totals['fedit']}, adapter-only={adapter_only}"
    )


def test_criterion_10_byte_identical_reports(tmp_path):
    blobs = []
    for attempt in range(2):
        out = tmp_path / f"compare{attempt}.csv"
        code = main(["compare", "--preset", "homo16", "--seed", "42", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    print(f"PASS criterion 10: two compare runs byte-identical ({len(blobs[0])} bytes)")
