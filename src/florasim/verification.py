"""Built-in oracle and invariant checks behind the `verify` subcommand.

Each check pits an implementation path against an independent route (dense
weighted sums, per-entry double sums, central finite differences, closed-form
parameter counts) at a fixed tolerance and returns pass/fail with a detail
string. ``run_all`` prints one line per check.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

from .aggregation import (
    WeightedUpdate,
    aggregate_fedit,
    aggregate_flora,
    aggregate_zero_padding,
    fedit_noise,
    oracle_delta,
    shuffled_stack,
)
from .comm import CommLedger, charge_round, emit_rows
from .config import ExperimentConfig
from .lora import BaseWeights, Dim, LoraAdapter, _frobenius, adapter_delta, trainable_fraction
from .rng import derive_seed
from .simulation import compare_strategies
from .training import Batch, ToyModel, evaluate, loss_and_grads

_EPS = float(np.finfo(np.float64).eps)

HETERO_RANKS = (64, 32, 16, 16, 8, 8, 4, 4, 4, 4)


def _random_updates(
    gen: np.random.Generator, homogeneous: bool = False
) -> list[WeightedUpdate]:
    """K in [2,10], ranks in [1,8], dims in [2,32], Gaussian entries, simplex weights."""
    k = int(gen.integers(2, 11))
    m = int(gen.integers(2, 33))
    n = int(gen.integers(2, 33))
    if homogeneous:
        ranks = [int(gen.integers(1, 9))] * k
    else:
        ranks = [int(gen.integers(1, 9)) for _ in range(k)]
    raw = gen.exponential(size=k)
    weights = raw / raw.sum()
    return [
        WeightedUpdate(
            LoraAdapter(a=gen.normal(size=(r, n)), b=gen.normal(size=(m, r))), float(w)
        )
        for r, w in zip(ranks, weights)
    ]


def check_stacking_exactness() -> tuple[bool, str]:
    """Stacked aggregate equals the dense weighted sum on 100 random rounds."""
    gen = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        updates = _random_updates(gen)
        gap = np.abs(adapter_delta(aggregate_flora(updates)) - oracle_delta(updates)).max()
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    return ok, f"max gap {worst:.3e} (tol 1e-10), {elapsed:.3f}s"


def check_noise_decomposition() -> tuple[bool, str]:
    """signal + cross equals the averaged update; hand fixture cross is exact."""
    gen = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        updates = _random_updates(gen, homogeneous=True)
        report = fedit_noise(updates)
        averaged = adapter_delta(aggregate_fedit(updates))
        tol = 8 * len(updates) * _EPS * max(1.0, float(np.abs(averaged).max()))
        gap = float(np.abs(report.signal + report.cross - averaged).max())
        if gap > tol:
            return False, f"decomposition gap {gap:.3e} exceeds {tol:.3e}"
        worst = max(worst, gap)
    fixture = [
        WeightedUpdate(LoraAdapter(a=[[2.0, 0.0]], b=[[1.0], [0.0]]), 0.5),
        WeightedUpdate(LoraAdapter(a=[[0.0, 4.0]], b=[[0.0], [1.0]]), 0.5),
    ]
    cross = fedit_noise(fixture).cross
    if not np.array_equal(cross, np.array([[0.0, 1.0], [0.5, 0.0]])):
        return False, f"fixture cross {cross.tolist()} != [[0,1],[0.5,0]]"
    return True, f"max decomposition gap {worst:.3e}, fixture exact"


def check_fedit_bias() -> tuple[bool, str]:
    """Averaging strictly misses the dense weighted sum on generic rounds."""
    gen = np.random.default_rng(103)
    smallest = float("inf")
    for _ in range(100):
        updates = _random_updates(gen, homogeneous=True)
        gap = _frobenius(adapter_delta(aggregate_fedit(updates)) - oracle_delta(updates))
        smallest = min(smallest, gap)
    return smallest > 1e-12, f"min bias norm {smallest:.3e} (must exceed 1e-12)"


def check_zero_padding_collapse() -> tuple[bool, str]:
    """With equal ranks, padding then averaging is bit-identical to averaging."""
    gen = np.random.default_rng(104)
    for _ in range(50):
        updates = _random_updates(gen, homogeneous=True)
        padded = aggregate_zero_padding(updates)
        averaged = aggregate_fedit(updates)
        if padded.a.tobytes() != averaged.a.tobytes() or padded.b.tobytes() != averaged.b.tobytes():
            return False, "padded aggregate differs from averaged aggregate"
    return True, "50 homogeneous rounds bit-identical"


def check_shuffle_invariance() -> tuple[bool, str]:
    """Shuffled stacking preserves the update for every seed, any rank mix."""
    gen = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        updates = _random_updates(gen)
        reference = adapter_delta(aggregate_flora(updates))
        for seed in range(20):
            gap = np.abs(adapter_delta(shuffled_stack(updates, seed)) - reference).max()
            worst = max(worst, float(gap))
    mixed = [
        WeightedUpdate(
            LoraAdapter(a=gen.normal(size=(r, 16)), b=gen.normal(size=(16, r))), 0.1
        )
        for r in HETERO_RANKS
    ]
    shuffled = shuffled_stack(mixed, seed=7)
    if shuffled.rank != sum(HETERO_RANKS):
        return False, f"stacked rank {shuffled.rank} != {sum(HETERO_RANKS)}"
    gap = np.abs(adapter_delta(shuffled) - adapter_delta(aggregate_flora(mixed))).max()
    worst = max(worst, float(gap))
    return worst <= 1e-10, f"max gap {worst:.3e} (tol 1e-10), mixed-rank global rank 160"


def _finite_difference(model: ToyModel, batch: Batch, loss_kind: str, h: float = 1e-6):
    """Central differences of the batch loss in every adapter coordinate."""

    def loss_at(a: np.ndarray, b: np.ndarray) -> float:
        return evaluate(ToyModel(model.base, LoraAdapter(a=a, b=b)), batch, loss_kind)

    a0 = np.array(model.adapter.a)
    b0 = np.array(model.adapter.b)
    d_a = np.zeros_like(a0)
    d_b = np.zeros_like(b0)
    for idx in np.ndindex(a0.shape):
        bump = np.array(a0)
        bump[idx] += h
        up = loss_at(bump, b0)
        bump[idx] -= 2 * h
        d_a[idx] = (up - loss_at(bump, b0)) / (2 * h)
    for idx in np.ndindex(b0.shape):
        bump = np.array(b0)
        bump[idx] += h
        up = loss_at(a0, bump)
        bump[idx] -= 2 * h
        d_b[idx] = (up - loss_at(a0, bump)) / (2 * h)
    return d_a, d_b


def _grad_close(analytic: np.ndarray, numeric: np.ndarray) -> bool:
    gap = np.abs(analytic - numeric)
    return bool((gap <= 1e-8 + 1e-5 * np.abs(numeric)).all())


def check_gradients() -> tuple[bool, str]:
    """Hand gradients match central differences; one-step product identity."""
    gen = np.random.default_rng(106)
    for trial in range(50):
        m, n, r = (int(gen.integers(2, 9)) for _ in range(3))
        r = min(r, 3)
        model = ToyModel(
            BaseWeights(gen.normal(size=(m, n))),
            LoraAdapter(a=gen.normal(size=(r, n)), b=gen.normal(size=(m, r))),
        )
        batch = Batch(gen.normal(size=(4, n)), gen.normal(size=(4, m)))
        _, d_a, d_b = loss_and_grads(model, batch, "squared-error")
        fd_a, fd_b = _finite_difference(model, batch, "squared-error")
        if not (_grad_close(d_a, fd_a) and _grad_close(d_b, fd_b)):
            return False, f"finite-difference mismatch on trial {trial}"
        # One SGD step on both factors: the product moves by the first-order
        # term minus lr**2 times the gradient product, exactly.
        lr = 0.01
        a1, b1 = model.adapter.a - lr * d_a, model.adapter.b - lr * d_b
        moved = b1 @ a1 - adapter_delta(model.adapter)
        predicted = -lr * (d_b @ model.adapter.a + model.adapter.b @ d_a) + lr**2 * (d_b @ d_a)
        tol = 8 * _EPS * max(1.0, float(np.abs(moved).max()))
        if float(np.abs(moved - predicted).max()) > tol:
            return False, f"one-step identity gap on trial {trial}"
    return True, "50 instances within 1e-5 relative; one-step identity to 8 eps"


def _separation_wins(ranks: tuple[int, ...], rival: str, seeds: range) -> int:
    wins = 0
    for seed in seeds:
        config = ExperimentConfig(
            ranks=ranks,
            strategy="flora",
            strategies=(),
            rounds=10,
            epochs=1,
            lr=3e-4,
            skew="feature-shift+size-skew",
            skew_strength=1.0,
            seed=seed,
        )
        comparison = compare_strategies(config, ["flora", rival])
        losses = comparison.final_losses()
        if losses["flora"] < losses[rival]:
            wins += 1
    return wins


def check_strategy_separation() -> tuple[bool, str]:
    """Stacking beats averaging (and padding, mixed ranks) across seeds."""
    start = time.perf_counter()
    homo = _separation_wins((16,) * 10, "fedit", range(20))
    hetero = _separation_wins(HETERO_RANKS, "zero_padding", range(20))
    elapsed = time.perf_counter() - start
    ok = homo >= 18 and hetero >= 18 and elapsed < 60.0
    return ok, f"flora<fedit {homo}/20, flora<zero_padding {hetero}/20, {elapsed:.1f}s"


def check_noise_growth() -> tuple[bool, str]:
    """Median relative cross-term grows with the client count.

    Clients share the constant default weight 0.1 at every population size;
    with data-proportional 1/K weights the statistic contracts instead (the
    correct target shrinks as fast as the noise does).
    """
    medians = []
    for k in (2, 5, 10):
        values = []
        for seed in range(20):
            gen = np.random.default_rng(derive_seed(seed, k))
            updates = [
                WeightedUpdate(
                    LoraAdapter(a=gen.normal(size=(4, 16)), b=gen.normal(size=(16, 4))),
                    0.1,
                )
                for _ in range(k)
            ]
            values.append(fedit_noise(updates).relative_noise)
        medians.append(median(values))
    ok = medians[0] < medians[1] < medians[2]
    return ok, "medians " + ", ".join(f"{v:.4f}" for v in medians)


def check_comm_accounting() -> tuple[bool, str]:
    """Ledger totals match closed forms; trainable fraction matches exactly."""
    dim = Dim(4096, 4096)
    if trainable_fraction(dim, 16) != 0.0078125:
        return False, f"trainable_fraction {trainable_fraction(dim, 16)} != 0.0078125"
    k, r, rounds = 10, 16, 3
    totals = {}
    for strategy in ("flora", "fedit"):
        ledger = CommLedger()
        for t in range(rounds):
            charge_round(ledger, strategy, dim, [(i, r) for i in range(k)], t)
        totals[strategy] = ledger.total()
    m = n = 4096
    flora_expected = k * (m * n + rounds * (r + k * r) * (m + n))
    fedit_expected = k * (m * n + rounds * 2 * r * (m + n))
    if totals["flora"] != flora_expected or totals["fedit"] != fedit_expected:
        return False, f"totals {totals} != closed forms"
    adapter_only = k * rounds * 2 * r * (m + n)
    broadcast = k * m * n
    ordered = totals["flora"] > totals["fedit"] > adapter_only
    light = totals["fedit"] < 1.1 * broadcast and adapter_only < 1.1 * broadcast
    return ordered and light, (
        f"flora {totals['flora']}, fedit {totals['fedit']}, adapter-only {adapter_only}"
    )


def check_determinism() -> tuple[bool, str]:
    """Two identical comparison runs emit byte-identical report files."""
    config = ExperimentConfig()
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(2):
            path = Path(tmp) / f"run{attempt}.csv"
            comparison = compare_strategies(config, ["flora", "fedit"])
            emit_rows(comparison.to_rows(), path, seed=config.seed)
            blobs.append(path.read_bytes())
    return blobs[0] == blobs[1], f"{len(blobs[0])} bytes each"


CHECKS = (
    ("stacking-exactness", check_stacking_exactness),
    ("noise-decomposition", check_noise_decomposition),
    ("fedit-bias", check_fedit_bias),
    ("zero-padding-collapse", check_zero_padding_collapse),
    ("shuffle-invariance", check_shuffle_invariance),
    ("gradient-correctness", check_gradients),
    ("strategy-separation", check_strategy_separation),
    ("noise-growth", check_noise_growth),
    ("comm-accounting", check_comm_accounting),
    ("determinism", check_determinism),
)


def run_all(echo=print) -> bool:
    """Run every check, print one PASS/FAIL line each, return overall result.

    The checks run at the caller's BLAS thread count, on which no line
    depends (see ``_blas``). Their own products are too small for OpenBLAS
    to split, and their comparisons run on one thread in ``run_comparisons``."""
    all_ok = True
    for name, check in CHECKS:
        ok, detail = check()
        all_ok = all_ok and ok
        echo(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
