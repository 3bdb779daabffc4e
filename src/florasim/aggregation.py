"""Server-side aggregation of client adapters, and the averaging-noise analysis.

Three strategies are implemented over the same weighted-update input:

* stacking: each client's adapter is scaled by its weight (a side only) and
  the scaled adapters are concatenated. The resulting update equals the
  weighted sum of client updates exactly, at the cost of a global rank equal
  to the sum of client ranks. Works for arbitrary mixed ranks.
* averaging: the a factors and b factors are averaged independently with the
  weight applied to both sides. The product of averages is not the average
  of products, so this is biased; it also requires every rank to be equal.
* zero-padding: mixed-rank adapters are extended to the maximum rank with
  zero rows/columns and then averaged exactly as above.

``fedit_noise`` splits the averaged update into the self-term (weights appear
squared) and the cross-client term that separable averaging introduces, and
reports the size of that term relative to the correct weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HeterogeneousRankError
from .lora import LoraAdapter, adapter_delta
from .rng import fisher_yates

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class WeightedUpdate:
    """One client's uploaded adapter together with its scaling weight."""

    adapter: LoraAdapter
    weight: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.weight) or self.weight < 0:
            raise ValueError(f"weight must be finite and >= 0, got {self.weight}")


@dataclass(frozen=True)
class NoiseReport:
    """Decomposition of the averaged aggregate into self- and cross-terms.

    signal: sum over clients of weight**2 * (b @ a) — the surviving
        self-terms, with the squared-weight shrinkage they carry.
    cross: everything else in the averaged product, i.e. the mixed-client
        outer products; signal + cross equals the averaged aggregate's update.
    relative_noise: Frobenius norm of cross over the norm of the correct
        weighted-sum update (0 when both vanish).
    """

    signal: np.ndarray
    cross: np.ndarray
    relative_noise: float


def _check_round(updates: list[WeightedUpdate]) -> None:
    if len(updates) == 0:
        raise ValueError("cannot aggregate an empty round")
    shapes = {(u.adapter.m, u.adapter.n) for u in updates}
    if len(shapes) != 1:
        raise ValueError(f"adapters disagree on base shape: {sorted(shapes)}")


def _check_homogeneous(updates: list[WeightedUpdate]) -> int:
    ranks = sorted({u.adapter.rank for u in updates})
    if len(ranks) != 1:
        raise HeterogeneousRankError(
            f"independent averaging cannot combine mixed adapter ranks {ranks}; "
            "use stacking or zero-padding"
        )
    return ranks[0]


def aggregate_flora(updates: list[WeightedUpdate]) -> LoraAdapter:
    """Stacking aggregation: scale each adapter by its weight, concatenate.

    The update of the result is the weighted sum of client updates with no
    cross-client contamination; global rank is the sum of client ranks.
    """
    return LoraAdapter(*_stacked_factors(updates))


def _stacked_factors(updates: list[WeightedUpdate]) -> tuple[np.ndarray, np.ndarray]:
    """The stacked (a, b): weight-scaled a factors row-wise, b factors column-wise.

    Bit-identical to stacking ``scale_adapter(u.adapter, u.weight)`` for every
    update, without building the scaled adapters.
    """
    _check_round(updates)
    return (
        np.vstack([u.weight * u.adapter.a for u in updates]),
        np.hstack([u.adapter.b for u in updates]),
    )


def aggregate_fedit(updates: list[WeightedUpdate]) -> LoraAdapter:
    """Independent weighted averaging of the a and b factors.

    Requires homogeneous ranks. The weight is applied to both factors, so
    each client's own update enters the product with its weight squared and
    mixed-client products appear alongside: see ``fedit_noise``.
    """
    _check_round(updates)
    _check_homogeneous(updates)
    a = np.zeros_like(updates[0].adapter.a)
    b = np.zeros_like(updates[0].adapter.b)
    for u in updates:
        a += u.weight * u.adapter.a
        b += u.weight * u.adapter.b
    return LoraAdapter(a=a, b=b)


def _pad_to_rank(adapter: LoraAdapter, rank: int) -> LoraAdapter:
    if adapter.rank == rank:
        return adapter
    extra = rank - adapter.rank
    return LoraAdapter(
        a=np.vstack([adapter.a, np.zeros((extra, adapter.n))]),
        b=np.hstack([adapter.b, np.zeros((adapter.m, extra))]),
    )


def padded_updates(updates: list[WeightedUpdate]) -> list[WeightedUpdate]:
    """Extend every adapter to the round's maximum rank with zeros."""
    _check_round(updates)
    r_max = max(u.adapter.rank for u in updates)
    return [WeightedUpdate(_pad_to_rank(u.adapter, r_max), u.weight) for u in updates]


def aggregate_zero_padding(updates: list[WeightedUpdate]) -> LoraAdapter:
    """Pad every adapter to the maximum rank with zeros, then average.

    Under homogeneous ranks the padding is a no-op and the result is
    bit-identical to ``aggregate_fedit``.
    """
    return aggregate_fedit(padded_updates(updates))


def oracle_delta(updates: list[WeightedUpdate]) -> np.ndarray:
    """Ground-truth aggregate: the dense weighted sum of client updates.

    Every strategy is judged against this matrix; stacking reproduces it,
    averaging does not.
    """
    _check_round(updates)
    out = np.zeros((updates[0].adapter.m, updates[0].adapter.n))
    for u in updates:
        out += u.weight * adapter_delta(u.adapter)
    return out


def fedit_noise(updates: list[WeightedUpdate]) -> NoiseReport:
    """Split the averaged aggregate's update into signal and cross terms.

    signal is accumulated directly as the squared-weight self-terms; cross is
    obtained by subtracting signal from the dense averaged update, which is
    algebraically identical to the double sum over ordered client pairs but
    costs one dense product instead of K**2. The oracle weighted sum is
    accumulated in the same pass, in ``oracle_delta``'s order, so it is
    bit-identical to that function's result.
    """
    _check_round(updates)
    _check_homogeneous(updates)
    averaged = adapter_delta(aggregate_fedit(updates))
    signal = np.zeros_like(averaged)
    oracle = np.zeros_like(averaged)
    for u in updates:
        delta = adapter_delta(u.adapter)
        signal += (u.weight**2) * delta
        oracle += u.weight * delta
    cross = averaged - signal

    scale = max(1.0, float(np.abs(averaged).max()))
    tol = 8 * len(updates) * _EPS * scale
    assert np.abs((signal + cross) - averaged).max() <= tol

    cross_norm = float(np.linalg.norm(cross))
    oracle_norm = float(np.linalg.norm(oracle))
    if cross_norm == 0.0:
        relative = 0.0
    elif oracle_norm == 0.0:
        relative = float("inf")
    else:
        relative = cross_norm / oracle_norm
    return NoiseReport(
        signal=_readonly(signal), cross=_readonly(cross), relative_noise=relative
    )


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def shuffled_stack(updates: list[WeightedUpdate], seed: int) -> LoraAdapter:
    """Stacking aggregation with the privacy shuffle.

    The rank-1 pieces of the stacked adapter (row i of a with column i of b)
    are permuted uniformly (seeded Fisher-Yates, see ``rng``): the same
    factors as splitting every scaled adapter with ``split_rank1`` and
    stacking the permuted pieces. The resulting update is identical to
    ``aggregate_flora`` — a sum of rank-1 terms is order-independent — but
    the row/column layout no longer reveals which contiguous block came from
    which client.
    """
    a, b = _stacked_factors(updates)
    order = fisher_yates(len(a), seed)
    return LoraAdapter(a=a[order], b=b[:, order])
