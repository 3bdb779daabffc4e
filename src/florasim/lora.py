"""Low-rank adapter algebra.

An adapter is a pair of thin factors (a: rank x n, b: m x rank) whose product
b @ a is a dense update to an m x n weight matrix. The key identity: entry
(x, y) of the product is the sum over the inner index i of b[x, i] * a[i, y],
so the product decomposes into a sum of rank-1 outer products, one per inner
index. Concatenating the a-factors of several adapters row-wise and the
b-factors column-wise therefore yields a single adapter whose product equals
the sum of the individual products exactly. That concatenation ("stacking")
places no constraint on the individual ranks. It is implemented once, in
``aggregation`` (``aggregate_flora`` and ``shuffled_stack``).

This module holds the adapter and base-weight values, fresh-adapter
initialization, the dense update b @ a and the package's one Frobenius norm.
All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INIT_KINDS = ("zero-delta-gaussian", "zero-delta-uniform")

# The largest std or bound whose every draw is finite. numpy's standard
# normal (a ziggurat) stays below 12.23 in magnitude: its tail returns r + x,
# r = 3.6542, accepting x only if x**2 < -2 log(1 - u) for a u <= 1 - 2**-53,
# so x < sqrt(106 ln 2) = 8.5717; dividing by 12.3 leaves a margin. The
# uniform draw forms high - low = 2 * bound.
_MAX_INIT_BOUND = {
    "zero-delta-gaussian": float(np.finfo(np.float64).max) / 12.3,
    "zero-delta-uniform": float(np.finfo(np.float64).max) / 2,
}


def _frozen_matrix(arr: np.ndarray, name: str) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C")
    if out.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must have finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dim:
    """Output/input dimensions (m, n) of the adapted weight matrix."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be positive, got ({self.m}, {self.n})")


@dataclass(frozen=True)
class LoraAdapter:
    """Factor pair (a: rank x n, b: m x rank) representing the update b @ a.

    Rank must be at least 1 but may exceed min(m, n): stacked global adapters
    routinely do. Arrays are copied and made read-only at construction.
    """

    a: np.ndarray
    b: np.ndarray

    @classmethod
    def _owned(cls, a: np.ndarray, b: np.ndarray) -> LoraAdapter:
        """Adapter over factors the caller made and hands over: no copy, no check.

        For the package's own hot paths (``init_adapter``'s draw and
        ``local_train``'s result), whose factors are fresh float64 C-contiguous
        matrices of matching rank that nothing else writes to. It skips
        ``__post_init__``: the arrays are frozen in place rather than copied,
        and finiteness is the caller's to ensure (``InitPolicy`` bounds
        ``init_adapter``'s draw, and ``local_train`` checks its joined buffer
        once). Anything else goes through ``LoraAdapter(a, b)``, which copies
        and validates.
        """
        a.setflags(write=False)
        b.setflags(write=False)
        adapter = object.__new__(cls)
        object.__setattr__(adapter, "a", a)
        object.__setattr__(adapter, "b", b)
        return adapter

    def __post_init__(self) -> None:
        a = _frozen_matrix(self.a, "a")
        b = _frozen_matrix(self.b, "b")
        if a.shape[0] < 1:
            raise ValueError("adapter rank must be >= 1")
        if a.shape[0] != b.shape[1]:
            raise ValueError(
                f"rank mismatch: a has {a.shape[0]} rows, b has {b.shape[1]} columns"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class BaseWeights:
    """Frozen dense pre-trained weight matrix."""

    w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _frozen_matrix(self.w, "w"))

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]

    @property
    def dim(self) -> Dim:
        return Dim(*self.w.shape)


@dataclass(frozen=True)
class InitPolicy:
    """How fresh adapters are drawn.

    Both kinds randomize the a factor only (Gaussian with the given std, or
    uniform on [-bound, bound]) and zero the b factor, so a fresh adapter's
    update is exactly the zero matrix and merging it is always a no-op. The
    std or bound is at most the kind's largest whose draws are all finite.
    """

    kind: str = "zero-delta-gaussian"
    std_or_bound: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}, expected one of {INIT_KINDS}")
        if not np.isfinite(self.std_or_bound) or self.std_or_bound < 0:
            raise ValueError(f"std_or_bound must be finite and >= 0, got {self.std_or_bound}")
        if self.std_or_bound > _MAX_INIT_BOUND[self.kind]:
            raise ValueError(
                f"std_or_bound {self.std_or_bound} can overflow a {self.kind} draw; "
                f"the largest is {_MAX_INIT_BOUND[self.kind]:.6g}"
            )


def init_adapter(dim: Dim, rank: int, policy: InitPolicy, seed: int) -> LoraAdapter:
    """Fresh adapter: a drawn per policy from a generator seeded with ``seed``
    (taken modulo 2**64), b all zeros.

    Deterministic for fixed (dim, rank, policy, seed): two calls with the same
    arguments produce bit-identical adapters.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    gen = np.random.default_rng(seed & ((1 << 64) - 1))
    if policy.kind == "zero-delta-gaussian":
        a = gen.normal(0.0, policy.std_or_bound, size=(rank, dim.n))
    else:
        a = gen.uniform(-policy.std_or_bound, policy.std_or_bound, size=(rank, dim.n))
    return LoraAdapter._owned(a, np.zeros((dim.m, rank)))


def adapter_delta(adapter: LoraAdapter) -> np.ndarray:
    """Materialize the dense update b @ a."""
    return adapter.b @ adapter.a


def _frobenius(x: np.ndarray) -> float:
    """The Frobenius (or Euclidean) norm of x, summed by numpy's own pairwise
    reduction, which makes no BLAS call. A norm through a BLAS dot, which
    OpenBLAS splits across threads, would depend on the thread count in its
    last bits."""
    return float(np.sqrt(np.add.reduce(np.square(x), axis=None)))


def trainable_fraction(dim: Dim, rank: int) -> float:
    """Adapter parameter count relative to the dense matrix: r (m + n) / (m n)."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return rank * (dim.m + dim.n) / (dim.m * dim.n)
