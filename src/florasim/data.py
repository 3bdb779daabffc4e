"""Synthetic federated task generation and non-IID partitioning.

The global task is a linear teacher: targets are y = w_star x + noise, and
the pre-trained base w sits a low-rank perturbation away from w_star, so a
sufficiently ranked adapter can close the gap exactly. The generated sample
pool is the only copy of the data: its arrays are read-only, a client
shard is a list of row indices into them, and the held-out set is a
``Batch`` of the pool's tail rows. Whole-pool work goes through the
rows in blocks (``row_blocks``): task targets here, labels, and the held-out
loss in ``training``, so no full-size temporary sits beside the pool.

Partitioning assigns the generated samples to clients without modifying or
copying them — every skew is a biased assignment of rows, so the union of
shards is always exactly the sample set:

* iid: seeded random assignment, near-equal sizes.
* feature-shift: samples are ordered by a noisy projection onto a seeded
  direction and handed out in contiguous chunks, so each client's input mean
  is offset along that direction; strength scales the projection against
  unit noise (0 = pure noise = iid, large = hard sort).
* size-skew: shard sizes are drawn from a Pareto distribution with shape
  equal to strength (0 = equal sizes), floored at one sample.
* label-skew: samples are pseudo-labelled by the argmax coordinate of their
  target and classes are spread across clients with Dirichlet proportions of
  concentration 1/strength.

"feature-shift+size-skew" composes the first two (Pareto sizes, projection
assignment). A strength of 0 reduces every kind to iid exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lora import BaseWeights, Dim, _frobenius

SKEW_ATOMS = ("iid", "feature-shift", "size-skew", "label-skew")
SKEW_KINDS = SKEW_ATOMS + ("feature-shift+size-skew",)

_MASK64 = (1 << 64) - 1

# Share of the sample pool held out for evaluation.
EVAL_FRACTION = 0.2

# Rows per block where a whole-pool operation is split up (gen_task's target
# product and noise, argmax_labels, the held-out loss, local SGD's hoisted
# base product), so its temporaries and BLAS workspace are bounded by the
# block, not the pool.
BLOCK_ROWS = 256


def row_blocks(count: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of BLOCK_ROWS rows covering count rows.

    A one-row block would go through gemv, whose sums may differ in the last
    bit from the full product's; a one-row tail joins the block before it.
    """
    starts = list(range(0, count, BLOCK_ROWS))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [count]))


def _pool(xs, ys, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The one sample-pool check, of ``ClientShard`` and ``Batch``.

    Returns ``xs`` as a float64 (count, n) array with at least one row and
    ``ys`` as an array of one target per input: (count,) labels or (count, m)
    rows. Anything else raises a ValueError naming ``what``.
    """
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys)
    if xs.ndim != 2 or len(xs) < 1:
        raise ValueError(f"{what} inputs must be a (count, n) array with at least one row, got shape {xs.shape}")
    # A 0-d array has no length, so the ndim test comes first.
    if ys.ndim not in (1, 2) or len(ys) != len(xs):
        raise ValueError(f"{what} targets must be {len(xs)} labels or rows, got shape {ys.shape}")
    return xs, ys


@dataclass(frozen=True)
class GlobalTask:
    """Teacher matrix, pre-trained base, and the generated sample pool.

    Only the package builds one (``gen_task``, ``holdout_split``,
    ``simulation._build_world``), from arrays it made, so it checks nothing:
    it makes its arrays read-only float64. The sample-pool check is
    ``_pool``, run by the ``ClientShard`` and ``Batch`` built from it.
    """

    teacher: np.ndarray
    base: BaseWeights
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        for name in ("teacher", "xs", "ys"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class ClientShard:
    """One client's samples: rows of a shared, read-only sample pool.

    ``xs`` and ``ys`` are the whole pool, not a copy; the client's samples are
    ``xs[rows]`` and ``ys[rows]``, in the order of ``rows``. ``rows`` defaults
    to every row, so ``ClientShard(i, xs, ys)`` is a shard holding all of
    ``xs`` and ``ys``. The pool passes the one sample-pool check, ``_pool``;
    the shard checks its rows and makes all three arrays read-only.
    """

    client_id: int
    xs: np.ndarray
    ys: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        xs, ys = _pool(self.xs, self.ys, "shard pool")
        rows = np.arange(len(xs)) if self.rows is None else np.asarray(self.rows)
        if rows.ndim != 1 or len(rows) < 1:
            raise ValueError("shard must hold at least one (x, y) pair")
        if rows.dtype.kind not in "iu":
            # A boolean mask would become rows 0 and 1, and float rows would truncate.
            raise ValueError(f"shard rows must be integer indices, got dtype {rows.dtype}")
        rows = rows.astype(np.intp, copy=False)
        if rows.min() < 0 or rows.max() >= len(xs):
            raise ValueError(f"shard rows must index a pool of {len(xs)} samples")
        for arr in (xs, ys, rows):
            arr.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Batch:
    """Inputs (count x n) with targets: a (count x m) matrix for either loss,
    or softmax class indices.

    Inside the package targets are the matrix: regression values, or the
    one-hot rows ``simulation._build_world`` encodes once for a softmax
    world. Class indices from a caller are checked and one-hot encoded by
    ``training._target_matrix``, once per loss-path call. Inputs and
    targets pass the one sample-pool check, ``_pool``; a batch leaves its
    arrays writeable."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        inputs, targets = _pool(self.inputs, self.targets, "batch")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class SkewSpec:
    """Partition heterogeneity: a kind, a strength, and its own seed."""

    kind: str = "iid"
    strength: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SKEW_KINDS:
            raise ValueError(f"unknown skew kind {self.kind!r}, expected one of {SKEW_KINDS}")
        if not np.isfinite(self.strength) or self.strength < 0:
            raise ValueError(f"skew strength must be finite and >= 0, got {self.strength}")


def gen_task(
    dim: Dim,
    samples_total: int,
    noise_std: float = 0.0,
    seed: int = 0,
    teacher_rank: int = 4,
) -> GlobalTask:
    """Deterministically generate a task whose base-to-teacher gap is low rank.

    The gap teacher - base is a product of two rank-``teacher_rank`` Gaussian
    factors scaled so its entries have variance about 1/n, giving residuals
    of order one on unit-Gaussian inputs.
    """
    if samples_total < 1:
        raise ValueError(f"samples_total must be >= 1, got {samples_total}")
    if noise_std < 0 or not np.isfinite(noise_std):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if teacher_rank < 1 or teacher_rank > min(dim.m, dim.n):
        raise ValueError(f"teacher_rank must be in [1, min(m, n)], got {teacher_rank}")
    gen = np.random.default_rng(seed & _MASK64)
    w = gen.normal(0.0, 1.0 / np.sqrt(dim.n), size=(dim.m, dim.n))
    gap = (
        gen.normal(0.0, 1.0, size=(dim.m, teacher_rank))
        @ gen.normal(0.0, 1.0, size=(teacher_rank, dim.n))
    ) / np.sqrt(teacher_rank * dim.n)
    teacher = w + gap
    xs = gen.normal(0.0, 1.0, size=(samples_total, dim.n))
    ys = np.empty((samples_total, dim.m))
    for start, stop in row_blocks(samples_total):
        block = ys[start:stop]
        np.matmul(xs[start:stop], teacher.T, out=block)
        if noise_std > 0:
            # Consecutive draws continue one stream: the same noise as one full draw.
            block += gen.normal(0.0, noise_std, size=block.shape)
    return GlobalTask(teacher=teacher, base=BaseWeights(w), xs=xs, ys=ys)


def argmax_labels(ys: np.ndarray) -> np.ndarray:
    """Index of each target row's largest entry: np.argmax(ys, axis=1).

    numpy's argmax copies a read-only input whole before reducing it, so a
    pool's rows go through in blocks and only a block is ever copied.
    """
    return np.concatenate(
        [np.argmax(ys[start:stop], axis=1) for start, stop in row_blocks(len(ys))]
    )


def _holdout_size(total: int) -> int:
    """Samples ``holdout_split`` keeps back from ``total``: EVAL_FRACTION of
    them rounded, at least one."""
    return max(1, int(round(total * EVAL_FRACTION)))


def holdout_split(task: GlobalTask) -> tuple[GlobalTask, Batch]:
    """Split the sample pool into a train task and a held-out ``Batch`` of
    ``_holdout_size`` samples that no client is ever handed.

    Samples are i.i.d. by construction, so the tail slice is an unbiased
    holdout and keeps the split deterministic.
    """
    n_eval = _holdout_size(task.size)
    if n_eval >= task.size:
        raise ValueError(f"holdout of {n_eval} samples would leave no training data")
    cut = task.size - n_eval
    train = GlobalTask(teacher=task.teacher, base=task.base, xs=task.xs[:cut], ys=task.ys[:cut])
    return train, Batch(task.xs[cut:], task.ys[cut:])


def _shard_sizes(total: int, k_clients: int, spec: SkewSpec, gen: np.random.Generator) -> list[int]:
    """Target shard sizes: equal by default, Pareto-weighted under size-skew."""
    size_skewed = "size-skew" in spec.kind and spec.strength > 0
    if not size_skewed:
        base, extra = divmod(total, k_clients)
        return [base + (1 if i < extra else 0) for i in range(k_clients)]
    # Power-law size profile over client rank, (i+1)**-strength, with a
    # seeded shuffle deciding who gets which size; apportioned to integers by
    # largest remainder with a floor of one sample per client.
    weights = np.arange(1, k_clients + 1, dtype=np.float64) ** (-spec.strength)
    gen.shuffle(weights)
    shares = weights / weights.sum() * (total - k_clients)
    return (1 + _largest_remainder(shares, total - k_clients)).tolist()


def _largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """Whole counts summing to ``total`` from real shares that sum to it: each
    share rounded down, plus one for the shares with the largest remainders."""
    counts = np.floor(shares).astype(int)
    remainders = shares - counts
    counts[np.argsort(-remainders)[: total - counts.sum()]] += 1
    return counts


def _ordered_indices(
    task: GlobalTask, spec: SkewSpec, gen: np.random.Generator
) -> np.ndarray:
    """Sample assignment order: random, or biased by input projection."""
    total = task.size
    if "feature-shift" in spec.kind and spec.strength > 0:
        direction = gen.normal(size=task.xs.shape[1])
        direction /= _frobenius(direction)
        z = task.xs @ direction
        z = (z - z.mean()) / max(z.std(), 1e-12)
        key = spec.strength * z + gen.normal(size=total)
        return np.argsort(key, kind="stable")
    return gen.permutation(total)


def _label_skew_shards(
    task: GlobalTask, k_clients: int, spec: SkewSpec, gen: np.random.Generator
) -> list[ClientShard]:
    """Dirichlet class concentration over argmax-of-target pseudo-labels."""
    labels = argmax_labels(task.ys)
    alpha = 1.0 / spec.strength
    assigned: list[list[int]] = [[] for _ in range(k_clients)]
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        gen.shuffle(members)
        proportions = gen.dirichlet(np.full(k_clients, alpha))
        counts = _largest_remainder(proportions * len(members), len(members))
        start = 0
        for client, count in enumerate(counts):
            assigned[client].extend(members[start : start + count].tolist())
            start += count
    # No client may end empty: steal singles from the largest shard.
    for client in range(k_clients):
        while not assigned[client]:
            donor = max(range(k_clients), key=lambda c: len(assigned[c]))
            assigned[client].append(assigned[donor].pop())
    # Stable per-shard ordering so shard rows do not depend on steal order.
    rows = [np.sort(np.asarray(idx, dtype=np.intp)) for idx in assigned]
    return [ClientShard(i, task.xs, task.ys, idx) for i, idx in enumerate(rows)]


def partition(task: GlobalTask, k_clients: int, spec: SkewSpec) -> list[ClientShard]:
    """Assign every sample of the task to exactly one of k_clients shards.

    Each shard holds the task's own arrays and its rows; nothing is copied.
    """
    if k_clients < 1:
        raise ValueError(f"k_clients must be >= 1, got {k_clients}")
    if task.size < k_clients:
        raise ValueError(f"{task.size} samples cannot cover {k_clients} clients")
    effective = spec if spec.strength > 0 else SkewSpec("iid", 0.0, spec.seed)
    gen = np.random.default_rng(effective.seed & _MASK64)
    if effective.kind == "label-skew":
        return _label_skew_shards(task, k_clients, effective, gen)
    sizes = _shard_sizes(task.size, k_clients, effective, gen)
    order = _ordered_indices(task, effective, gen)
    shards = []
    start = 0
    for client, size in enumerate(sizes):
        rows = order[start : start + size]
        shards.append(ClientShard(client_id=client, xs=task.xs, ys=task.ys, rows=rows))
        start += size
    return shards


def scaling_factors(shards: list[ClientShard]) -> list[float]:
    """Data-proportional client weights: shard size over total size."""
    if len(shards) == 0:
        raise ValueError("no shards to weight")
    total = sum(s.size for s in shards)
    return [s.size / total for s in shards]

