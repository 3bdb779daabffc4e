"""Local fine-tuning of an adapter on a frozen linear base model.

The toy model maps x to (w + b a) x, computed as two thin products so the
dense update is never materialized. Only the adapter trains; gradients are
hand-derived through the factored update. With per-sample residual
g = dloss/dy, the batch-mean gradients are

    d_b = mean_i  g_i (a x_i)^T        (m x rank)
    d_a = mean_i  b^T g_i x_i^T        (rank x n)

For a batch x (count x n) with residuals g (count x m) they are evaluated as

    d_b = (g^T (x a^T)) / count
    d_a = ((g b)^T x) / count

so d_a pulls the residual back through the thin factor b first. No step
forms an m x n matrix. Plain mini-batch SGD applies both gradients to both
factors simultaneously. No momentum or weight decay: the one-step update is
then exactly factor - lr * gradient, which keeps oracle tests tight.

The frozen base product x w^T does not change during a local pass, so
``local_train`` does not recompute it per step. It walks each epoch's
shuffled order in chunks of whole batches, about ``data.BLOCK_ROWS`` (256)
rows: per chunk it gathers the inputs and the targets once from the shared
sample pool, through the shard's rows (``shard.rows[perm]``), and forms
x w^T in one GEMM; each step then slices contiguous rows and computes only
x a^T, the residual and the gradients. The chunk is bounded, not the whole
shard, because the gathered rows stay in memory: in a 10-client m=n=256
comparison with 1600-row shards, hoisting whole shards peaked about 3%
higher (242 MB) than 256-row chunks (235 MB). A chunk's inputs and base
product go into two buffers made once per call: made afresh per chunk, the
freed memory went back to the system and was faulted in again by the next
chunk (47k page faults against 6k in a 10-client m=n=256 comparison, and
about 10% of local training's time). A chunk's targets are gathered the same
way, into a third buffer, from the pool's target matrix, so a step gathers
and indexes nothing.

Targets are one thing inside the package: a (count, m) float matrix, the
values for squared error and one-hot rows for softmax cross-entropy.
``simulation._build_world`` one-hot encodes a softmax world's labels once,
for the pool and the held-out batch. Targets from outside, squared-error
values, softmax class indices or softmax target rows, are checked and
converted by ``_target_matrix`` once per call of ``evaluate``,
``loss_and_grads`` or ``local_train``, never per block or chunk.

At the sizes most runs use (m = n = 16, batches of 16 rows) a step's time is
numpy's fixed cost per call, not arithmetic. On a 2-vCPU x86 VM (numpy 2.4,
OpenBLAS 0.3.31) a 16 x 16 by 16 x 4 product took 1.9 us through ``@`` and
1.15 us through ``ndarray.dot``, which makes the same BLAS call, and an
in-place elementwise op 0.8 us. So a step makes as few and as cheap calls as
keep its bits. Its products go through ``.dot``, the two
gradient products straight into their buffer (``out=``). Both factors live
in one flat buffer, a and b being views of it, and both gradients in
another, so the step's division by the batch count, scaling by the learning
rate and update run once over both factors, three calls instead of six. Each
element still gets the same operations in the same order, so the result has
the bits of separate per-factor updates; folding ``lr / count`` into one
scalar would not. The residual overwrites the step's outputs in place. The
trained factors are handed to the adapter without a copy
(``LoraAdapter._owned``), after one finiteness check over their buffer.

The loss is computed only where it is reported, by ``evaluate``: the
held-out loss of a model or of a bare base (the merged weights, or the
baseline), and the loss ``loss_and_grads`` returns. It is the mean over rows
of each row's loss, half the row's summed squared residual or its softmax
cross-entropy. ``evaluate`` goes through the rows in ``data.row_blocks``,
writing each row's loss into one vector, so no temporary the size of the
held-out set is formed beside the sample pool.

Each numeric job has one implementation. The outputs x (w + b a)^T are
formed by ``_outputs`` alone, from the base product x w^T, and one batch's
residual and gradients by ``_step`` alone: ``local_train`` calls it once per
step and ``loss_and_grads`` once on its whole batch, so the
finite-difference tests check the step that SGD applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BLOCK_ROWS, Batch, ClientShard, row_blocks
from .lora import BaseWeights, LoraAdapter
from .rng import derive_seed

LOSS_KINDS = ("squared-error", "softmax-cross-entropy")


def _check_loss(loss_kind: str) -> None:
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss {loss_kind!r}, expected one of {LOSS_KINDS}")


@dataclass(frozen=True)
class ToyModel:
    """Frozen dense base plus a trainable adapter."""

    base: BaseWeights
    adapter: LoraAdapter

    def __post_init__(self) -> None:
        if (self.base.m, self.base.n) != (self.adapter.m, self.adapter.n):
            raise ValueError(
                f"adapter update is {self.adapter.m}x{self.adapter.n}, "
                f"base is {self.base.m}x{self.base.n}"
            )


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch SGD settings shared by every client's local pass.

    learning_rate 0 is allowed and makes training a no-op, which is handy for
    exercising the surrounding protocol. The shuffling seed is not a setting:
    each ``local_train`` call takes its own.
    """

    learning_rate: float = 3e-4
    batch_size: int = 32
    local_epochs: int = 1
    loss: str = "squared-error"

    def __post_init__(self) -> None:
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        _check_loss(self.loss)


def _target_matrix(targets, m: int, loss_kind: str, inputs: np.ndarray | None = None, n: int = 0) -> np.ndarray:
    """The (count, m) float target matrix the residual subtracts. A (count, m)
    array is taken as it is for either loss, without a copy when it is float64
    already; softmax class indices become one-hot rows.

    Every loss path (``evaluate``, of a model or of a bare base,
    ``loss_and_grads`` and ``local_train``) forms its targets here once per
    call, and its blocks or chunks then only slice or gather rows. So this is
    where an unknown loss name, inputs without the model's n features (when
    given), targets of neither form, and softmax labels that are not whole
    numbers in [0, m) are rejected. A softmax world's targets are one-hot
    rows already (``simulation._build_world``), so there this is a shape
    check."""
    _check_loss(loss_kind)
    if inputs is not None and inputs.shape[1] != n:
        raise ValueError(f"inputs have {inputs.shape[1]} features, model expects {n}")
    values = np.asarray(targets)
    if values.ndim == 2 and values.shape[1] == m:
        return values.astype(np.float64, copy=False)
    if loss_kind == "squared-error":
        raise ValueError(f"{loss_kind} targets must be (count, {m}), got shape {values.shape}")
    if values.ndim != 1:
        raise ValueError(f"{loss_kind} targets must be (count,) labels or (count, {m}) rows, got shape {values.shape}")
    kind = values.dtype.kind
    whole = kind in "bui" or (kind == "f" and (np.trunc(values) == values).all())
    if not (whole and values.min() >= 0 and values.max() < m):
        shown = f"dtype {values.dtype}"
        if kind in "buif":
            floats = values.astype(np.float64)
            shown = f"{floats[(floats < 0) | (floats >= m) | (np.trunc(floats) != floats)][0]:g}"
        raise ValueError(f"{loss_kind} labels must be whole numbers in [0, {m}), got {shown}")
    onehot = np.zeros((len(values), m))
    onehot[np.arange(len(values)), values.astype(int)] = 1.0
    return onehot


def _residual(y: np.ndarray, t: np.ndarray, loss_kind: str) -> np.ndarray:
    """Overwrite the outputs y with each row's dloss/dy against a target
    matrix, y - t or softmax(y) - onehot, and return y.

    The softmax runs the reductions ``y.max`` and ``y.sum`` call, directly."""
    if loss_kind == "softmax-cross-entropy":
        y -= np.maximum.reduce(y, axis=1, keepdims=True)
        np.exp(y, out=y)
        y /= np.add.reduce(y, axis=1, keepdims=True)
    y -= t
    return y


def _loss(y: np.ndarray, t: np.ndarray, loss_kind: str) -> np.ndarray:
    """Each row's loss against a target matrix: half the row's summed squared
    residual, or its softmax cross-entropy. Computed only where it is reported.
    The squared error's residual overwrites y."""
    if loss_kind == "squared-error":
        return 0.5 * (_residual(y, t, loss_kind) ** 2).sum(axis=1)
    shifted = y - y.max(axis=1, keepdims=True)
    # Log-sum-exp form of -log(softmax): finite where a probability underflows to 0.
    return np.log(np.exp(shifted).sum(axis=1)) - (shifted * t).sum(axis=1)


def _joined(rank: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One flat buffer and its views shaped like a (rank x n) and b (m x rank)."""
    flat = np.empty(rank * (n + m))
    return flat, flat[: rank * n].reshape(rank, n), flat[rank * n :].reshape(m, rank)


def _outputs(
    x: np.ndarray, base_y: np.ndarray, a_t: np.ndarray, b_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The outputs x (w + b a)^T of inputs x from their base product
    base_y = x w^T and the transposed factors: (x a^T, outputs). The one
    forward expression."""
    ax = x.dot(a_t)
    y = ax.dot(b_t)
    y += base_y  # IEEE addition commutes: base + product
    return ax, y


def _step(
    x: np.ndarray, base_y: np.ndarray, t: np.ndarray, loss_kind: str,
    a_t: np.ndarray, b: np.ndarray, b_t: np.ndarray,
    grads: np.ndarray, d_a: np.ndarray, d_b: np.ndarray,
) -> None:
    """One batch's outputs, residual against the target rows t, and mean
    gradients, written into d_a and d_b, the ``_joined`` views of grads: the
    one gradient expression. a_t, b and b_t are views of the current factors."""
    ax, y = _outputs(x, base_y, a_t, b_t)
    g = _residual(y, t, loss_kind)
    np.dot(g.dot(b).T, x, out=d_a)
    np.dot(g.T, ax, out=d_b)
    grads /= len(x)


def loss_and_grads(
    model: ToyModel, batch: Batch, loss_kind: str = "squared-error"
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean loss and gradients (loss, d_a, d_b) at the current adapter:
    the loss from ``evaluate``, the gradients from one ``_step`` over the
    whole batch, both against the one target matrix formed here."""
    a, b, x = model.adapter.a, model.adapter.b, batch.inputs
    t = _target_matrix(batch.targets, model.base.m, loss_kind, x, model.base.n)
    loss = evaluate(model, Batch(x, t), loss_kind)
    grads, d_a, d_b = _joined(model.adapter.rank, model.base.m, model.base.n)
    _step(x, x.dot(model.base.w.T), t, loss_kind, a.T, b, b.T, grads, d_a, d_b)
    return loss, d_a, d_b


def local_train(model: ToyModel, shard: ClientShard, cfg: TrainConfig, seed: int) -> LoraAdapter:
    """Run local_epochs of seeded-shuffled mini-batch SGD; return the adapter.

    Each epoch reshuffles the shard from ``derive_seed(seed, epoch)``; callers
    fold client and round into ``seed`` so clients and rounds draw
    independent streams. The base stays frozen. Shards smaller than
    batch_size fall back to full-batch steps. Deterministic for fixed
    (model, shard, cfg, seed). Raises FloatingPointError if SGD diverges to
    non-finite factors.
    """
    shape = (model.adapter.rank, model.base.m, model.base.n)
    # Both factors in one buffer and both gradients in another, so each step
    # scales and applies them with one call apiece. The transposes are views
    # of buffers that are only ever updated in place, so they stay current.
    params, a, b = _joined(*shape)
    a[...] = model.adapter.a
    b[...] = model.adapter.b
    grads, d_a, d_b = _joined(*shape)
    a_t, b_t = a.T, b.T
    w = model.base.w
    lr = cfg.learning_rate
    batch = min(cfg.batch_size, shard.size)
    # Whole batches of about BLOCK_ROWS rows (at least one batch) per hoisted
    # base product; the module docstring says why it is bounded.
    chunk = max(1, BLOCK_ROWS // batch) * batch
    # The pool's target matrix, formed once per call, and one buffer each for
    # a chunk's inputs, targets and base product, reused by every chunk. The
    # shard's rows were checked to index the pool, so mode="clip" never
    # clips; the default mode would copy the buffer through a temporary.
    targets = _target_matrix(shard.ys, model.base.m, cfg.loss, shard.xs, model.base.n)
    xs_buf = np.empty((min(chunk, shard.size), shard.xs.shape[1]))
    ts_buf = np.empty((len(xs_buf), model.base.m))
    base_buf = np.empty_like(ts_buf)
    for epoch in range(cfg.local_epochs):
        order = np.random.default_rng(derive_seed(seed, epoch)).permutation(shard.size)
        rows = shard.rows[order]
        for chunk_start in range(0, shard.size, chunk):
            idx = rows[chunk_start : chunk_start + chunk]
            xs = shard.xs.take(idx, axis=0, out=xs_buf[: len(idx)], mode="clip")
            ts = targets.take(idx, axis=0, out=ts_buf[: len(idx)], mode="clip")
            base_ys = np.matmul(xs, w.T, out=base_buf[: len(idx)])
            for start in range(0, len(idx), batch):
                step = slice(start, start + batch)
                _step(xs[step], base_ys[step], ts[step], cfg.loss, a_t, b, b_t, grads, d_a, d_b)
                grads *= lr
                params -= grads
    if not np.isfinite(params).all():
        raise FloatingPointError("local SGD diverged: the adapter has non-finite entries")
    return LoraAdapter._owned(a, b)


def evaluate(
    model: ToyModel | BaseWeights, batch: Batch, loss_kind: str = "squared-error"
) -> float:
    """Loss on a fixed evaluation batch of a model, or of a bare base (the
    merged weights, or the baseline): the mean over its rows of each row's loss.

    The rows go through in ``row_blocks``: per block the outputs are x w^T,
    through ``_outputs`` when there is an adapter, and each row's loss is
    written into one (count,) vector, so the largest temporary is a block's,
    not the whole set's. From the same outputs, each row's softmax term has
    the same bits as over the whole array at once; a mean of squared-error
    row sums can differ from a flat sum over the array in the last bits.
    """
    base, adapter = (model, None) if isinstance(model, BaseWeights) else (model.base, model.adapter)
    xs = batch.inputs
    ts = _target_matrix(batch.targets, base.m, loss_kind, xs, base.n)
    losses = np.empty(len(xs))
    for start, stop in row_blocks(len(xs)):
        x = xs[start:stop]
        y = x @ base.w.T
        if adapter is not None:
            _, y = _outputs(x, y, adapter.a.T, adapter.b.T)
        losses[start:stop] = _loss(y, ts[start:stop], loss_kind)
    return float(losses.mean())
