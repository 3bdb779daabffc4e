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
shuffled order in chunks of whole batches, about 256 rows: per chunk it
gathers the inputs and the targets once and forms x w^T in one GEMM; each
step then slices contiguous rows and computes only x a^T, the residual and
the gradients. The chunk is bounded, not the whole shard, because the
hoisted rows stay in memory: in a 10-client m=n=256 comparison with
1600-row shards, hoisting whole shards peaked about 3% higher (242 MB)
than 256-row chunks (235 MB). Targets enter as one float matrix (the
values, or one-hot rows for softmax) built once per call, so a step
gathers and indexes nothing. The loss is computed only where it is
reported (``loss_and_grads``, ``evaluate``). ``loss_and_grads`` shares the
residual and the gradient expression with the SGD steps, so the
finite-difference tests guard the training path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClientShard
from .lora import BaseWeights, LoraAdapter
from .rng import derive_seed

LOSS_KINDS = ("squared-error", "softmax-cross-entropy")

# Rows per hoisted base product in local_train, rounded down to whole batches
# (at least one); the module docstring says why it is bounded.
_CHUNK_ROWS = 256


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
    """Mini-batch SGD settings for one client's local pass.

    learning_rate 0 is allowed and makes training a no-op, which is handy for
    exercising the surrounding protocol. Batch order reshuffles every epoch
    from a seed derived as (seed, epoch); callers fold client and round into
    ``seed`` so concurrent clients and successive rounds draw independent
    streams.
    """

    learning_rate: float = 3e-4
    batch_size: int = 32
    local_epochs: int = 1
    loss: str = "squared-error"
    seed: int = 0

    def __post_init__(self) -> None:
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSS_KINDS}")


@dataclass(frozen=True)
class Batch:
    """Inputs (count x n) with regression targets (count x m) or class indices."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets)
        if inputs.ndim != 2 or len(inputs) < 1:
            raise ValueError("batch inputs must be a nonempty (count, n) array")
        if len(targets) != len(inputs):
            raise ValueError(
                f"batch has {len(inputs)} inputs but {len(targets)} targets"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return len(self.inputs)


def _forward(
    w: np.ndarray, a: np.ndarray, b: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch outputs x (w + b a)^T as two thin products; returns (x a^T, outputs)."""
    ax = x @ a.T
    return ax, x @ w.T + ax @ b.T


def forward(model: ToyModel, x: np.ndarray) -> np.ndarray:
    """y = w x + b (a x), two thin products."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.base.n,):
        raise ValueError(f"input must be a vector of length {model.base.n}, got {x.shape}")
    _, y = _forward(model.base.w, model.adapter.a, model.adapter.b, x[None, :])
    return y[0]


def _target_matrix(targets: np.ndarray, m: int, loss_kind: str) -> np.ndarray:
    """Float targets the residual subtracts: the values themselves for squared
    error, one-hot rows of the class indices for softmax cross-entropy."""
    if loss_kind == "squared-error":
        return np.asarray(targets, dtype=np.float64)
    labels = np.asarray(targets)
    if labels.ndim != 1:
        raise ValueError("softmax-cross-entropy expects a 1-d array of class indices")
    onehot = np.zeros((len(labels), m))
    onehot[np.arange(len(labels)), labels.astype(int)] = 1.0
    return onehot


def _residual(y: np.ndarray, t: np.ndarray, loss_kind: str) -> np.ndarray:
    """Per-sample dloss/dy against a target matrix: y - t, or softmax(y) - onehot."""
    if loss_kind == "squared-error":
        return y - t
    e = np.exp(y - y.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True) - t


def _loss(y: np.ndarray, t: np.ndarray, loss_kind: str) -> float:
    """Batch-mean loss against a target matrix; computed only where it is reported."""
    if loss_kind == "squared-error":
        return float(0.5 * (_residual(y, t, loss_kind) ** 2).sum() / len(y))
    shifted = y - y.max(axis=1, keepdims=True)
    # Log-sum-exp form of -log(softmax): finite where a probability underflows to 0.
    return float((np.log(np.exp(shifted).sum(axis=1)) - (shifted * t).sum(axis=1)).mean())


def _grads(g: np.ndarray, x: np.ndarray, ax: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d_a, d_b) from residuals g, inputs x and x a^T: the one gradient expression."""
    count = len(x)
    return (g @ b).T @ x / count, g.T @ ax / count


def loss_and_grads(
    model: ToyModel, batch: Batch, loss_kind: str = "squared-error"
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean loss and gradients (loss, d_a, d_b) at the current adapter."""
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss {loss_kind!r}, expected one of {LOSS_KINDS}")
    x = batch.inputs
    if x.shape[1] != model.base.n:
        raise ValueError(f"batch inputs have {x.shape[1]} features, model expects {model.base.n}")
    ax, y = _forward(model.base.w, model.adapter.a, model.adapter.b, x)
    t = _target_matrix(batch.targets, model.base.m, loss_kind)
    return (_loss(y, t, loss_kind), *_grads(_residual(y, t, loss_kind), x, ax, model.adapter.b))


def local_train(model: ToyModel, shard: ClientShard, cfg: TrainConfig) -> LoraAdapter:
    """Run local_epochs of seeded-shuffled mini-batch SGD; return the adapter.

    The base stays frozen. Shards smaller than batch_size fall back to
    full-batch steps. Deterministic for fixed (model, shard, cfg). Raises
    FloatingPointError if SGD diverges to non-finite factors.
    """
    if shard.size < 1:
        raise ValueError("cannot train on an empty shard")
    a = np.array(model.adapter.a)
    b = np.array(model.adapter.b)
    w = model.base.w
    lr = cfg.learning_rate
    batch = min(cfg.batch_size, shard.size)
    chunk = max(1, _CHUNK_ROWS // batch) * batch
    targets = _target_matrix(shard.ys, model.base.m, cfg.loss)
    for epoch in range(cfg.local_epochs):
        order = np.random.default_rng(derive_seed(cfg.seed, epoch)).permutation(shard.size)
        for chunk_start in range(0, shard.size, chunk):
            idx = order[chunk_start : chunk_start + chunk]
            xs, ts = shard.xs[idx], targets[idx]
            base_ys = xs @ w.T
            for start in range(0, len(idx), batch):
                x = xs[start : start + batch]
                ax = x @ a.T
                y = base_ys[start : start + batch] + ax @ b.T
                d_a, d_b = _grads(_residual(y, ts[start : start + batch], cfg.loss), x, ax, b)
                a -= lr * d_a
                b -= lr * d_b
    try:
        return LoraAdapter(a=a, b=b)
    except ValueError as exc:  # the factors' shapes hold, so only finiteness can fail
        raise FloatingPointError(f"local SGD diverged: {exc}") from exc


def evaluate(model: ToyModel, batch: Batch, loss_kind: str = "squared-error") -> float:
    """Batch-mean loss of the model on a fixed evaluation batch."""
    _, y = _forward(model.base.w, model.adapter.a, model.adapter.b, batch.inputs)
    return _loss(y, _target_matrix(batch.targets, model.base.m, loss_kind), loss_kind)
