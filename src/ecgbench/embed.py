"""Feature extractors: a training-free morphology embedder and a reference MLP.

The MLP is one rectified hidden layer trained as a multi-class subject
classifier with plain mini-batch gradient descent on softmax cross-entropy;
after training the classification head is discarded and the hidden activation
serves as the embedding. Backpropagation is written out by hand; the tests
check it against central finite differences.
"""

from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import DimensionMismatch, NonFiniteModel, SingleClass


def morphology_features(rows, target_len: int = 128, method: str = "zscore"):
    """Training-free embedding of each row of an (n, L) batch: Fourier-resample
    to target_len, then normalize. z-score (the default) makes the embedding
    invariant to amplitude scale.

    Returns (matrix, present). A row that is constant once resampled has no
    embedding: its present entry is False and its matrix row NaN.
    """
    if target_len < 8:
        raise ValueError(f"target_len must be >= 8, got {target_len}")
    resampled = dsp.resample_fourier(rows, target_len)
    present = np.ptp(resampled, axis=-1) != 0
    matrix = np.full(resampled.shape, np.nan)
    matrix[present] = dsp.normalize(resampled[present], method)
    return matrix, present


@dataclass(frozen=True)
class MlpModel:
    w1: np.ndarray  # (H, D)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (C, H)
    b2: np.ndarray  # (C,)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def params(self) -> tuple:
        return self.w1, self.b1, self.w2, self.b2

    def __post_init__(self):
        h, d = self.w1.shape
        c = self.w2.shape[0]
        if self.w2.shape != (c, h) or self.b1.shape != (h,) or self.b2.shape != (c,):
            raise DimensionMismatch("inconsistent parameter shapes")
        for p in self.params:
            if not np.all(np.isfinite(p)):
                raise NonFiniteModel(
                    "non-finite model parameters (did training diverge?)")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for numerical stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_init(input_dim: int, hidden_dim: int, n_classes: int,
             rng: np.random.Generator) -> MlpModel:
    """He-style init: weights ~ N(0, sqrt(2 / fan_in)), zero biases."""
    w1 = rng.normal(0.0, np.sqrt(2.0 / input_dim), size=(hidden_dim, input_dim))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden_dim), size=(n_classes, hidden_dim))
    return MlpModel(w1=w1, b1=np.zeros(hidden_dim), w2=w2, b2=np.zeros(n_classes))


def _forward(params, x: np.ndarray):
    """Pre-activation, hidden activation and logits for params (w1, b1, w2, b2)."""
    w1, b1, w2, b2 = params
    z1 = x @ w1.T + b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ w2.T + b2
    return z1, hidden, logits


def _loss_and_grads(params, x: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over the batch plus hand-written gradients."""
    n = len(x)
    z1, hidden, logits = _forward(params, x)
    probs = softmax(logits)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    delta2 = probs
    delta2[np.arange(n), labels] -= 1.0
    delta2 /= n
    gw2 = delta2.T @ hidden
    gb2 = delta2.sum(axis=0)
    delta1 = (delta2 @ params[2]) * (z1 > 0.0)
    gw1 = delta1.T @ x
    gb1 = delta1.sum(axis=0)
    return loss, (gw1, gb1, gw2, gb2)


def mlp_train(x, labels, hidden_dim: int = 64, lr: float = 0.05,
              epochs: int = 150, batch: int = 64, seed: int = 0):
    """Train the classifier; returns (model, per-epoch mean batch loss).

    Deterministic: fixed (data, hyperparameters, seed) gives a bit-identical
    model. epochs=0 returns the He-initialized model untouched. The model is
    built, and its parameters checked finite, once, after the last step.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if x.ndim != 2 or len(x) != len(labels):
        raise DimensionMismatch("x must be (n, d) with one label per row")
    # Checked by range and count, not np.unique, which imports numpy.ma.
    low, high = (labels.min(), labels.max()) if len(labels) else (0, 0)
    if low == high:
        raise SingleClass("training needs at least two classes")
    if low != 0 or high >= len(labels) or not np.bincount(labels).all():
        raise ValueError("labels must be 0..C-1")
    rng = np.random.default_rng(seed)
    w1, b1, w2, b2 = mlp_init(x.shape[1], hidden_dim, int(high) + 1, rng).params
    losses = []
    # A diverging run overflows to inf and nan; MlpModel rejects those below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(len(x))
            batch_losses = []
            for start in range(0, len(x), batch):
                sel = order[start: start + batch]
                loss, (gw1, gb1, gw2, gb2) = _loss_and_grads(
                    (w1, b1, w2, b2), x[sel], labels[sel])
                batch_losses.append(loss)
                w1 = w1 - lr * gw1
                b1 = b1 - lr * gb1
                w2 = w2 - lr * gw2
                b2 = b2 - lr * gb2
            losses.append(float(np.mean(batch_losses)))
    return MlpModel(w1=w1, b1=b1, w2=w2, b2=b2), losses


def mlp_embed(model: MlpModel, samples) -> np.ndarray:
    """Post-rectifier hidden activation; the classification head is dropped."""
    x = np.asarray(samples, dtype=float)
    if x.shape[-1] != model.input_dim:
        raise DimensionMismatch(
            f"input of dim {x.shape[-1]} into model expecting {model.input_dim}")
    return np.maximum(x @ model.w1.T + model.b1, 0.0)
