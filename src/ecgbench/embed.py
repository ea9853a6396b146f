"""Feature extractors: a training-free morphology embedder and a reference MLP.

The MLP is one rectified hidden layer trained as a multi-class subject
classifier with plain mini-batch gradient descent on softmax cross-entropy;
after training the classification head is discarded and the hidden activation
serves as the embedding. Backpropagation is written out by hand, once:
_FlatMlp.loss_and_grads is the only forward and backward pass, the one that
training runs and the one the tests check against central finite differences.
It trains in place, in reused buffers, with the array operations of a step
that allocates each intermediate, so the bits are that step's.
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
    embedding: its present entry is False and the matrix holds the embeddings
    of the other rows only, in order.
    """
    if target_len < 8:
        raise ValueError(f"target_len must be >= 8, got {target_len}")
    resampled = dsp.resample_fourier(rows, target_len)
    present = np.ptp(resampled, axis=-1) != 0
    return dsp.normalize(resampled[present], method), present


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


def softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Row-wise softmax with max subtraction for numerical stability, written
    into out when given (out may be logits itself)."""
    out = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def mlp_init(input_dim: int, hidden_dim: int, n_classes: int,
             rng: np.random.Generator) -> MlpModel:
    """He-style init: weights ~ N(0, sqrt(2 / fan_in)), zero biases."""
    w1 = rng.normal(0.0, np.sqrt(2.0 / input_dim), size=(hidden_dim, input_dim))
    w2 = rng.normal(0.0, np.sqrt(2.0 / hidden_dim), size=(n_classes, hidden_dim))
    return MlpModel(w1=w1, b1=np.zeros(hidden_dim), w2=w2, b2=np.zeros(n_classes))


def _split_like(flat: np.ndarray, arrays) -> tuple:
    """Views of consecutive slices of flat, one shaped like each array."""
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    return tuple(part.reshape(a.shape) for part, a in zip(parts, arrays))


class _FlatMlp:
    """The MLP under training: w1, b1, w2, b2 are views of one flat vector and
    their gradients views of a second, so one update is two whole-vector
    operations. The step writes into buffers kept per batch length (the last
    batch of an epoch is shorter) and allocates no layer-sized array."""

    def __init__(self, params):
        self.flat = np.concatenate([p.reshape(-1) for p in params])
        self.grad = np.empty_like(self.flat)
        self.params = _split_like(self.flat, params)
        self.grads = _split_like(self.grad, params)
        self._buffers = {}

    def _buffers_for(self, n: int) -> tuple:
        if n not in self._buffers:
            hidden_dim, n_classes = self.params[1].size, self.params[3].size
            self._buffers[n] = (
                np.empty((n, hidden_dim)), np.empty((n, hidden_dim)),
                np.empty((n, hidden_dim), dtype=bool), np.empty((n, n_classes)),
                np.empty((n, hidden_dim)), np.arange(n))
        return self._buffers[n]

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Mean softmax cross-entropy over the batch; writes the hand-written
        gradients into self.grad."""
        n = len(x)
        w1, b1, w2, b2 = self.params
        gw1, gb1, gw2, gb2 = self.grads
        # delta2 holds the logits, then the probabilities, then their gradient.
        z1, hidden, active, delta2, delta1, rows = self._buffers_for(n)
        np.add(np.matmul(x, w1.T, out=z1), b1, out=z1)
        np.maximum(z1, 0.0, out=hidden)
        np.add(np.matmul(hidden, w2.T, out=delta2), b2, out=delta2)
        softmax(delta2, out=delta2)
        picked = delta2[rows, labels]
        loss = float(-np.mean(np.log(picked + 1e-300)))
        delta2[rows, labels] = picked - 1.0
        delta2 /= n
        np.matmul(delta2.T, hidden, out=gw2)
        np.add.reduce(delta2, axis=0, out=gb2)
        np.greater(z1, 0.0, out=active)
        np.multiply(np.matmul(delta2, w2, out=delta1), active, out=delta1)
        np.matmul(delta1.T, x, out=gw1)
        np.add.reduce(delta1, axis=0, out=gb1)
        return loss

    def model(self) -> MlpModel:
        """The current parameters, copied into a model that owns them."""
        return MlpModel(*(p.copy() for p in self.params))


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
    net = _FlatMlp(mlp_init(x.shape[1], hidden_dim, int(high) + 1, rng).params)
    losses = []
    # A diverging run overflows to inf and nan; MlpModel rejects those below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(len(x))
            batch_losses = []
            for start in range(0, len(x), batch):
                sel = order[start: start + batch]
                batch_losses.append(net.loss_and_grads(x[sel], labels[sel]))
                np.multiply(net.grad, lr, out=net.grad)
                np.subtract(net.flat, net.grad, out=net.flat)
            losses.append(float(np.mean(batch_losses)))
    return net.model(), losses


def mlp_embed(model: MlpModel, samples) -> np.ndarray:
    """Post-rectifier hidden activation; the classification head is dropped."""
    x = np.asarray(samples, dtype=float)
    if x.shape[-1] != model.input_dim:
        raise DimensionMismatch(
            f"input of dim {x.shape[-1]} into model expecting {model.input_dim}")
    return np.maximum(x @ model.w1.T + model.b1, 0.0)
