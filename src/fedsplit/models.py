"""Desk-scale models over flat parameter vectors, with from-scratch SGD.

Three kinds: Linear (least-squares onto one-hot targets, no bias),
Logistic (softmax regression), and Mlp (tanh hidden layers, softmax
output).  All parameters live in one flat float64 vector so the protection
pipeline can treat every model uniformly; pack/unpack is view-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .seeds import as_rng

__all__ = ["ModelSpec", "param_count", "init_params", "loss_and_grad", "local_train",
           "evaluate_accuracy"]

KINDS = ("linear", "logistic", "mlp")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dims: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"model kind must be one of {KINDS}, got {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 1:
            raise ValueError("input_dim and num_classes must be >= 1")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must all be >= 1, got {list(self.hidden_dims)}")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ValueError("mlp requires at least one hidden layer")
        if self.kind != "mlp" and self.hidden_dims:
            raise ValueError(f"{self.kind} takes no hidden_dims")

    def layer_shapes(self) -> list[tuple]:
        """Shapes of the weight/bias blocks in packing order."""
        if self.kind == "linear":
            return [(self.input_dim, self.num_classes)]
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        shapes = []
        for a, b in zip(dims[:-1], dims[1:]):
            shapes.append((a, b))
            shapes.append((b,))
        return shapes


def param_count(spec: ModelSpec) -> int:
    return sum(int(np.prod(s)) for s in spec.layer_shapes())


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[np.ndarray]:
    blocks, offset = [], 0
    for shape in spec.layer_shapes():
        size = int(np.prod(shape))
        blocks.append(params[offset: offset + size].reshape(shape))
        offset += size
    if offset != params.size:
        raise ValueError(f"parameter vector has {params.size} entries, "
                         f"model needs {offset}")
    return blocks


def init_params(spec: ModelSpec, seed) -> np.ndarray:
    """Glorot-scaled weights, zero biases, packed flat."""
    rng = as_rng(seed)
    parts = []
    for shape in spec.layer_shapes():
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            parts.append(rng.uniform(-limit, limit, shape).ravel())
        else:
            parts.append(np.zeros(shape, dtype=np.float64))
    return np.concatenate(parts)


def _forward(spec: ModelSpec, blocks: list[np.ndarray], X: np.ndarray):
    """Returns (logits, hidden activations); backprop needs the activations."""
    if spec.kind == "linear":
        return X @ blocks[0], []
    acts = []
    h = X
    n_hidden = len(spec.hidden_dims)
    for layer in range(n_hidden):
        W, b = blocks[2 * layer], blocks[2 * layer + 1]
        h = np.tanh(h @ W + b)
        acts.append(h)
    W, b = blocks[2 * n_hidden], blocks[2 * n_hidden + 1]
    return h @ W + b, acts


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((y.size, num_classes), dtype=np.float64)
    out[np.arange(y.size), y] = 1.0
    return out


def loss_and_grad(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                  y: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean loss and the flat gradient.

    Linear: squared loss 0.5 * ||XW - onehot(y)||^2 per sample.
    Logistic/Mlp: softmax cross-entropy.
    """
    blocks = _unpack(spec, params)
    n = X.shape[0]
    Y = _one_hot(np.asarray(y, dtype=np.int64), spec.num_classes)

    if spec.kind == "linear":
        logits = X @ blocks[0]
        resid = logits - Y
        loss = 0.5 * float(np.sum(resid ** 2)) / n
        return loss, (X.T @ resid).ravel() / n

    logits, acts = _forward(spec, blocks, X)
    probs = _softmax(logits)
    eps = 1e-12
    loss = -float(np.sum(np.log(probs[np.arange(n), y] + eps))) / n

    grads = [np.zeros_like(b) for b in blocks]
    delta = (probs - Y) / n
    layers = [X, *acts]  # inputs to each weight block
    n_hidden = len(spec.hidden_dims) if spec.kind == "mlp" else 0
    for layer in range(n_hidden, -1, -1):
        W = blocks[2 * layer]
        grads[2 * layer] = layers[layer].T @ delta
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ W.T) * (1.0 - layers[layer] ** 2)  # tanh'
    return loss, np.concatenate([g.ravel() for g in grads])


def local_train(spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray,
                epochs: int, learning_rate: float, batch_size: int,
                seed) -> np.ndarray:
    """K epochs of seeded minibatch SGD; returns the update (final - initial).

    The input parameter vector is never mutated.  Non-finite loss aborts
    with DivergenceError.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = as_rng(seed)
    w = np.asarray(params, dtype=np.float64).copy()
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start: start + batch_size]
            loss, grad = loss_and_grad(spec, w, X[batch], y[batch])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss {loss}")
            w -= learning_rate * grad
    return w - params


def evaluate_accuracy(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                      y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions."""
    if X.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    logits, _ = _forward(spec, _unpack(spec, params), X)
    preds = logits.argmax(axis=1)
    return float(np.mean(preds == np.asarray(y)))
