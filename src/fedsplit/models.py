"""Desk-scale models over flat parameter vectors, with from-scratch SGD.

Three kinds: Linear (least-squares onto one-hot targets, no bias),
Logistic (softmax regression), and Mlp (tanh hidden layers, softmax
output).  All parameters live in one flat float64 vector so the protection
pipeline can treat every model uniformly; pack/unpack is view-based, and one
gradient kernel writes the gradient into views of a flat vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, check_choice, check_int, check_real

__all__ = ["ModelSpec", "param_count", "init_params", "loss_and_grad", "local_train",
           "evaluate_accuracy"]

KINDS = ("linear", "logistic", "mlp")
# Rows per block in evaluate_accuracy, so no whole-set activation is held.
_EVAL_ROWS = 1024


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dims: tuple = field(default=())

    def __post_init__(self):
        check_choice("kind", self.kind, KINDS)
        check_int("input_dim", self.input_dim, 1)
        check_int("num_classes", self.num_classes, 1)
        for i, h in enumerate(self.hidden_dims):
            check_int(f"hidden_dims[{i}]", h, 1)
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.kind == "mlp" and not self.hidden_dims:
            raise ValueError("mlp requires at least one hidden layer")
        if self.kind != "mlp" and self.hidden_dims:
            raise ValueError(f"{self.kind} takes no hidden_dims")

    def layer_shapes(self) -> list[tuple]:
        """Shapes of the weight/bias blocks in packing order."""
        if self.kind == "linear":
            return [(self.input_dim, self.num_classes)]
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        return [s for a, b in zip(dims, dims[1:]) for s in ((a, b), (b,))]


def param_count(spec: ModelSpec) -> int:
    return sum(math.prod(s) for s in spec.layer_shapes())


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[np.ndarray]:
    blocks, offset = [], 0
    for shape in spec.layer_shapes():
        size = math.prod(shape)
        blocks.append(params[offset: offset + size].reshape(shape))
        offset += size
    if offset != params.size:
        raise ValueError(f"parameter vector has {params.size} entries, "
                         f"model needs {offset}")
    return blocks


def init_params(spec: ModelSpec, seed) -> np.ndarray:
    """Glorot-scaled weights, zero biases, packed flat."""
    rng = np.random.default_rng(seed)
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
    h, acts = X, []
    for layer in range(len(spec.hidden_dims)):
        h = h @ blocks[2 * layer]  # fresh, so the bias and tanh go in place
        h += blocks[2 * layer + 1]
        acts.append(np.tanh(h, out=h))
    logits = h @ blocks[-2]
    logits += blocks[-1]
    return logits, acts


def _check_labels(spec: ModelSpec, X: np.ndarray, y) -> np.ndarray:
    y = np.asarray(y)
    if (y.dtype.kind not in "iu" or y.shape != X.shape[:1]
            or (y.size and not 0 <= y.min() <= y.max() < spec.num_classes)):
        raise ValueError(f"labels must be a 1-D integer array, one label in "
                         f"[0, {spec.num_classes}) per row of X ({X.shape[0]})")
    return y


def _loss_into(spec: ModelSpec, blocks: list[np.ndarray], grads: list[np.ndarray],
               X: np.ndarray, y: np.ndarray) -> float:
    """Batch-mean loss; writes the gradient into ``grads``, views shaped like ``blocks``."""
    n = X.shape[0]
    rows = np.arange(n)
    z, acts = _forward(spec, blocks, X)
    if spec.kind == "linear":
        z[rows, y] -= 1.0  # the residual XW - onehot(y)
        np.matmul(X.T, z, out=grads[0])
        grads[0] /= n
        return 0.5 * float(np.sum(z ** 2)) / n
    z -= z.max(axis=1, keepdims=True)  # softmax, in place
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    loss = -float(np.sum(np.log(z[rows, y] + 1e-12))) / n
    z[rows, y] -= 1.0
    delta = np.divide(z, n, out=z)
    layers = [X, *acts]  # inputs to each weight block
    for layer in range(len(acts), -1, -1):
        np.matmul(layers[layer].T, delta, out=grads[2 * layer])
        np.sum(delta, axis=0, out=grads[2 * layer + 1])
        if layer > 0:
            delta = (delta @ blocks[2 * layer].T) * (1.0 - layers[layer] ** 2)  # tanh'
    return loss


def loss_and_grad(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                  y: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean loss and the flat gradient.

    Linear: squared loss 0.5 * ||XW - onehot(y)||^2 per sample; Logistic/Mlp: softmax
    cross-entropy."""
    grad = np.empty(params.size)
    y = _check_labels(spec, X, y)
    return _loss_into(spec, _unpack(spec, params), _unpack(spec, grad), X, y), grad


def local_train(spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray,
                epochs: int, learning_rate: float, batch_size: int,
                seed) -> np.ndarray:
    """K epochs of seeded minibatch SGD; returns the update (final - initial).

    The input parameter vector is never mutated.  Non-finite loss aborts
    with DivergenceError.
    """
    check_int("epochs", epochs, 1)
    check_int("batch_size", batch_size, 1)
    check_real("learning_rate", learning_rate, "[0, inf)")
    y = _check_labels(spec, X, y)
    rng = np.random.default_rng(seed)
    w = np.asarray(params, dtype=np.float64).copy()
    grad = np.empty_like(w)
    blocks, grads = _unpack(spec, w), _unpack(spec, grad)  # views, made once
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start: start + batch_size]
            loss = _loss_into(spec, blocks, grads, X[batch], y[batch])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss {loss}")
            grad *= learning_rate  # in place: no temporary the size of w
            w -= grad
    return w - params


def evaluate_accuracy(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                      y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions, counted over blocks of
    ``_EVAL_ROWS`` rows, so one block's activations are held at a time.

    BLAS may round a block's logits differently from a whole-set product's;
    the argmax has not been seen to change (``tests/test_models.py`` pins it).
    """
    if X.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    blocks, y = _unpack(spec, params), _check_labels(spec, X, y)
    hits = 0
    for start in range(0, X.shape[0], _EVAL_ROWS):
        rows = slice(start, start + _EVAL_ROWS)
        logits = _forward(spec, blocks, X[rows])[0]  # the activations are freed here
        hits += int(np.count_nonzero(logits.argmax(axis=1) == y[rows]))
    return hits / X.shape[0]
