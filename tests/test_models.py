import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.datasets import synthetic_dataset
from fedsplit.errors import DivergenceError
from fedsplit.models import (ModelSpec, evaluate_accuracy, init_params,
                             local_train, loss_and_grad, param_count)

# -- reference: the gradient path before the in-place kernel -----------------
# Copied verbatim from fedsplit/models.py as it stood with a one-hot matrix, a
# per-step unpack and a concatenated gradient; only the names carry a ref prefix.


def _ref_unpack(spec: ModelSpec, params: np.ndarray) -> list[np.ndarray]:
    blocks, offset = [], 0
    for shape in spec.layer_shapes():
        size = int(np.prod(shape))
        blocks.append(params[offset: offset + size].reshape(shape))
        offset += size
    if offset != params.size:
        raise ValueError(f"parameter vector has {params.size} entries, "
                         f"model needs {offset}")
    return blocks


def _ref_forward(spec: ModelSpec, blocks: list[np.ndarray], X: np.ndarray):
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


def _ref_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ref_one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((y.size, num_classes), dtype=np.float64)
    out[np.arange(y.size), y] = 1.0
    return out


def ref_loss_and_grad(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                      y: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean loss and the flat gradient.

    Linear: squared loss 0.5 * ||XW - onehot(y)||^2 per sample.
    Logistic/Mlp: softmax cross-entropy.
    """
    blocks = _ref_unpack(spec, params)
    n = X.shape[0]
    Y = _ref_one_hot(np.asarray(y, dtype=np.int64), spec.num_classes)

    logits, acts = _ref_forward(spec, blocks, X)
    if spec.kind == "linear":
        resid = logits - Y
        loss = 0.5 * float(np.sum(resid ** 2)) / n
        return loss, (X.T @ resid).ravel() / n

    probs = _ref_softmax(logits)
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


def ref_local_train(spec: ModelSpec, params: np.ndarray, X: np.ndarray, y: np.ndarray,
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
    rng = np.random.default_rng(seed)
    w = np.asarray(params, dtype=np.float64).copy()
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start: start + batch_size]
            loss, grad = ref_loss_and_grad(spec, w, X[batch], y[batch])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss {loss}")
            w -= learning_rate * grad
    return w - params


@st.composite
def _training_cases(draw):
    """A model (linear, logistic, or mlp with 1-3 hidden layers), 1-70 rows,
    a batch size from 1 to past the row count, 1-3 epochs, a learning rate
    (1e100 makes linear runs diverge) and a seed."""
    kind = draw(st.sampled_from(["linear", "logistic", "mlp"]))
    hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)) if kind == "mlp" else ()
    spec = ModelSpec(kind, draw(st.integers(1, 6)), draw(st.integers(1, 5)), hidden)
    rows = draw(st.integers(1, 70))
    return dict(spec=spec, rows=rows, batch_size=draw(st.integers(1, rows + 8)),
                epochs=draw(st.integers(1, 3)),
                learning_rate=draw(st.sampled_from([0.01, 0.2, 1.0, 1e100])),
                seed=draw(st.integers(0, 2**32 - 1)))


class TestSpecAndPacking:
    def test_param_counts(self):
        assert param_count(ModelSpec("linear", 3, 2)) == 6
        assert param_count(ModelSpec("logistic", 3, 2)) == 8
        assert param_count(ModelSpec("mlp", 4, 3, hidden_dims=(8,))) == 4*8 + 8 + 8*3 + 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("cnn", 3, 2)
        with pytest.raises(ValueError):
            ModelSpec("mlp", 3, 2)  # no hidden dims
        with pytest.raises(ValueError):
            ModelSpec("linear", 3, 2, hidden_dims=(4,))

    def test_init_deterministic(self):
        spec = ModelSpec("mlp", 4, 3, hidden_dims=(8,))
        assert np.array_equal(init_params(spec, 5), init_params(spec, 5))


class TestGradients:
    @pytest.mark.parametrize("spec", [
        ModelSpec("linear", 4, 3),
        ModelSpec("logistic", 4, 3),
        ModelSpec("mlp", 4, 3, hidden_dims=(6,)),
        ModelSpec("mlp", 4, 3, hidden_dims=(6, 5)),
    ])
    def test_against_finite_differences(self, spec):
        rng = np.random.default_rng(0)
        w = init_params(spec, 1) + rng.normal(0, 0.1, param_count(spec))
        X = rng.normal(0, 1, (12, 4))
        y = rng.integers(0, 3, 12)
        loss, grad = loss_and_grad(spec, w, X, y)
        eps = 1e-6
        idx = rng.choice(w.size, size=min(25, w.size), replace=False)
        for j in idx:
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            num = (loss_and_grad(spec, wp, X, y)[0]
                   - loss_and_grad(spec, wm, X, y)[0]) / (2 * eps)
            assert grad[j] == pytest.approx(num, rel=1e-4, abs=1e-7)


class TestLocalTrain:
    def test_zero_learning_rate_requires_positive(self):
        # the runtime enforces eta > 0; at the model level an eta of 0 is the
        # no-learning identity
        spec = ModelSpec("linear", 1, 1)
        w = np.zeros(1)
        u = local_train(spec, w, np.array([[1.0]]), np.array([0]),
                        epochs=3, learning_rate=0.0, batch_size=1, seed=0)
        assert np.array_equal(u, np.zeros(1))

    def test_hand_computed_linear_step(self):
        # one sample (x=1, y=one-hot class 0 = [1]), w0=0, squared loss
        # 0.5*(w*x - 1)^2: gradient -1, one step with eta=0.1 gives u = +0.1
        spec = ModelSpec("linear", 1, 1)
        u = local_train(spec, np.zeros(1), np.array([[1.0]]), np.array([0]),
                        epochs=1, learning_rate=0.1, batch_size=1, seed=0)
        assert u.tolist() == [pytest.approx(0.1, abs=1e-15)]

    def test_input_params_not_mutated(self):
        spec = ModelSpec("logistic", 3, 2)
        w = init_params(spec, 0)
        w_copy = w.copy()
        local_train(spec, w, np.ones((4, 3)), np.array([0, 1, 0, 1]),
                    epochs=1, learning_rate=0.1, batch_size=2, seed=0)
        assert np.array_equal(w, w_copy)

    def test_loss_decreases_on_separable_data(self):
        ds = synthetic_dataset(300, 6, 3, 3.0, seed=2)
        spec = ModelSpec("logistic", 6, 3)
        w = init_params(spec, 0)
        losses = []
        for epoch in range(3):
            u = local_train(spec, w, ds.features, ds.labels, epochs=1,
                            learning_rate=0.1, batch_size=32, seed=epoch)
            w = w + u
            losses.append(loss_and_grad(spec, w, ds.features, ds.labels)[0])
        assert losses[0] > losses[1] > losses[2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard(self):
        # overflow to inf is the expected path into the guard
        spec = ModelSpec("linear", 1, 1)
        with pytest.raises(DivergenceError):
            local_train(spec, np.array([1.0]), np.array([[1e200]]),
                        np.array([0]), epochs=5, learning_rate=1e300,
                        batch_size=1, seed=0)

    def test_determinism(self):
        ds = synthetic_dataset(128, 5, 2, 2.0, seed=3)
        spec = ModelSpec("mlp", 5, 2, hidden_dims=(8,))
        w = init_params(spec, 0)
        u1 = local_train(spec, w, ds.features, ds.labels, 2, 0.05, 16, seed=9)
        u2 = local_train(spec, w, ds.features, ds.labels, 2, 0.05, 16, seed=9)
        assert np.array_equal(u1, u2)


def _update_or_message(train, args):
    """The update a training run returns, or its DivergenceError message."""
    try:
        return train(*args)
    except DivergenceError as err:
        return str(err)


class TestAgainstReference:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(case=_training_cases())
    @settings(deadline=None)
    def test_equals_the_reference_bit_for_bit(self, case):
        """local_train's update, loss_and_grad's loss and gradient, and
        evaluate_accuracy equal the reference copy exactly."""
        spec, seed = case["spec"], case["seed"]
        rng = np.random.default_rng(seed)
        w = init_params(spec, seed) + rng.normal(0.0, 0.1, param_count(spec))
        X = rng.normal(0.0, 1.0, (case["rows"], spec.input_dim))
        y = rng.integers(0, spec.num_classes, case["rows"])
        train = (spec, w, X, y, case["epochs"], case["learning_rate"], case["batch_size"], seed)
        got = _update_or_message(local_train, train)
        want = _update_or_message(ref_local_train, train)
        assert got == want if isinstance(want, str) else np.array_equal(got, want, equal_nan=True)
        loss, grad = loss_and_grad(spec, w, X, y)
        ref_loss, ref_grad = ref_loss_and_grad(spec, w, X, y)
        assert loss == ref_loss and np.array_equal(grad, ref_grad)
        ref_logits, _ = _ref_forward(spec, _ref_unpack(spec, w), X)
        assert evaluate_accuracy(spec, w, X, y) == float(np.mean(ref_logits.argmax(axis=1) == y))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("x", [1e200, 1e120, 1e60])
    def test_divergence_message_equals_the_reference(self, x):
        # an overflowing linear run: inf or nan loss, at the first step or later
        args = (ModelSpec("linear", 1, 1), np.array([1.0]), np.array([[x], [0.0]]),
                np.array([0, 0]), 5, 1e300, 1, 0)
        with pytest.raises(DivergenceError) as ref:
            ref_local_train(*args)
        with pytest.raises(DivergenceError) as got:
            local_train(*args)
        assert str(got.value) == str(ref.value)


class TestLabels:
    """Labels are checked once per call: a 1-D integer array, one label per
    row of X, each in [0, num_classes)."""

    @pytest.mark.parametrize("y", [
        pytest.param(np.array([0, 1, -1, 2, 0]), id="negative"),
        pytest.param(np.array([0, 1, 2, 0, 1, 2, 0]), id="more_labels_than_rows"),
        pytest.param(np.array([0, 1, 3, 2, 0]), id="equal_to_num_classes"),
        pytest.param(np.array([0.0, 1.0, 2.0, 0.0, 1.0]), id="float"),
    ])
    def test_bad_labels_rejected(self, y):
        spec = ModelSpec("logistic", 2, 3)
        w = init_params(spec, 0)
        X = np.ones((5, 2))
        with pytest.raises(ValueError, match="labels must be"):
            local_train(spec, w, X, y, epochs=1, learning_rate=0.1, batch_size=2, seed=0)
        with pytest.raises(ValueError, match="labels must be"):
            loss_and_grad(spec, w, X, y)


class TestEvaluate:
    def test_perfect_predictor(self):
        ds = synthetic_dataset(200, 4, 2, 12.0, seed=4)
        spec = ModelSpec("logistic", 4, 2)
        w = init_params(spec, 0)
        for _ in range(30):
            w += local_train(spec, w, ds.features, ds.labels, 1, 0.5, 32, seed=1)
        assert evaluate_accuracy(spec, w, ds.features, ds.labels) == 1.0

    def test_constant_predictor_on_balanced_classes(self):
        ds = synthetic_dataset(400, 4, 4, 2.0, seed=5)
        spec = ModelSpec("logistic", 4, 4)
        acc = evaluate_accuracy(spec, np.zeros(param_count(spec)),
                                ds.features, ds.labels)
        # zero weights predict class 0 everywhere; labels are balanced
        assert acc == pytest.approx(0.25, abs=0.01)

    def test_empty_set_rejected(self):
        spec = ModelSpec("logistic", 4, 2)
        with pytest.raises(ValueError):
            evaluate_accuracy(spec, np.zeros(param_count(spec)),
                              np.empty((0, 4)), np.empty(0, dtype=np.int64))
