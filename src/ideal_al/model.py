"""Dense feed-forward classifier with explicit backpropagation.

The network is a plain MLP: ReLU hidden layers, softmax output. Everything
is numpy; batches are row-major (n, d).
"""

import numpy as np

from .errors import InputShapeError, NumericError, UsageError

PROB_FLOOR = 1e-12


def softmax(z):
    """Row-wise stable softmax."""
    z = np.asarray(z, dtype=float)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def kl_rows(P, Q):
    """Row-wise KL(P_i || Q_i) for matrices of distributions."""
    Q = np.maximum(Q, PROB_FLOOR)
    ratio = np.where(P > 0, P / Q, 1.0)
    terms = np.where(P > 0, P * np.log(ratio), 0.0)
    return terms.sum(axis=-1)


class Classifier:
    """MLP with layer sizes [d_in, h_1, ..., h_k, C].

    weights[i] has shape (fan_in, fan_out); activations propagate as
    row vectors.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases):
            raise UsageError("weights and biases must pair up")
        if not weights:
            raise UsageError("need at least one layer")
        for i in range(len(weights) - 1):
            if weights[i].shape[1] != weights[i + 1].shape[0]:
                raise InputShapeError(
                    f"layer {i} output dim {weights[i].shape[1]} != "
                    f"layer {i + 1} input dim {weights[i + 1].shape[0]}"
                )
        for w, b in zip(weights, biases):
            if w.shape[1] != b.shape[0]:
                raise InputShapeError("bias length must match layer width")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]

    @classmethod
    def from_sizes(cls, sizes, rng=None):
        """He-initialized network for the given layer-size chain."""
        if len(sizes) < 2:
            raise UsageError("need input and output sizes at minimum")
        rng = rng if rng is not None else np.random.default_rng(0)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def n_layers(self):
        return len(self.weights)

    def _trace(self, X):
        """Forward pass; returns (acts, preacts).

        acts[0] is X itself; acts[i] the activation after layer i-1.
        The final entry of acts is the softmax output.
        """
        a = np.asarray(X, dtype=float)
        if a.shape[-1] != self.input_dim:
            raise InputShapeError(
                f"input width {a.shape[-1]} != expected {self.input_dim}"
            )
        acts = [a]
        preacts = []
        for i in range(self.n_layers):
            z = acts[-1] @ self.weights[i]
            z += self.biases[i]
            preacts.append(z)
            acts.append(softmax(z) if i == self.n_layers - 1 else np.maximum(z, 0.0))
        return acts, preacts

    def predict(self, X):
        """Class-probability rows for a batch (or a single vector)."""
        acts, _ = self._trace(np.atleast_2d(X))
        probs = acts[-1]
        return probs[0] if np.ndim(X) == 1 else probs


def _backprop_input(model, preacts, delta):
    """Propagate an output-logit gradient back to the input rows."""
    for i in range(model.n_layers - 1, -1, -1):
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * (preacts[i - 1] > 0)
    return delta


def grad_kl_wrt_input_batch(model, base, reference, offset):
    """Row-wise gradient of KL(reference_i || p(. | base_i + offset_i)).

    The gradient is taken with respect to the offset (equivalently the
    perturbed input). Rows are independent, so one batched backward pass
    yields every per-row gradient.
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    offset = np.atleast_2d(np.asarray(offset, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if base.shape != offset.shape:
        raise InputShapeError("base and offset shapes differ")
    X = base + offset
    acts, preacts = model._trace(X)
    probs = acts[-1]
    if reference.shape != probs.shape:
        raise InputShapeError(
            f"reference shape {reference.shape} != prediction shape {probs.shape}"
        )
    # d KL(p || softmax(z)) / dz = q - p  (p fixed, rows summing to one)
    delta = probs - reference
    return _backprop_input(model, preacts, delta)


def _accumulate_param_grads(model, acts, preacts, delta, grads_w, grads_b):
    for i in range(model.n_layers - 1, -1, -1):
        grads_w[i] += acts[i].T @ delta
        grads_b[i] += delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (preacts[i - 1] > 0)


def train_step(model, X, Y, n_sup, learning_rate, lambda_u):
    """One full-batch gradient-descent update on the combined objective.

    X, Y: (n, d) rows of the mixed batch and their (n, C) one-hot or soft
    targets. The first `n_sup` rows feed cross-entropy, the rest the mean
    squared distance between the predicted simplex and the target simplex.
    One forward pass covers every row; the gradients are accumulated over the
    supervised rows, then over the consistency rows.

    Returns (model, loss). The model is updated in place.
    """
    if learning_rate < 0:
        raise UsageError("learning rate must be nonnegative")
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    n, n_u = len(X), len(X) - n_sup
    if n == 0 or not 0 <= n_sup <= n:
        raise UsageError(f"train_step needs a nonempty batch and 0 <= n_sup <= {n}, "
                         f"got n_sup {n_sup}")

    acts, preacts = model._trace(X)
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    loss = 0.0

    if n_sup:
        a, z = [v[:n_sup] for v in acts], [v[:n_sup] for v in preacts]
        probs, Yl = a[-1], Y[:n_sup]
        loss += -np.mean(np.sum(Yl * np.log(np.maximum(probs, PROB_FLOOR)), axis=1))
        _accumulate_param_grads(model, a, z, (probs - Yl) / n_sup, grads_w, grads_b)

    if n_u:
        a, z = [v[n_sup:] for v in acts], [v[n_sup:] for v in preacts]
        probs, Yu = a[-1], Y[n_sup:]
        C = probs.shape[1]
        loss += lambda_u * float(np.mean((probs - Yu) ** 2))
        # d/dq of mean_c (q-y)^2, then through the softmax Jacobian
        g = lambda_u * 2.0 * (probs - Yu) / (C * n_u)
        delta = probs * (g - np.sum(g * probs, axis=1, keepdims=True))
        _accumulate_param_grads(model, a, z, delta, grads_w, grads_b)

    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss: {loss}")

    for i in range(model.n_layers):
        model.weights[i] -= learning_rate * grads_w[i]
        model.biases[i] -= learning_rate * grads_b[i]
    return model, float(loss)
