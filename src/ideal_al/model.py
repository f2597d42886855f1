"""Dense feed-forward classifier with explicit backpropagation.

The network is a plain MLP: ReLU hidden layers, softmax output. Everything
is numpy; batches are row-major (n, d). One hidden representation (the
"tap") is exposed for mixing and for density similarity — tap index 0 means
the raw input itself.
"""

import numpy as np

from .errors import InputShapeError, NumericError, UsageError

PROB_FLOOR = 1e-12


def softmax(z):
    """Row-wise stable softmax."""
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def kl_rows(P, Q):
    """Row-wise KL(P_i || Q_i) for matrices of distributions."""
    Q = np.maximum(Q, PROB_FLOOR)
    ratio = np.where(P > 0, P / Q, 1.0)
    terms = np.where(P > 0, P * np.log(ratio), 0.0)
    return terms.sum(axis=-1)


class Classifier:
    """MLP with layer sizes [d_in, h_1, ..., h_k, C].

    weights[i] has shape (fan_in, fan_out); activations propagate as
    row vectors. tap_layer indexes the representation sequence where
    representation 0 is the input and representation i is the post-ReLU
    activation of hidden layer i.
    """

    def __init__(self, weights, biases, tap_layer=0):
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
        n_hidden = len(weights) - 1
        if not 0 <= tap_layer <= n_hidden:
            raise UsageError(f"tap_layer {tap_layer} out of range [0, {n_hidden}]")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.tap_layer = tap_layer

    @classmethod
    def from_sizes(cls, sizes, tap_layer=0, rng=None):
        """He-initialized network for the given layer-size chain."""
        if len(sizes) < 2:
            raise UsageError("need input and output sizes at minimum")
        rng = rng if rng is not None else np.random.default_rng(0)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, tap_layer=tap_layer)

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def n_layers(self):
        return len(self.weights)

    def rep_dim(self, layer=None):
        """Width of the representation at the given tap index."""
        layer = self.tap_layer if layer is None else layer
        return self.input_dim if layer == 0 else self.weights[layer - 1].shape[1]

    def _trace(self, X, start=0):
        """Forward pass from representation `start`; returns (acts, preacts).

        acts[0] is X itself; acts[i] the activation after layer start+i-1.
        The final entry of acts is the softmax output.
        """
        a = np.asarray(X, dtype=float)
        if a.shape[-1] != self.rep_dim(start):
            raise InputShapeError(
                f"input width {a.shape[-1]} != expected {self.rep_dim(start)}"
            )
        acts = [a]
        preacts = []
        for i in range(start, self.n_layers):
            z = acts[-1] @ self.weights[i] + self.biases[i]
            preacts.append(z)
            acts.append(softmax(z) if i == self.n_layers - 1 else np.maximum(z, 0.0))
        return acts, preacts

    def predict(self, X, start=0):
        """Class-probability rows for a batch (or a single vector)."""
        acts, _ = self._trace(np.atleast_2d(X), start=start)
        probs = acts[-1]
        return probs[0] if np.ndim(X) == 1 else probs

    def tap_representation(self, X):
        """Representation at the tap layer for a batch (or single vector).

        Only the hidden layers up to the tap run; `predict(H, start=tap_layer)`
        finishes the pass, so a caller needing both pays for the encoder once.
        """
        a = np.asarray(X, dtype=float)
        if a.shape[-1] != self.input_dim:
            raise InputShapeError(
                f"input width {a.shape[-1]} != expected {self.input_dim}"
            )
        for i in range(self.tap_layer):
            a = np.maximum(a @ self.weights[i] + self.biases[i], 0.0)
        return a


def _backprop_input(model, acts, preacts, delta, start):
    """Propagate an output-logit gradient back to the input rows."""
    for i in range(model.n_layers - 1, start - 1, -1):
        local = i - start
        grad = delta @ model.weights[i].T
        if local > 0:
            grad = grad * (preacts[local - 1] > 0)
        delta = grad
    return delta


def grad_kl_wrt_input_batch(model, base, reference, offset, start=0):
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
    acts, preacts = model._trace(X, start=start)
    probs = acts[-1]
    if reference.shape != probs.shape:
        raise InputShapeError(
            f"reference shape {reference.shape} != prediction shape {probs.shape}"
        )
    # d KL(p || softmax(z)) / dz = q - p  (p fixed, rows summing to one)
    delta = probs - reference
    return _backprop_input(model, acts, preacts, delta, start)


def _accumulate_param_grads(model, acts, preacts, delta, start, grads_w, grads_b):
    for i in range(model.n_layers - 1, start - 1, -1):
        local = i - start
        grads_w[i] += acts[local].T @ delta
        grads_b[i] += delta.sum(axis=0)
        if local > 0:
            delta = (delta @ model.weights[i].T) * (preacts[local - 1] > 0)


def train_step(model, labeled, unlabeled=None, learning_rate=0.05, lambda_u=1.0):
    """One full-batch gradient-descent update on the combined objective.

    labeled: (X, Y) with one-hot or soft targets, feeding cross-entropy.
    unlabeled: optional (X, Y) guessed-label pairs, feeding mean squared
    distance between the predicted simplex and the target simplex.
    Inputs are representations at the model's tap layer.

    Returns (model, loss). The model is updated in place.
    """
    if learning_rate < 0:
        raise UsageError("learning rate must be nonnegative")
    start = model.tap_layer
    Xl, Yl = (None, None) if labeled is None else labeled
    Xu, Yu = (None, None) if unlabeled is None else unlabeled
    n_l = 0 if Xl is None else len(np.atleast_2d(Xl))
    n_u = 0 if Xu is None else len(np.atleast_2d(Xu))
    if n_l == 0 and n_u == 0:
        raise UsageError("train_step requires a nonempty batch")

    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    loss = 0.0

    if n_l:
        Xl = np.atleast_2d(np.asarray(Xl, dtype=float))
        Yl = np.atleast_2d(np.asarray(Yl, dtype=float))
        acts, preacts = model._trace(Xl, start=start)
        probs = acts[-1]
        loss += -np.mean(np.sum(Yl * np.log(np.maximum(probs, PROB_FLOOR)), axis=1))
        delta = (probs - Yl) / n_l
        _accumulate_param_grads(model, acts, preacts, delta, start, grads_w, grads_b)

    if n_u:
        Xu = np.atleast_2d(np.asarray(Xu, dtype=float))
        Yu = np.atleast_2d(np.asarray(Yu, dtype=float))
        acts, preacts = model._trace(Xu, start=start)
        probs = acts[-1]
        C = probs.shape[1]
        loss += lambda_u * float(np.mean((probs - Yu) ** 2))
        # d/dq of mean_c (q-y)^2, then through the softmax Jacobian
        g = lambda_u * 2.0 * (probs - Yu) / (C * n_u)
        delta = probs * (g - np.sum(g * probs, axis=1, keepdims=True))
        _accumulate_param_grads(model, acts, preacts, delta, start, grads_w, grads_b)

    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss: {loss}")

    for i in range(start, model.n_layers):
        model.weights[i] -= learning_rate * grads_w[i]
        model.biases[i] -= learning_rate * grads_b[i]
    return model, float(loss)
