"""Dense feed-forward classifier with explicit backpropagation.

The network is a plain MLP: ReLU hidden layers, softmax output. Everything
is numpy; batches are row-major (n, d).
"""

import numpy as np

from .errors import InputShapeError, NumericError, UsageError

PROB_FLOOR = 1e-12


def class_sum(a):
    """`a.sum(axis=-1)`, the sum over the last (class) axis, bit for bit.

    numpy adds a row shorter than 8 in turn from its first entry, so a row of
    2 to 7 classes is summed here class by class, in that order, with one
    ufunc call over every row per class instead of one short reduction per
    row.
    """
    C = a.shape[-1]
    if not 2 <= C <= 7:
        return a.sum(axis=-1)
    s = a[..., 0] + a[..., 1]
    for c in range(2, C):
        s += a[..., c]
    return s


def _softmax_inplace(z):
    """Row-wise stable softmax of the float array `z`, written into `z`. A
    max is exact in any order, so short rows take theirs class by class too."""
    C = z.shape[-1]
    if 2 <= C <= 7:
        m = np.maximum(z[..., 0], z[..., 1])
        for c in range(2, C):
            np.maximum(m, z[..., c], out=m)
        m = m[..., None]
    else:
        m = z.max(axis=-1, keepdims=True)
    z -= m
    np.exp(z, out=z)
    z /= class_sum(z)[..., None]
    return z


def softmax(z):
    """Row-wise stable softmax."""
    return _softmax_inplace(np.array(z, dtype=float))


def kl_rows(P, Q):
    """Row-wise KL(P_i || Q_i) for matrices of distributions."""
    Q = np.maximum(Q, PROB_FLOOR)
    ratio = np.where(P > 0, P / Q, 1.0)
    terms = np.where(P > 0, P * np.log(ratio), 0.0)
    return class_sum(terms)


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

    def _trace(self, X, split=()):
        """Forward pass: the activations [X, after layer 0, ..., softmax output].

        `split` holds ascending row boundaries. Every layer multiplies the
        rows between two boundaries in a product of their own, so each part's
        values are those of a pass of its own bit for bit: a BLAS kernel's
        result for a row can depend on where the row sits among the product's
        row groups.
        """
        a = np.asarray(X, dtype=float)
        if a.shape[-1] != self.input_dim:
            raise InputShapeError(
                f"input width {a.shape[-1]} != expected {self.input_dim}"
            )
        acts = [a]
        last = self.n_layers - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = np.empty((len(a), W.shape[1]))
            for s, e in zip((0, *split), (*split, len(a))):
                np.matmul(a[s:e], W, out=z[s:e])
            z += b
            a = _softmax_inplace(z) if i == last else np.maximum(z, 0.0, out=z)
            acts.append(a)
        return acts

    def predict(self, X):
        """Class-probability rows for a batch (or a single vector)."""
        probs = self._trace(np.atleast_2d(X))[-1]
        return probs[0] if np.ndim(X) == 1 else probs


def grad_kl_wrt_input_batch(model, acts, reference):
    """Row-wise gradient of KL(reference_i || p(. | x_i)) with respect to the
    input row x_i, from the trace `acts` of those rows (`Classifier._trace`),
    in one batched backward pass; a hidden unit passes it where its ReLU
    output is positive. Each hidden layer's gradient overwrites that layer's
    activations in `acts`, so the pass allocates no layer of its own."""
    probs = acts[-1]
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if reference.shape != probs.shape:
        raise InputShapeError(
            f"reference shape {reference.shape} != prediction shape {probs.shape}"
        )
    # d KL(p || softmax(z)) / dz = q - p  (p fixed, rows summing to one)
    delta = probs - reference
    for i in range(model.n_layers - 1, 0, -1):
        mask = acts[i] > 0
        delta = np.matmul(delta, model.weights[i].T, out=acts[i])
        delta *= mask
    return delta @ model.weights[0].T


def _mean(a):
    """`np.mean(a)` of a float64 array, bit for bit: the same sum over all
    values divided by their count, without its Python-level dispatch."""
    return np.add.reduce(a, axis=None) / a.size


def _param_grads(model, acts, delta):
    """Every layer's weight and bias gradients, ([dW_i], [db_i]), from the
    trace `acts` of a batch and the output-logit gradient `delta` of its rows."""
    grads_w, grads_b = [None] * model.n_layers, [None] * model.n_layers
    for i in range(model.n_layers - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= acts[i] > 0
    return grads_w, grads_b


def train_step(model, X, Y, n_sup, learning_rate, lambda_u):
    """One full-batch gradient-descent update on the combined objective.

    X, Y: (n, d) rows of the mixed batch and their (n, C) one-hot or soft
    targets. The first `n_sup` rows feed cross-entropy, the rest the mean
    squared distance between the predicted simplex and the target simplex.
    One forward pass covers every row; the gradients are taken over the
    supervised rows, then over the consistency rows, and added.

    Returns (model, loss). The model is updated in place.
    """
    if learning_rate < 0:
        raise UsageError("learning rate must be nonnegative")
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    n, n_u = len(X), len(X) - n_sup
    if n == 0 or not 0 <= n_sup <= n:
        raise UsageError(f"train_step needs a nonempty batch and 0 <= n_sup <= {n}, "
                         f"got n_sup {n_sup}")

    acts = model._trace(X)
    probs = acts[-1]
    loss = 0.0
    grads = None

    if n_sup:
        p, Yl = probs[:n_sup], Y[:n_sup]
        t = np.maximum(p, PROB_FLOOR)
        np.log(t, out=t)
        t *= Yl
        loss += -_mean(class_sum(t))
        delta = p - Yl
        delta /= n_sup
        grads = _param_grads(model, [a[:n_sup] for a in acts], delta)

    if n_u:
        p, Yu = probs[n_sup:], Y[n_sup:]
        C = p.shape[1]
        g = p - Yu
        loss += lambda_u * float(_mean(g * g))
        # d/dq of mean_c (q-y)^2, then through the softmax Jacobian
        g *= lambda_u * 2.0
        g /= C * n_u
        g -= class_sum(g * p)[:, None]
        g *= p
        part = _param_grads(model, [a[n_sup:] for a in acts], g)
        if grads is None:
            grads = part
        else:
            for acc, more in zip(grads[0] + grads[1], part[0] + part[1]):
                acc += more

    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss: {loss}")

    for param, grad in zip(model.weights + model.biases, grads[0] + grads[1]):
        grad *= learning_rate
        param -= grad
    return model, float(loss)
