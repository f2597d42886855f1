import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideal_al.errors import InputShapeError, UsageError
from ideal_al.model import (
    Classifier,
    grad_kl_wrt_input_batch,
    kl_rows,
    softmax,
    train_step,
)
from oracles import kl


def tiny_model(seed=0, sizes=(2, 4, 2)):
    return Classifier.from_sizes(list(sizes), rng=np.random.default_rng(seed))


def zero_model(sizes=(3, 4, 2)):
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return Classifier(weights, biases)


def simplex(draw_dim=4):
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=draw_dim, max_size=draw_dim
    ).map(lambda xs: np.array(xs) / np.sum(xs))


class TestForward:
    def test_zero_model_uniform(self):
        m = zero_model()
        p = m.predict(np.array([[1.0, -2.0, 0.5]]))
        assert np.allclose(p, [[0.5, 0.5]])

    def test_hand_softmax(self):
        # single linear layer producing logits (0, ln 3)
        m = Classifier([np.zeros((1, 2))], [np.array([0.0, math.log(3.0)])])
        p = m.predict(np.array([[0.7]]))
        assert np.allclose(p, [[0.25, 0.75]])

    def test_wrong_dim_raises(self):
        m = tiny_model()
        for fn in (m.predict, m.tap_representation):
            with pytest.raises(InputShapeError):
                fn(np.array([[1.0, 2.0, 3.0]]))

    def test_tap_layer_exposed(self):
        m = Classifier.from_sizes([3, 5, 2], tap_layer=1,
                                  rng=np.random.default_rng(1))
        X = np.random.default_rng(2).uniform(-1, 1, (4, 3))
        H = m.tap_representation(X)
        assert H.shape == (4, 5)
        assert np.all(H >= 0)  # post-ReLU
        # finishing the pass from the tap is the whole forward pass
        assert np.array_equal(m.predict(H, start=1), m.predict(X))

    @given(x=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_output_always_simplex(self, x):
        p = tiny_model(3).predict(np.array([x]))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-6


def kl_one(p, q):
    """`kl_rows` on a single pair of distributions."""
    return kl_rows(np.array([p], dtype=float), np.array([q], dtype=float))[0]


class TestKL:
    def test_identical_zero(self):
        assert kl_one([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_onehot_vs_uniform(self):
        assert kl_one([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_hand_value(self):
        expect = 0.9 * math.log(9) + 0.1 * math.log(1 / 9)
        assert kl_one([0.9, 0.1], [0.1, 0.9]) == pytest.approx(expect)
        assert expect == pytest.approx(1.7578, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_one([1.0, 0.0], [0.3, 0.3, 0.4])

    def test_zero_q_clamped_finite(self):
        v = kl_one([1.0, 0.0], [0.0, 1.0])
        assert np.isfinite(v) and v > 0

    @given(p=simplex(), q=simplex())
    @settings(max_examples=500, deadline=None)
    def test_nonnegative(self, p, q):
        got = kl_one(p, q)
        assert got >= -1e-12
        assert got == pytest.approx(kl(p, q), abs=1e-12)

    @given(p=simplex())
    @settings(max_examples=200, deadline=None)
    def test_self_zero(self, p):
        assert kl_one(p, p) == pytest.approx(0.0, abs=1e-12)


def finite_diff_grad(model, base, reference, offset, h=1e-4):
    d = len(offset)
    g = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        up = kl(reference, model.predict(base + offset + e))
        dn = kl(reference, model.predict(base + offset - e))
        g[i] = (up - dn) / (2 * h)
    return g


def grad_one(model, base, reference, offset):
    """`grad_kl_wrt_input_batch` on a single row."""
    return grad_kl_wrt_input_batch(model, base[None], reference[None], offset[None])[0]


class TestGradWrtInput:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            m = tiny_model(trial, sizes=(2, 4, 2))
            base = rng.uniform(-1, 1, 2)
            offset = rng.uniform(-0.3, 0.3, 2)
            ref = np.array([0.8, 0.2])
            g = grad_one(m, base, ref, offset)
            fd = finite_diff_grad(m, base, ref, offset)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.all(np.abs(g - fd) / denom < 1e-3)

    def test_constant_model_zero_gradient(self):
        m = zero_model((2, 3, 2))
        base = np.array([0.3, 0.4])
        offset = np.array([0.1, -0.1])
        ref = m.predict(base + offset)
        g = grad_one(m, base, ref, offset)
        assert np.allclose(g, 0.0)

    def test_purity(self):
        m = tiny_model(5)
        base = np.array([0.2, 0.9])
        offset = np.array([0.05, 0.01])
        ref = np.array([0.6, 0.4])
        g1 = grad_one(m, base, ref, offset)
        g2 = grad_one(m, base, ref, offset)
        assert np.array_equal(g1, g2)

    def test_dim_mismatch(self):
        m = tiny_model(5)
        with pytest.raises(InputShapeError):
            grad_one(m, np.zeros(3), np.array([0.5, 0.5]), np.zeros(3))


def supervised_reference_step(model, X, Y, lr):
    """Independent plain cross-entropy SGD step (naive loops, no sharing
    with the implementation under test beyond the forward pass)."""
    m = copy.deepcopy(model)
    n = len(X)
    acts = [np.asarray(X, dtype=float)]
    zs = []
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = acts[-1] @ w + b
        zs.append(z)
        acts.append(softmax(z) if i == len(m.weights) - 1 else np.maximum(z, 0))
    delta = (acts[-1] - Y) / n
    grads_w, grads_b = [], []
    for i in range(len(m.weights) - 1, -1, -1):
        grads_w.insert(0, acts[i].T @ delta)
        grads_b.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ m.weights[i].T) * (zs[i - 1] > 0)
    for i in range(len(m.weights)):
        m.weights[i] = m.weights[i] - lr * grads_w[i]
        m.biases[i] = m.biases[i] - lr * grads_b[i]
    return m


class TestTrainStep:
    def test_zero_learning_rate_no_change(self):
        m = tiny_model(2)
        before = [w.copy() for w in m.weights]
        X = np.array([[0.1, 0.2]])
        Y = np.array([[1.0, 0.0]])
        train_step(m, (X, Y), learning_rate=0.0)
        for w0, w1 in zip(before, m.weights):
            assert np.array_equal(w0, w1)

    def test_loss_decreases_over_windows(self):
        m = tiny_model(4)
        X = np.array([[0.3, -0.2]])
        Y = np.array([[0.0, 1.0]])
        losses = []
        for _ in range(200):
            _, loss = train_step(m, (X, Y), learning_rate=0.1)
            losses.append(loss)
        for start in range(0, 150, 50):
            assert losses[start + 50] < losses[start]

    def test_matches_supervised_reference(self):
        rng = np.random.default_rng(11)
        m = tiny_model(9, sizes=(3, 5, 2))
        X = rng.uniform(-1, 1, (6, 3))
        Y = np.eye(2)[rng.integers(0, 2, 6)]
        expected = supervised_reference_step(m, X, Y, lr=0.05)
        train_step(m, (X, Y), learning_rate=0.05, lambda_u=0.0)
        for w_got, w_exp in zip(m.weights, expected.weights):
            assert np.allclose(w_got, w_exp, atol=1e-12)
        for b_got, b_exp in zip(m.biases, expected.biases):
            assert np.allclose(b_got, b_exp, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError):
            train_step(tiny_model(1), None, None)

    def test_bit_reproducible(self):
        def one_run():
            m = tiny_model(3)
            rng = np.random.default_rng(42)
            for _ in range(10):
                X = rng.uniform(-1, 1, (4, 2))
                Y = np.eye(2)[rng.integers(0, 2, 4)]
                Xu = rng.uniform(-1, 1, (4, 2))
                Yu = np.full((4, 2), 0.5)
                train_step(m, (X, Y), (Xu, Yu), learning_rate=0.05)
            return m

        a, b = one_run(), one_run()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_unlabeled_term_moves_parameters(self):
        m = tiny_model(6)
        before = [w.copy() for w in m.weights]
        Xu = np.array([[0.5, 0.5]])
        Yu = np.array([[1.0, 0.0]])
        train_step(m, None, (Xu, Yu), learning_rate=0.5)
        assert any(not np.array_equal(w0, w1) for w0, w1 in zip(before, m.weights))
