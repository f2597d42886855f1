import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ideal_al.config import LoopConfig
from ideal_al.errors import ConfigError, UsageError
from ideal_al.propagator import build_training_arrays, guess_labels_batch
from oracles import weighted_average


def guess_one(p_orig, p_aug, weights):
    """`guess_labels_batch` on a single sample."""
    P_aug = np.asarray(p_aug, dtype=float).reshape(1, len(p_aug), len(p_orig))
    return guess_labels_batch(np.asarray([p_orig], dtype=float), P_aug, weights)[0]


class TestGuessLabel:
    def test_identical_preds_unchanged(self):
        p = np.array([0.2, 0.8])
        assert np.allclose(guess_one(p, [p, p], [1.0, 1.0, 0.5]), p)

    def test_hand_weighted_average(self):
        # weight triple (1, 1, 0.5) over (1,0), (0,1), (1,0)
        out = guess_one([1, 0], [[0, 1], [1, 0]], [1.0, 1.0, 0.5])
        assert np.allclose(out, [0.6, 0.4])

    def test_single_pred_identity(self):
        assert np.allclose(guess_one([0.3, 0.7], [], [1.0]), [0.3, 0.7])

    def test_all_zero_weights_rejected(self):
        # the loop takes its weights from the config, which refuses all zeros
        with pytest.raises(ConfigError):
            LoopConfig(k_aug=2, weights=(0.0, 0.0, 0.0)).validate()

    def test_weight_count_mismatch(self):
        with pytest.raises(UsageError):
            guess_one([0.5, 0.5], [], [1.0, 1.0])

    def test_permutation_invariance(self):
        aug = [[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]]
        weights = [1.0, 0.7, 0.3, 0.4]
        a = guess_one([0.9, 0.1], aug, weights)
        perm = [2, 0, 1]
        b = guess_one([0.9, 0.1], [aug[i] for i in perm],
                      [weights[0]] + [weights[1 + i] for i in perm])
        assert np.allclose(a, b)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        P_orig = rng.dirichlet(np.ones(3), size=5)
        P_aug = rng.dirichlet(np.ones(3), size=(5, 2))
        w = [1.0, 0.8, 0.2]
        batch = guess_labels_batch(P_orig, P_aug, w)
        for i in range(5):
            assert np.allclose(batch[i], weighted_average([P_orig[i], *P_aug[i]], w))


def mix(H, Y, alpha, rng):
    """`build_training_arrays` on array-likes."""
    return build_training_arrays(np.asarray(H, dtype=float), np.asarray(Y, dtype=float),
                                 alpha, rng)


class TestSampleLambda:
    def test_fold_range(self):
        _, _, _, lam = mix(np.zeros((1000, 1)), np.zeros((1000, 1)), 0.75,
                           np.random.default_rng(1))
        assert np.all((lam >= 0.5) & (lam <= 1.0))

    def test_invalid_alpha(self):
        # the loop takes alpha from the config, which refuses alpha <= 0
        with pytest.raises(ConfigError):
            LoopConfig(alpha=0.0).validate()

    def test_mean_matches_quadrature_oracle(self):
        alpha = 0.75
        _, _, _, draws = mix(np.zeros((100_000, 1)), np.zeros((100_000, 1)), alpha,
                             np.random.default_rng(7))
        pdf = stats.beta(alpha, alpha).pdf
        analytic, _ = integrate.quad(lambda t: max(t, 1 - t) * pdf(t), 0, 1)
        assert abs(draws.mean() - analytic) < 0.01


class TestMixPair:
    def test_endpoint(self):
        # Beta(a, a) with a -> 0 sits at 0 or 1, which folds to lambda = 1:
        # every row keeps its own representation and target
        rng = np.random.default_rng(3)
        H, Y = rng.uniform(0, 1, (8, 2)), rng.dirichlet(np.ones(2), size=8)
        Xm, Ym, _, lam = mix(H, Y, 1e-6, rng)
        assert np.allclose(lam, 1.0)
        assert np.allclose(Xm, H) and np.allclose(Ym, Y)

    def test_midpoint(self):
        # Beta(a, a) with a -> inf sits at 1/2: each target is the mean of the pair
        Y = np.eye(2)[[0, 1, 0, 1]]
        _, Ym, perm, _ = mix(np.zeros((4, 1)), Y, 1e9, np.random.default_rng(0))
        assert np.allclose(Ym, (Y + Y[perm]) / 2, atol=1e-3)

    def test_hand_values(self):
        H = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        Y = np.eye(3)
        Xm, Ym, perm, lam = mix(H, Y, 0.75, np.random.default_rng(4))
        for i in range(3):
            j = perm[i]
            assert np.allclose(Xm[i], lam[i] * H[i] + (1 - lam[i]) * H[j])
            assert np.allclose(Ym[i], lam[i] * Y[i] + (1 - lam[i]) * Y[j])

    def test_lambda_out_of_range(self):
        # lambda never falls below 1/2: each mixed row stays at least as
        # close to its own row as to its partner
        rng = np.random.default_rng(6)
        H = rng.uniform(0, 1, (500, 3))
        Xm, _, perm, _ = mix(H, np.zeros((500, 1)), 0.75, rng)
        own = np.linalg.norm(Xm - H, axis=1)
        partner = np.linalg.norm(Xm - H[perm], axis=1)
        assert np.all(own <= partner + 1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           y1=st.floats(min_value=0, max_value=1),
           y2=st.floats(min_value=0, max_value=1))
    @settings(max_examples=300, deadline=None)
    def test_convex_combination_bounds(self, seed, y1, y2):
        Y = np.array([[y1, 1 - y1], [y2, 1 - y2]])
        _, Ym, _, _ = mix(np.zeros((2, 1)), Y, 0.75, np.random.default_rng(seed))
        lo, hi = min(y1, y2), max(y1, y2)
        assert np.all((lo - 1e-12 <= Ym[:, 0]) & (Ym[:, 0] <= hi + 1e-12))


class TestBuildTrainingBatch:
    def _rows(self, n, d=3, c=2, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 1, (n, d)), rng.dirichlet(np.ones(c), size=n)

    def test_only_labeled_all_ll(self):
        # a batch of labeled rows only mixes into as many rows, each
        # dominated by its own row, so all of them feed the supervised loss
        H, Y = self._rows(4)
        Xm, Ym, perm, lam = build_training_arrays(H, Y, 0.75, np.random.default_rng(0))
        assert Xm.shape == H.shape and Ym.shape == Y.shape
        assert sorted(perm) == [0, 1, 2, 3] and np.all(lam >= 0.5)

    def test_counts_deterministic(self):
        # mixed row i is built from row i (weight >= 1/2), so the first four
        # (labeled) rows stay first; the same seed gives the same arrays
        H, Y = self._rows(16, seed=1)
        out = build_training_arrays(H, Y, 0.75, np.random.default_rng(5))
        Xm, _, perm, lam = out
        assert len(Xm) == 16
        assert np.array_equal(Xm[:4], lam[:4, None] * H[:4]
                              + (1 - lam[:4, None]) * H[perm[:4]])
        for a, b in zip(out, build_training_arrays(H, Y, 0.75, np.random.default_rng(5))):
            assert np.array_equal(a, b)

    def test_targets_are_simplexes(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            H, Y = self._rows(9, seed=trial)
            _, Ym, _, lam = mix(H, Y, 0.75, rng)
            assert np.all(Ym >= -1e-12)
            assert np.allclose(Ym.sum(axis=1), 1.0, rtol=0, atol=1e-9)
            assert np.all((lam >= 0.5) & (lam <= 1.0))

    def test_identical_inputs_idempotent(self):
        H = np.tile([0.4, 0.6], (6, 1))
        Y = np.tile([0.5, 0.5], (6, 1))
        Xm, Ym, _, _ = mix(H, Y, 0.75, np.random.default_rng(2))
        assert np.allclose(Xm, H) and np.allclose(Ym, Y)
