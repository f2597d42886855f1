import numpy as np
import pytest

from ideal_al import augment
from ideal_al.augment import coarse_augment_batch, vat_perturbation_batch, vat_probe_rows
from ideal_al.errors import UsageError
from ideal_al.model import Classifier
from oracles import coarse_augment_batch_reference, kl
from util import relu_kink_free, vat_step


def tiny_model(seed=0, sizes=(2, 4, 2)):
    return Classifier.from_sizes(list(sizes), rng=np.random.default_rng(seed))


def zero_model(sizes=(2, 3, 2)):
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return Classifier(weights, biases)


class TestCoarseAugment:
    def test_variant_count(self):
        out = coarse_augment_batch(np.linspace(0, 1, 8)[None], k=5, delta=0.05,
                                   rng=np.random.default_rng(0))
        assert out.shape[:2] == (1, 5)

    def test_sup_norm_above_delta(self):
        X = np.random.default_rng(3).uniform(0, 1, (50, 6))
        for seed in range(50):
            A = coarse_augment_batch(X, k=3, delta=0.05, rng=np.random.default_rng(seed))
            assert np.all(np.abs(A - X[:, None, :]).max(axis=2) > 0.05)

    def test_constant_vector_still_displaced(self):
        # roll leaves a constant vector untouched; the fallback must fire
        X = np.full((30, 5), 0.3)
        for seed in range(30):
            A = coarse_augment_batch(X, k=4, delta=0.1, rng=np.random.default_rng(seed))
            assert np.all(np.abs(A - X[:, None, :]).max(axis=2) > 0.1)

    def test_determinism(self):
        X = np.random.default_rng(2).uniform(0, 1, (1, 4))
        a = coarse_augment_batch(X, 3, 0.05, np.random.default_rng(9))
        b = coarse_augment_batch(X, 3, 0.05, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_zero_k_rejected(self):
        with pytest.raises(UsageError):
            coarse_augment_batch(np.zeros((1, 3)), 0, 0.05, np.random.default_rng(0))

    def test_dimensionality_preserved(self):
        out = coarse_augment_batch(np.zeros((4, 7)), 2, 0.05, np.random.default_rng(1))
        assert out.shape == (4, 2, 7)


class TestCoarseAugmentBatch:
    def test_shape_and_contract(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (40, 6))
        A = coarse_augment_batch(X, k=3, delta=0.05, rng=rng)
        assert A.shape == (40, 3, 6)
        disp = np.abs(A - X[:, None, :]).max(axis=2)
        assert np.all(disp > 0.05)

    def test_determinism(self):
        X = np.random.default_rng(1).uniform(0, 1, (10, 4))
        A = coarse_augment_batch(X, 2, 0.05, np.random.default_rng(5))
        B = coarse_augment_batch(X, 2, 0.05, np.random.default_rng(5))
        assert np.array_equal(A, B)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
    def test_matches_reference_and_its_stream(self, d):
        # every (k, delta) pair over 300 seeds; zero rows leave roll and
        # block_flip within delta, so the fallback jitter runs
        for seed in range(300):
            k, delta = (1, 2, 3)[seed % 3], (0.05, 0.5, 2.0)[seed // 3 % 3]
            data = np.random.default_rng([seed, d])
            X = data.uniform(-1, 1, (int(data.integers(1, 12)), d))
            X[data.random(len(X)) < 0.3] = 0.0
            if seed % 5 == 0:
                X[:] = 0.0
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = coarse_augment_batch(X, k, delta, rng)
            want = coarse_augment_batch_reference(X, k, delta, ref_rng)
            assert np.array_equal(got, want), (d, seed)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (d, seed)


    @pytest.mark.parametrize("block_rows", [1, 20, 1 << 16])
    def test_sup_norm_blocks_and_callers_buffer(self, block_rows):
        # the variants built in the caller's buffer, and their sup-norm gaps
        # taken one row, a few rows and all rows at a time, as the pool
        # scan's gap pass does over its blocks, against the reference and
        # its stream
        for seed in range(60):
            k, d = (1, 2, 3)[seed % 3], (1, 4, 5)[seed // 3 % 3]
            data = np.random.default_rng([seed, 7])
            X = data.uniform(-1, 1, (int(data.integers(1, 30)), d))
            X[data.random(len(X)) < 0.3] = 0.0
            n = len(X)
            out = np.full((n * k, d), np.nan)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = coarse_augment_batch(X, k, 0.05, rng, out=out)
            assert np.shares_memory(got, out) and got.shape == (n, k, d)
            want = coarse_augment_batch_reference(X, k, 0.05, ref_rng)
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

            blocks_rng = np.random.default_rng(seed)
            draws = augment.coarse_draws(n * k, d, blocks_rng)
            out, gap = np.full((n * k, d), np.nan), np.full(n * k, np.nan)
            for s in range(0, n, block_rows):
                e = min(s + block_rows, n)
                part = draws.rows(s * k, e * k)
                u = blocks_rng.uniform(-1.0, 1.0, size=(part.jitter.size, d))
                augment.coarse_variants(X[s:e], k, 0.05, part, u,
                                        out[s * k:e * k], gap[s * k:e * k])
            rows = (gap <= 0.05).nonzero()[0]
            out[rows] += augment.coarse_fallback(rows.size, d, 0.05, blocks_rng)
            assert np.array_equal(out.reshape(n, k, d), want), (block_rows, seed)
            assert blocks_rng.bit_generator.state == ref_rng.bit_generator.state


def normals(X, seed):
    """Standard normal draws shaped like X, for the VAT directions."""
    return np.random.default_rng(seed).normal(size=np.shape(X))


def vat_one(m, x, y, eps, xi, rng):
    """`vat_step` on a single row: (vector, degenerate)."""
    R, degenerate = vat_step(m, x[None], y[None], eps, xi, rng.normal(size=(1, len(x))))
    return R[0], bool(degenerate[0])


class TestVatPerturbation:
    @pytest.mark.parametrize("zero", [False, True])
    @pytest.mark.parametrize("sizes", [(5, 16, 3), (16, 64, 64, 9)])
    def test_matches_own_pass_reference(self, zero, sizes):
        # the step back-propagates through its caller's trace of the probe
        # rows; `vat_step` checks it against a step that makes its own pass
        m = zero_model(sizes) if zero else tiny_model(3, sizes=sizes)
        X = np.random.default_rng(2).uniform(0, 1, (40, sizes[0]))
        Y = np.random.default_rng(3).dirichlet(np.ones(sizes[-1]), size=40)
        _, degenerate = vat_step(m, X, Y, 0.3, 0.1, normals(X, 4))
        assert degenerate.all() == zero

    def test_norm_equals_epsilon(self):
        m = tiny_model(3)
        X = np.random.default_rng(1).uniform(0, 1, (20, 2))
        X[0] = [0.3, 0.6]
        Y = m.predict(X)
        for eps in (1e-2, 0.5, 10.0):
            # a degenerate row falls back to its random direction, also of norm eps
            R, degenerate = vat_step(m, X, Y, eps, 0.1, normals(X, 0))
            assert not degenerate[0]
            assert np.allclose(np.linalg.norm(R, axis=1), eps, rtol=0, atol=1e-9)

    def test_degenerate_on_flat_model(self):
        m = zero_model()
        X = np.array([[0.3, 0.6], [0.1, 0.2]])
        R, degenerate = vat_step(m, X, m.predict(X), 1.0, 0.1, normals(X, 0))
        assert degenerate.all()
        assert np.allclose(np.linalg.norm(R, axis=1), 1.0, rtol=0, atol=1e-9)

    def test_determinism(self):
        m = tiny_model(2)
        X = np.array([[0.1, 0.9], [0.4, 0.3]])
        Y = m.predict(X)
        a, _ = vat_step(m, X, Y, 0.5, 0.1, normals(X, 7))
        b, _ = vat_step(m, X, Y, 0.5, 0.1, normals(X, 7))
        assert np.array_equal(a, b)

    def test_sphere_grid_dominance(self):
        # the one-step direction should be near-optimal on the epsilon sphere
        # for instances whose epsilon-ball stays inside one ReLU region
        eps = 0.01
        rng = np.random.default_rng(0)
        count = trial = 0
        while count < 20:
            trial += 1
            m = tiny_model(1000 + trial)
            x = rng.uniform(0, 1, 2)
            if not relu_kink_free(m, x, eps):
                continue
            y = m.predict(x)
            r, degenerate = vat_one(m, x, y, eps, xi=1e-3, rng=rng)
            if degenerate:
                continue
            got = kl(y, m.predict(x + r))
            best = max(
                kl(y, m.predict(x + eps * np.array([np.cos(t), np.sin(t)])))
                for t in np.deg2rad(np.arange(360))
            )
            if best < 1e-14:
                continue
            count += 1
            assert got >= 0.95 * best

    def test_invalid_params(self):
        m = tiny_model(1)
        X = np.zeros((1, 2))
        with pytest.raises(UsageError, match="xi"):
            vat_probe_rows(X, normals(X, 0), 0.0)
        D = normals(X, 0)
        acts = m._trace(vat_probe_rows(X, D, 0.1))
        with pytest.raises(UsageError, match="epsilon"):
            vat_perturbation_batch(m, acts, m.predict(X), 0.0, D)


def fine_variants(m, x, k, epsilon, rng):
    """The loop's fine variants of one sample: its coarse variants, each
    moved by its own VAT perturbation. Returns (coarse, fine), both (k, d)."""
    bar = coarse_augment_batch(x[None], k, 0.05, rng)[0]
    R, _ = vat_step(m, bar, m.predict(bar), epsilon, 0.1, rng.normal(size=bar.shape))
    return bar, bar + R


class TestFineAugmentSet:
    def test_count_matches_coarse(self):
        bar, hat = fine_variants(tiny_model(4), np.array([0.4, 0.5]), 2, 0.1,
                                 np.random.default_rng(2))
        assert bar.shape == hat.shape == (2, 2)

    def test_displacement_is_epsilon(self):
        bar, hat = fine_variants(tiny_model(4), np.array([0.4, 0.5]), 3, 0.2,
                                 np.random.default_rng(2))
        assert np.allclose(np.linalg.norm(hat - bar, axis=1), 0.2, rtol=0, atol=1e-9)

    def test_epsilon_limit_continuity(self):
        m = tiny_model(4)
        bar, hat = fine_variants(m, np.array([0.4, 0.5]), 2, 1e-9,
                                 np.random.default_rng(2))
        assert np.allclose(m.predict(hat), m.predict(bar), atol=1e-6)
