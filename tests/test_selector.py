import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideal_al.errors import InputShapeError, UsageError
from ideal_al.model import kl_rows
from ideal_al.selector import (
    Scores,
    coarse_inconsistency,
    density_factors,
    entropy_rows,
    percentiles,
    select,
    top_k,
    total_inconsistency,
)
from oracles import entropy, kl, percentile


class TestCoarseInconsistency:
    def test_identical_zero(self):
        assert coarse_inconsistency([[0.3, 0.7]] * 4) == 0.0

    def test_two_opposed(self):
        assert coarse_inconsistency([[1, 0], [0, 1]]) == pytest.approx(0.5)

    def test_three_preds(self):
        got = coarse_inconsistency([[1, 0], [1, 0], [0, 1]])
        assert got == pytest.approx(4 / 9)

    def test_too_few(self):
        with pytest.raises(UsageError):
            coarse_inconsistency([[1, 0]])

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            P = rng.dirichlet(np.ones(4), size=5)
            naive = sum(
                np.mean((P[:, c] - P[:, c].mean()) ** 2) for c in range(4)
            )
            assert coarse_inconsistency(P) == pytest.approx(naive, abs=1e-12)

    def test_rowwise_over_leading_axes(self):
        P = np.random.default_rng(3).dirichlet(np.ones(3), size=(4, 6, 5))
        got = coarse_inconsistency(P)
        assert got.shape == (4, 6)
        for a in range(4):
            for b in range(6):
                assert got[a, b] == coarse_inconsistency(P[a, b])

    def test_rowwise_too_few(self):
        with pytest.raises(UsageError):
            coarse_inconsistency(np.full((10, 1, 2), 0.5))


def fine_inconsistency(coarse_preds, perturbed_preds):
    """The loop's fine score of one sample: `kl_rows` summed over its variants."""
    return kl_rows(np.asarray(coarse_preds, dtype=float),
                   np.asarray(perturbed_preds, dtype=float)).sum()


class TestFineInconsistency:
    def test_identical_zero(self):
        P = [[0.2, 0.8], [0.6, 0.4]]
        assert fine_inconsistency(P, P) == 0.0

    def test_single_pair(self):
        assert fine_inconsistency([[1, 0]], [[0.5, 0.5]]) == pytest.approx(math.log(2))

    def test_additivity(self):
        one = fine_inconsistency([[1, 0]], [[0.5, 0.5]])
        two = fine_inconsistency([[1, 0]] * 2, [[0.5, 0.5]] * 2)
        assert two == pytest.approx(2 * one)

    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            P = rng.dirichlet(np.ones(3), size=4)
            Q = rng.dirichlet(np.ones(3), size=4)
            naive = sum(kl(p, q) for p, q in zip(P, Q))
            assert fine_inconsistency(P, Q) == pytest.approx(naive, abs=1e-12)


class TestPercentile:
    def test_paper_example(self):
        assert percentiles([1, 2, 3, 4])[3] == 0.75

    def test_minimum(self):
        assert percentiles([1, 5, 9])[0] == 0.0

    def test_tie_rule(self):
        assert percentiles([5, 5, 5, 9]).tolist() == [0.0, 0.0, 0.0, 0.75]

    def test_empty_population(self):
        with pytest.raises(UsageError):
            percentiles([])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 10, size=50).astype(float)
        phi = percentiles(values)
        for v, p in zip(values, phi):
            assert p == percentile(v, values)

    @given(values=st.lists(st.floats(min_value=-100, max_value=100),
                           min_size=2, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, values):
        phi = percentiles(values)
        n = len(values)
        assert np.all(phi >= 0) and np.all(phi <= (n - 1) / n)
        order = np.argsort(values)
        assert np.all(np.diff(phi[order]) >= 0)


class TestTotalInconsistency:
    def test_endpoint(self):
        assert total_inconsistency(0.8, 0.6, 1.0) == 0.8

    def test_hand_value(self):
        assert total_inconsistency(0.8, 0.6, 0.5) == pytest.approx(0.7)

    def test_default_gamma_weighting(self):
        assert total_inconsistency(1.0, 0.0, 0.4) == pytest.approx(0.4)

    def test_gamma_out_of_range(self):
        with pytest.raises(UsageError):
            total_inconsistency(0.5, 0.5, 1.2)

    def test_rowwise_matches_single(self):
        rng = np.random.default_rng(4)
        phi_c, phi_f = rng.uniform(size=(2, 3, 7))
        got = total_inconsistency(phi_c, phi_f, 0.4)
        assert got.shape == (3, 7)
        for a in range(3):
            for b in range(7):
                assert got[a, b] == total_inconsistency(phi_c[a, b], phi_f[a, b], 0.4)


class TestEntropy:
    def test_one_hot_zero(self):
        assert entropy_rows([[0.0, 1.0, 0.0]])[0] == 0.0

    def test_uniform_max(self):
        assert entropy_rows([[0.25] * 4])[0] == pytest.approx(math.log(4))

    def test_hand_value(self):
        got = entropy_rows([[0.9, 0.1], [0.5, 0.5]])
        assert got == pytest.approx([0.3251, math.log(2)], abs=1e-4)

    def test_matches_naive(self):
        P = np.random.default_rng(5).dirichlet(np.ones(4), size=200)
        P[::7, 1:] = 0.0
        P /= P.sum(axis=1, keepdims=True)
        naive = [entropy(p) for p in P]
        assert np.allclose(entropy_rows(P), naive, rtol=0, atol=1e-12)


def cosine_similarity(u, v):
    """Cosine of two rows, read off `density_factors` of the pair: each row's
    factor is the mean of its cosine with itself (1) and with the other."""
    return 2 * density_factors(np.array([u, v], dtype=float))[0] - 1


class TestCosineSimilarity:
    def test_parallel(self):
        assert cosine_similarity([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))


class TestDensityAwareEntropy:
    """Entropy times `density_factors`, the weighting `select` applies."""

    def test_self_similar_cloud(self):
        reps = np.ones((3, 2))
        assert np.allclose(0.5 * density_factors(reps), 0.5)

    def test_orthogonal_pair(self):
        reps = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert 0.8 * density_factors(reps)[0] == pytest.approx(0.4)

    def test_zero_entropy_annihilates(self):
        reps = np.random.default_rng(3).uniform(0.1, 1, (5, 3))
        assert np.all(np.zeros(5) * density_factors(reps) == 0.0)

    def test_zero_norm_candidates_dropped(self):
        target = np.array([1.0, 0.0])
        with pytest.warns(UserWarning):
            factors = density_factors(np.array([target, np.zeros(2), target]))
        assert factors.tolist() == pytest.approx([1.0, 0.0, 1.0])


def brute_force_two_stage(scores, m_cand, budget, use_density=True):
    """Independent full-sort oracle: complete sorts, explicit density sums."""
    rows = sorted(range(len(scores)),
                  key=lambda i: (-scores.in_total[i], scores.ids[i]))[:m_cand]
    scored = []
    for i in rows:
        sims = []
        for j in rows:
            u, v = scores.reps[i], scores.reps[j]
            sims.append(float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v))))
        factor = sum(sims) / len(sims) if use_density else 1.0
        scored.append((int(scores.ids[i]), scores.entropy[i] * factor))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return [sid for sid, _ in scored[:budget]]


def random_scores(n, seed, dim=4, c=3):
    rng = np.random.default_rng(seed)
    in_total, ent, reps = [], [], []
    for _ in range(n):
        p = rng.dirichlet(np.ones(c))
        in_total.append(float(rng.uniform(0, 1)))
        ent.append(p)
        reps.append(rng.uniform(0.1, 1.0, dim))
    return Scores(ids=np.arange(n), in_total=np.array(in_total),
                  entropy=entropy_rows(ent), reps=np.array(reps))


class TestScores:
    def test_length_mismatch_rejected(self):
        with pytest.raises(InputShapeError):
            Scores(ids=np.arange(3), in_total=np.zeros(2), entropy=np.zeros(3),
                   reps=np.ones((3, 2)))

    def test_unsorted_ids_rejected(self):
        with pytest.raises(UsageError):
            Scores(ids=np.array([0, 2, 1]), in_total=np.zeros(3),
                   entropy=np.zeros(3), reps=np.ones((3, 2)))


class TestTopK:
    def test_largest_first(self):
        assert top_k(np.array([0.1, 0.9, 0.5]), np.arange(3), 2).tolist() == [1, 2]

    def test_ties_break_by_ascending_id(self):
        key = np.array([0.5, 0.7, 0.5, 0.5])
        ids = np.array([30, 10, 20, 5])
        assert ids[top_k(key, ids, 4)].tolist() == [10, 5, 20, 30]

    def test_matches_full_sort(self):
        rng = np.random.default_rng(8)
        key = rng.integers(0, 5, 200).astype(float)
        ids = rng.permutation(1000)[:200]
        expect = sorted(range(200), key=lambda i: (-key[i], ids[i]))[:37]
        assert top_k(key, ids, 37).tolist() == expect


class TestSelect:
    def test_matches_brute_force(self):
        for seed in range(20):
            scores = random_scores(100, seed)
            got = select(scores, 30, 10)
            expect = brute_force_two_stage(scores, 30, 10)
            assert got == expect

    def test_m_equals_pool_pure_density_ranking(self):
        scores = random_scores(50, 5)
        got = select(scores, 50, 8)
        # with no primary cut, in_total must not matter
        again = select(dataclasses.replace(scores, in_total=np.zeros(50)), 50, 8)
        assert got == again

    def test_m_equals_budget_pure_inconsistency(self):
        scores = random_scores(50, 6)
        got = select(scores, 10, 10)
        ranked = sorted(range(50), key=lambda i: (-scores.in_total[i], i))[:10]
        assert set(got) == set(ranked)

    def test_budget_exceeds_m_rejected(self):
        with pytest.raises(UsageError):
            select(random_scores(10, 0), 3, 5)

    def test_output_size_and_uniqueness(self):
        scores = random_scores(80, 7)
        got = select(scores, 40, 15)
        assert len(got) == 15
        assert len(set(got)) == 15

    def test_rank_invariance_under_monotone_transform(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            raw_coa = rng.uniform(0, 2, 60)
            raw_fin = rng.uniform(0, 2, 60)
            phi_c0 = percentiles(raw_coa)
            phi_f0 = percentiles(raw_fin)
            phi_c1 = percentiles(raw_coa ** 3 + raw_coa)
            phi_f1 = percentiles(raw_fin ** 3 + raw_fin)
            assert np.array_equal(phi_c0, phi_c1)
            assert np.array_equal(phi_f0, phi_f1)

    def test_density_leq_entropy_for_nonnegative_reps(self):
        # the weights select() applies when every sample is a candidate
        scores = random_scores(40, 9)
        density_entropy = scores.entropy * density_factors(scores.reps)
        assert np.all(density_entropy <= scores.entropy + 1e-12)
        assert len(select(scores, 40, 5)) == 5
