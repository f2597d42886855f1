"""End-to-end acceptance suite.

Each test prints a single ``criterion NN [PASS|FAIL]`` line before asserting,
so the full scorecard is visible in one place (run with ``pytest -v -s`` or
read the captured output). The heavier directional experiments (criteria 07
and 08) share one cached benchmark run, see `benchmark_results`.
"""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ideal_al.config import LoopConfig
from ideal_al.data import Dataset, synthetic_dataset
from ideal_al.loop import ActiveLearningLoop, run
from ideal_al.model import Classifier, grad_kl_wrt_input_batch, kl_rows
from ideal_al.propagator import build_training_arrays, guess_labels_batch
from ideal_al.selector import (
    Scores,
    coarse_inconsistency,
    entropy_rows,
    percentiles,
    select,
    total_inconsistency,
)
from oracles import kl
from util import relu_kink_free, vat_step


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num:02d} failed: {name} {detail}"


# -- criterion 1: analytic KL gradient vs central finite differences -----

def finite_diff_grad(model, base, reference, offset, h=1e-5):
    d = len(offset)
    g = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        up = kl(reference, model.predict(base + offset + e))
        dn = kl(reference, model.predict(base + offset - e))
        g[i] = (up - dn) / (2 * h)
    return g


def test_criterion_01_vat_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 100:
        dim = int(rng.integers(2, 9))
        n_classes = int(rng.integers(2, 5))
        m = Classifier.from_sizes([dim, int(rng.integers(3, 9)), n_classes],
                                  rng=rng)
        base = rng.uniform(-1, 1, dim)
        offset = rng.uniform(-0.3, 0.3, dim)
        # keep the finite-difference stencil inside one ReLU linearity region
        if not relu_kink_free(m, base + offset, 1e-5, margin=4.0):
            continue
        ref = rng.dirichlet(np.ones(n_classes))
        g = grad_kl_wrt_input_batch(m, m._trace((base + offset)[None]), ref[None])[0]
        fd = finite_diff_grad(m, base, ref, offset)
        denom = np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, "gradient vs central differences",
           worst < 1e-4 and elapsed < 10.0,
           f"100 models, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: one-step direction near-optimal on the epsilon sphere --

def test_criterion_02_adversarial_direction_dominance():
    eps = 0.01
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    angles = np.deg2rad(np.arange(360))
    circle = eps * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    checked = 0
    trial = 0
    worst = np.inf
    while checked < 100:
        trial += 1
        m = Classifier.from_sizes([2, 4, 2], rng=np.random.default_rng(5000 + trial))
        x = rng.uniform(0, 1, 2)
        # the local-quadratic argument behind the power step needs a smooth
        # neighbourhood: skip instances with a ReLU kink inside the ball
        if not relu_kink_free(m, x, eps):
            continue
        y = m.predict(x)
        R, degenerate = vat_step(m, x[None], y[None], eps, 1e-3, rng.normal(size=(1, 2)))
        if degenerate[0]:
            continue
        got = kl(y, m.predict(x + R[0]))
        best = max(kl(y, m.predict(x + c)) for c in circle)
        if best < 1e-14:
            continue
        worst = min(worst, got / best)
        checked += 1
    elapsed = time.perf_counter() - start
    report(2, "sphere-grid dominance",
           worst >= 0.95 and elapsed < 30.0,
           f"100 instances, worst ratio {worst:.4f}, {elapsed:.1f}s")


# -- criterion 3: inconsistency scores vs naive recomputation ------------

def test_criterion_03_inconsistency_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        k = int(rng.integers(2, 7))
        P = rng.dirichlet(np.ones(c), size=k)
        Q = rng.dirichlet(np.ones(c), size=k)
        naive_coa = sum(np.mean((P[:, j] - P[:, j].mean()) ** 2) for j in range(c))
        naive_fin = sum(kl(p, q) for p, q in zip(P, Q))
        worst = max(worst,
                    abs(coarse_inconsistency(P) - naive_coa),
                    abs(kl_rows(P, Q).sum() - naive_fin))
    identical = rng.dirichlet(np.ones(3))
    # the row-wise forms the loop scores the pool with: leading axes are samples
    P = rng.dirichlet(np.ones(4), size=(10, 30, 3))
    naive_rows = [[sum(np.mean((P[a, b, :, j] - P[a, b, :, j].mean()) ** 2)
                       for j in range(4)) for b in range(30)] for a in range(10)]
    worst = max(worst, np.abs(coarse_inconsistency(P) - naive_rows).max())
    P_bar, P_hat = rng.dirichlet(np.ones(4), size=(2, 300 * 3))
    naive_fin_rows = [sum(kl(P_bar[3 * i + v], P_hat[3 * i + v]) for v in range(3))
                      for i in range(300)]
    in_fin = kl_rows(P_bar, P_hat).reshape(300, 3).sum(axis=1)
    worst = max(worst, np.abs(in_fin - naive_fin_rows).max())
    same = np.tile(identical, (4, 1))
    zeros_ok = (coarse_inconsistency(same) == 0.0 and kl_rows(same, same).sum() == 0.0)
    report(3, "inconsistency vs brute force",
           worst < 1e-10 and zeros_ok,
           f"1000 instances + 2x300 rows, worst abs err {worst:.2e}")


# -- criterion 4: monotone transforms leave percentile ranks untouched ---

def _scores_from_raw(raw_coa, raw_fin, entropies, reps, gamma=0.4):
    phi_c = percentiles(raw_coa)
    phi_f = percentiles(raw_fin)
    return phi_c, phi_f, Scores(ids=np.arange(len(raw_coa)),
                                in_total=total_inconsistency(phi_c, phi_f, gamma),
                                entropy=entropies, reps=reps)


def test_criterion_04_percentile_rank_invariance():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(100):
        raw_coa = rng.uniform(0, 3, 200)
        raw_fin = rng.uniform(0, 3, 200)
        ent = rng.uniform(0, np.log(3), 200)
        reps = rng.uniform(0.1, 1.0, (200, 6))
        phi_c0, phi_f0, sc0 = _scores_from_raw(raw_coa, raw_fin, ent, reps)
        phi_c1, phi_f1, sc1 = _scores_from_raw(raw_coa ** 3 + raw_coa,
                                               raw_fin ** 3 + raw_fin, ent, reps)
        ok &= np.array_equal(phi_c0, phi_c1)
        ok &= np.array_equal(phi_f0, phi_f1)
        ok &= np.array_equal(sc0.in_total, sc1.in_total)
        ok &= select(sc0, 60, 20) == select(sc1, 60, 20)
        if not ok:
            break
    report(4, "rank invariance under x^3 + x", ok, "100 pools of 200")


# -- criterion 5: two-stage selection vs full-sort oracle ----------------

def full_sort_two_stage(scores, m_cand, budget):
    """Independent oracle: complete sorts plus explicit pairwise density."""
    rows = sorted(range(len(scores)),
                  key=lambda i: (-scores.in_total[i], scores.ids[i]))[:m_cand]
    scored = []
    for i in rows:
        sims = []
        for j in rows:
            u = np.asarray(scores.reps[i], dtype=float)
            v = np.asarray(scores.reps[j], dtype=float)
            sims.append(float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v))))
        scored.append((int(scores.ids[i]), scores.entropy[i] * sum(sims) / len(sims)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return [sid for sid, _ in scored[:budget]]


def test_criterion_05_two_stage_selection_equivalence():
    rng = np.random.default_rng(17)
    ok = True
    for trial in range(100):
        n = int(rng.integers(30, 501))
        budget = int(rng.integers(1, 16))
        m_cand = int(rng.integers(budget, n + 1))
        in_total, preds, reps = [], [], []
        for i in range(n):
            preds.append(rng.dirichlet(np.ones(3)))
            in_total.append(float(rng.uniform(0, 1)))
            reps.append(rng.uniform(0.1, 1.0, 5))
        scores = Scores(ids=np.arange(n), in_total=np.array(in_total),
                        entropy=entropy_rows(np.array(preds)), reps=np.array(reps))
        ok &= select(scores, m_cand, budget) == full_sort_two_stage(
            scores, m_cand, budget)

        # endpoint m_cand == budget: only inconsistency decides
        by_in = sorted(range(n), key=lambda i: (-in_total[i], i))
        ok &= set(select(scores, budget, budget)) == set(by_in[:budget])

        # endpoint m_cand == pool size: inconsistency must not matter
        got_full = select(scores, n, budget)
        ok &= got_full == select(dataclasses.replace(scores, in_total=np.zeros(n)),
                                 n, budget)
        if not ok:
            break
    report(5, "two-stage oracle incl. endpoints", ok, "100 pools, N <= 500")


# -- criterion 6: bookkeeping over a long run ----------------------------

def test_criterion_06_pool_bookkeeping_ten_cycles():
    ds = synthetic_dataset(2, 2, 200, noise=0.12, seed=21, dim=6)
    cfg = LoopConfig(budget=10, cycles=10, train_steps_per_cycle=20,
                     batch_size=16, hidden_sizes=(16,), seed=4)
    loop = ActiveLearningLoop(cfg, ds)
    initial = loop.pool.n_labeled
    ok = True
    all_selected = []
    for t in range(10):
        rep = loop.run_cycle(t)
        ok &= not set(loop.pool.labeled) & set(loop.pool.unlabeled)
        ok &= loop.pool.n_labeled + loop.pool.n_unlabeled == len(ds)
        all_selected.extend(rep.selected_ids)
    ok &= loop.pool.n_labeled == initial + 10 * cfg.budget
    ok &= len(all_selected) == len(set(all_selected))
    # every oracle read must correspond to a sample in the labeled pool
    ok &= set(loop.oracle.audit) == set(loop.pool.labeled)
    ok &= len(loop.oracle.audit) == len(set(loop.oracle.audit))
    report(6, "pool bookkeeping and oracle audit", ok,
           f"labeled {initial}+100, {len(all_selected)} selections")


# -- criteria 7 and 8: directional benchmark -----------------------------
#
# Mixture benchmark: 2 classes x 4 Gaussian clusters each in 16 dims,
# cluster centers drawn uniformly from [0.3, 0.7]^16, per-dim noise 0.15,
# 2000-sample pool plus a 600-sample held-out test split from the same
# mixture. 4 initial labels, budget 20, 5 cycles, >= 10 seeds.

BENCH_SEEDS = range(12)
BENCH_SETTINGS = dict(budget=20, cycles=5, epsilon=0.3, m_cand=100,
                      train_steps_per_cycle=500)


def make_benchmark(seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.3, 0.7, size=(2, 4, 16))
    feats, labels = [], []
    for c in range(2):
        for k in range(4):
            pts = centers[c, k] + 0.15 * rng.standard_normal(size=(325, 16))
            feats.append(pts)
            labels += [c] * 325
    X = np.concatenate(feats)
    y = np.array(labels)
    order = rng.permutation(len(y))
    X, y = X[order], y[order]
    ds = Dataset.from_raw(np.arange(len(y)), X, y, 2)
    return ds.subset(np.arange(2000)), ds.subset(np.arange(2000, 2600))


@pytest.fixture(scope="module")
def benchmark_results():
    datasets = {s: make_benchmark(s) for s in BENCH_SEEDS}

    def final_accuracies(strategy, **overrides):
        out = []
        for s in BENCH_SEEDS:
            pool, test = datasets[s]
            cfg = LoopConfig(seed=s, strategy=strategy,
                             **{**BENCH_SETTINGS, **overrides})
            out.append(run(cfg, pool, test_data=test)[-1].accuracy)
        return np.array(out)

    results = {"elapsed": {}}
    for name, strategy, overrides in (
            ("random", "random", {}),
            ("entropy", "entropy", {}),
            ("ideal", "ideal", {}),
            ("no_reranker", "ideal", {"m_cand": BENCH_SETTINGS["budget"]}),
            ("no_ranker", "ideal", {"disable_ranker": True})):
        t0 = time.perf_counter()
        results[name] = final_accuracies(strategy, **overrides)
        results["elapsed"][name] = time.perf_counter() - t0
    return results


@pytest.mark.slow
def test_criterion_07_directional_learning_benefit(benchmark_results):
    r = benchmark_results
    ideal, ent, rand = (r["ideal"].mean(), r["entropy"].mean(),
                        r["random"].mean())
    gap = ideal - rand
    _, p = stats.ttest_rel(r["ideal"], r["random"], alternative="greater")
    # reported only: on this benchmark ideal and entropy are a paired tie
    _, p_ent = stats.ttest_rel(r["ideal"], r["entropy"], alternative="greater")
    wins_ent = int(np.sum(r["ideal"] > r["entropy"]))
    elapsed = sum(r["elapsed"][k] for k in ("random", "entropy", "ideal"))
    ok = (ideal >= ent >= rand and gap >= 0.02 and p < 0.05
          and elapsed < 600.0)
    report(7, "ideal >= entropy >= random with >= 2pt gap", ok,
           f"ideal {ideal:.4f}, entropy {ent:.4f}, random {rand:.4f}, "
           f"gap {100 * gap:.2f}pt, p {p:.4f}, {elapsed:.0f}s; not asserted: "
           f"ideal > entropy p {p_ent:.4f} ({wins_ent}/{len(r['ideal'])})")


@pytest.mark.slow
def test_criterion_08_ablation_ordering(benchmark_results):
    # Each selection stage must contribute: the full method beats both
    # single-stage ablations on paired seeds. Whether a single stage alone
    # beats random is reported but not asserted; on this benchmark neither
    # does (whole-pool density weighting clusters the batch).
    r = benchmark_results
    names = {"ideal": "ideal", "no_reranker": "-reranker",
             "no_ranker": "-ranker", "random": "random"}

    def paired(a, b):
        # one-sided paired t-test a > b; NaN when the arrays are identical
        _, p = stats.ttest_rel(r[a], r[b], alternative="greater")
        wins = int(np.sum(r[a] > r[b]))
        return p, f"{names[a]} > {names[b]} p {p:.4f} ({wins}/{len(r[a])})"

    p_rer, asserted_rer = paired("ideal", "no_reranker")
    p_ran, asserted_ran = paired("ideal", "no_ranker")
    reported = [paired(a, b)[1] for a, b in (("no_reranker", "no_ranker"),
                                             ("no_reranker", "random"),
                                             ("no_ranker", "random"))]
    ok = bool(p_rer < 0.05 and p_ran < 0.05)
    means = ", ".join(f"{label} {r[key].mean():.4f}" for key, label in names.items())
    report(8, "each stage contributes: ideal beats both ablations", ok,
           f"{means}; {asserted_rer}, {asserted_ran}; "
           f"not asserted: {', '.join(reported)}")


# -- criterion 9: selection cost scales linearly in pool size ------------

def big_pool(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 16))
    y = (X[:, :8].sum(axis=1) > X[:, 8:].sum(axis=1)).astype(int)
    return Dataset.from_raw(np.arange(n), X, y, 2)


def one_scoring_pass(n, seed):
    cfg = LoopConfig(budget=20, m_cand=100, train_steps_per_cycle=1, seed=seed)
    loop = ActiveLearningLoop(cfg, big_pool(n, seed))
    rng = np.random.default_rng(seed)
    tracemalloc.start()
    # CPU time of this process: another process taking a CPU meanwhile
    # slows the wall clock, not the work counted here
    t0 = time.process_time()
    scores = loop._score_pool(rng)
    select(scores, cfg.resolved_m_cand(len(scores)), cfg.budget)
    elapsed = time.process_time() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak


def test_criterion_09_selection_cost_scaling():
    # warm-up to amortize allocator effects, then best-of-two per size
    one_scoring_pass(2000, 0)
    t20 = min(one_scoring_pass(20_000, s)[0] for s in (1, 2))
    t40, peak40 = one_scoring_pass(40_000, 3)
    t40 = min(t40, one_scoring_pass(40_000, 4)[0])
    peak20 = one_scoring_pass(20_000, 5)[1]
    time_ratio = t40 / t20
    mem_ratio = peak40 / peak20
    report(9, "doubling the pool at most triples scoring+selection",
           time_ratio <= 3.0 and mem_ratio <= 3.0,
           f"20k {t20:.2f}s vs 40k {t40:.2f}s (x{time_ratio:.2f}), "
           f"peak mem x{mem_ratio:.2f}")


# -- criterion 10: distribution and simplex invariants -------------------

def test_criterion_10_distribution_and_simplex_invariants():
    rng = np.random.default_rng(29)
    ok = True

    for c in (2, 3, 4, 5):
        # 2,500 samples per class count: guessed labels from the original and
        # two variant predictions, mixed against as many other targets
        preds = rng.dirichlet(np.ones(c), size=(2_500, 3))
        g = guess_labels_batch(preds[:, 0], preds[:, 1:], [1.0, 1.0, 0.5])
        Y = np.concatenate([g, rng.dirichlet(np.ones(c), size=2_500)])
        _, Ym, _, lams = build_training_arrays(rng.uniform(0, 1, (5_000, 4)), Y, 0.75, rng)
        ok &= bool(np.all(lams >= 0.5) and np.all(lams <= 1.0))
        for V in (g, Ym):
            ok &= bool(np.all(V >= -1e-12) and np.all(np.abs(V.sum(axis=1) - 1.0) < 1e-9))
        ent = entropy_rows(preds[:, 0])
        ok &= bool(np.all(ent >= -1e-12) and np.all(ent <= np.log(c) + 1e-12))
    assert ok, "simplex/entropy invariant broke"

    m = Classifier.from_sizes([6, 8, 3], rng=rng)
    X = rng.uniform(-1, 1, (10_000, 6))
    R, _ = vat_step(m, X, m.predict(X), 0.37, 0.1, rng.normal(size=X.shape))
    ok &= bool(np.allclose(np.linalg.norm(R, axis=1), 0.37, atol=1e-9))

    for _ in range(100):
        n = int(rng.integers(2, 200))
        phi = percentiles(rng.normal(size=n))
        ok &= bool(np.all(phi >= 0.0) and np.all(phi <= (n - 1) / n))

    report(10, "lambda/simplex/entropy/norm/percentile invariants", ok,
           "10k-trial suites")
