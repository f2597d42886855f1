"""The blocked, threaded pool-wide passes and coreset's carried distances
against their whole-pool oracles."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ideal_al import BLAS_THREAD_VARS, augment, selector
from ideal_al import loop as loop_mod
from ideal_al.config import LoopConfig
from ideal_al.data import Dataset, synthetic_dataset
from ideal_al.loop import ActiveLearningLoop, baseline_select
from ideal_al.model import Classifier
from ideal_al.selector import Scores, select
from oracles import (
    accuracy_whole,
    coreset_select_whole,
    entropy_records_whole,
    labeled_distances_whole,
    score_pool_reference,
    score_pool_whole,
)

VARIANTS = {
    "ideal": {},
    "gamma_0": {"gamma": 0.0},
    "gamma_1": {"gamma": 1.0},
}


def trained_loop(per_class=20, **overrides):
    ds = synthetic_dataset(2, 2, per_class, noise=0.1, seed=4, dim=5)
    cfg = LoopConfig(budget=5, m_cand=12, train_steps_per_cycle=20, seed=2, k_aug=2,
                     batch_size=8, hidden_sizes=(8, 6), **overrides)
    lp = ActiveLearningLoop(cfg, ds)
    lp._train_phase(np.random.default_rng(0))
    return lp


def both_scans(lp, seed=9):
    rng_blocked, rng_whole = np.random.default_rng(seed), np.random.default_rng(seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost write would show
    try:
        blocked = lp._score_pool(rng_blocked)
    finally:
        sys.setswitchinterval(interval)
    whole = score_pool_whole(lp, rng_whole)
    return blocked, whole, rng_blocked, rng_whole


@pytest.mark.parametrize("pinned_on_import, env, workers", [
    (True, {}, 2),
    # the variables BLAS read at import are what count, not later values
    (True, {"OMP_NUM_THREADS": "4"}, 2),
    (False, {}, 1),
    (False, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    # perfbench/run.py sets all three before it loads numpy
    (False, dict.fromkeys(BLAS_THREAD_VARS, "1"), 2),
    (False, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
    (False, {"MKL_NUM_THREADS": "2"}, 1),
])
def test_scan_workers_follow_the_blas_pin(pinned_on_import, env, workers, monkeypatch):
    # with BLAS unpinned its threads and the scan's workers share the CPUs:
    # a 40k-row scan took 439 ms on two workers against 336 ms on one
    monkeypatch.setattr(loop_mod, "BLAS_PINNED_ON_IMPORT", pinned_on_import)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(loop_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    assert loop_mod._scan_workers() == workers


@pytest.mark.parametrize("name", list(VARIANTS))
def test_small_blocks_match_whole_pool_bit_for_bit(name, monkeypatch):
    # three workers, which may be more than this machine has, and more blocks
    # than workers, so blocks can finish out of order
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", 7)
    monkeypatch.setattr(loop_mod, "_scan_workers", lambda: 3)
    lp = trained_loop(**VARIANTS[name])
    n = lp.pool.n_unlabeled
    blocks = loop_mod._row_blocks(n, 7)
    assert n == 36 and len(blocks) > 3 and n % 7  # a short tail joins the last block
    blocked, whole, rng_blocked, rng_whole = both_scans(lp)
    for field in ("ids", "in_total", "entropy", "reps"):
        assert np.array_equal(getattr(blocked, field), getattr(whole, field)), field
    m, b = lp.config.m_cand, lp.config.budget
    assert select(blocked, m, b) == select(whole, m, b)
    assert rng_blocked.bit_generator.state == rng_whole.bit_generator.state


def test_default_blocks_match_whole_pool():
    # 2,500 unlabeled rows: several blocks, the last with the tail. The whole
    # pool's GEMMs may pick a different kernel for their row count, so the
    # last bits are allowed to differ.
    lp = trained_loop(per_class=1252)
    n = lp.pool.n_unlabeled
    assert len(loop_mod._row_blocks(n, loop_mod.SCAN_ROWS)) == n // loop_mod.SCAN_ROWS > 1
    blocked, whole, rng_blocked, rng_whole = both_scans(lp)
    assert np.array_equal(blocked.ids, whole.ids)
    for field in ("in_total", "entropy", "reps"):
        assert np.allclose(getattr(blocked, field), getattr(whole, field),
                           rtol=1e-12, atol=0.0), field
    m, b = lp.config.m_cand, lp.config.budget
    assert select(blocked, m, b) == select(whole, m, b)
    assert rng_blocked.bit_generator.state == rng_whole.bit_generator.state


# The benchmark's widths: hidden (64, 64) and 16 features, where a row's last
# bits depend on its place among a product's row groups (output widths 2, 3
# and 9 among them), so a part that shared another part's product would show.
WIDE_CASES = {
    "C2": ({}, {}),
    "C3": ({}, {"n_classes": 3}),
    "C9": ({}, {"n_classes": 9}),
    "k1": ({"k_aug": 1}, {}),
    "k3": ({"k_aug": 3}, {}),
    "d1": ({}, {"dim": 1}),
    "gamma_0": ({"gamma": 0.0}, {}),
    "gamma_1": ({"gamma": 1.0}, {}),
    "zero_model": ({}, {}),
}


@pytest.mark.parametrize("scan_rows, workers", [(7, 1), (7, 3), (512, 1), (512, 3)])
@pytest.mark.parametrize("name", list(WIDE_CASES))
def test_fused_blocks_match_four_pass_reference_at_benchmark_width(
        name, scan_rows, workers, monkeypatch):
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", scan_rows)
    monkeypatch.setattr(loop_mod, "_scan_workers", lambda: workers)
    overrides, data = WIDE_CASES[name]
    C = data.get("n_classes", 2)
    ds = synthetic_dataset(C, 2, 1300 // C, noise=0.1, seed=4, dim=data.get("dim", 16))
    cfg = LoopConfig(budget=5, m_cand=40, train_steps_per_cycle=10, seed=2,
                     batch_size=16, **overrides)
    assert cfg.hidden_sizes == (64, 64)
    lp = ActiveLearningLoop(cfg, ds)
    lp._train_phase(np.random.default_rng(0))
    masks = []
    if name == "zero_model":
        # every VAT gradient vanishes: each row falls back to its direction
        lp.model = Classifier([np.zeros_like(w) for w in lp.model.weights],
                              [np.zeros_like(b) for b in lp.model.biases])
        vat = augment.vat_perturbation_batch
        monkeypatch.setattr(augment, "vat_perturbation_batch",
                            lambda *a: (out := vat(*a), masks.append(out[1]))[0])
    # the raw coarse and fine inconsistencies, before the percentiles hide
    # their last bits
    raw, percentiles = [], selector.percentiles
    monkeypatch.setattr(selector, "percentiles", lambda v: raw.append(v) or percentiles(v))
    assert len(loop_mod._row_blocks(lp.pool.n_unlabeled, scan_rows)) > 1
    rng_fused, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
    fused, ref = lp._score_pool(rng_fused), score_pool_reference(lp, rng_ref)
    for field in ("ids", "in_total", "entropy", "reps"):
        assert np.array_equal(getattr(fused, field), getattr(ref, field)), field
    assert len(raw) == 4
    assert np.array_equal(raw[0], raw[2]) and np.array_equal(raw[1], raw[3])
    m, b = cfg.m_cand, cfg.budget
    assert select(fused, m, b) == select(ref, m, b)
    assert rng_fused.bit_generator.state == rng_ref.bit_generator.state
    if name == "zero_model":
        assert masks and all(mask.all() for mask in masks)


@pytest.mark.parametrize("delta", [0.05, 1.0])
@pytest.mark.parametrize("workers", [1, 3])
def test_gap_pass_over_several_chunks_matches_whole_pool_bit_for_bit(
        workers, delta, monkeypatch):
    # blocks of 7 rows for the gap pass and the scan alike, so the jitter
    # uniforms are drawn in 5 blocks and replayed in the same 5; at delta 1.0
    # most rolled and flipped variants of these [0, 1] rows stay within delta
    # and take the fallback jitter, which the blocks add back
    lp = trained_loop(delta=delta)
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", 7)
    monkeypatch.setattr(loop_mod, "_scan_workers", lambda: workers)
    Xu = lp.pool.features[lp.pool.labels < 0]
    blocks = loop_mod._row_blocks(len(Xu), 7)
    calls, fallback = [], []
    variants, extra = augment.coarse_variants, augment.coarse_fallback

    def counted_variants(X, *rest):
        if len(rest) == 6:  # given a gap array: a gap-pass block
            calls.append(X.copy())
        return variants(X, *rest)

    def counted_fallback(m, *rest):
        fallback.append(m)
        return extra(m, *rest)

    monkeypatch.setattr(augment, "coarse_variants", counted_variants)
    monkeypatch.setattr(augment, "coarse_fallback", counted_fallback)
    blocked, whole, rng_blocked, rng_whole = both_scans(lp)
    *gap_blocks, whole_pool = calls  # the oracle's whole-pool call comes last
    assert len(blocks) == 5 and np.array_equal(whole_pool, Xu)
    # one gap-pass call per scan block, whichever worker took it
    assert sorted((s, e) for c in gap_blocks for s, e in blocks
                  if np.array_equal(c, Xu[s:e])) == blocks
    assert (fallback[0] > 20) == (delta == 1.0)
    for field in ("ids", "in_total", "entropy", "reps"):
        assert np.array_equal(getattr(blocked, field), getattr(whole, field)), field
    m, b = lp.config.m_cand, lp.config.budget
    assert select(blocked, m, b) == select(whole, m, b)
    assert rng_blocked.bit_generator.state == rng_whole.bit_generator.state


@pytest.mark.parametrize("workers, blocks, threads", [
    (3, 1, 1),
    (3, 3, 1),
    (3, 4, 2),
    (3, 7, 3),
    # 16 CPUs: without the cap each would hold a block's buffers
    (16, 64, loop_mod.SCAN_MAX_WORKERS),
])
def test_scan_starts_one_worker_per_two_blocks_up_to_the_cap(workers, blocks, threads,
                                                             monkeypatch):
    # a block holds its slot until `threads` blocks are in flight (or 2 s
    # pass), so every started worker takes one and a worker too many shows
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", 4)
    monkeypatch.setattr(loop_mod, "_scan_workers", lambda: workers)
    lock, full = threading.Lock(), threading.Event()
    in_flight, most, seen = [0], [0], set()

    def block(s, e):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
            seen.add(threading.get_ident())
            if in_flight[0] == threads:
                full.set()
        full.wait(timeout=2.0)
        time.sleep(0.005)
        with lock:
            in_flight[0] -= 1

    loop_mod._scan(4 * blocks, block, loop_mod._scan_workers())
    assert 1 < loop_mod.SCAN_MAX_WORKERS < 16
    assert most[0] == len(seen) == threads


@pytest.mark.parametrize("scan_rows", [1, 2, 7, 1024])
def test_row_blocks_cover_the_pool_without_short_blocks(scan_rows):
    for n in range(0, 60):
        blocks = loop_mod._row_blocks(n, scan_rows)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [e - s for s, e in blocks]
        assert all(scan_rows <= k < 2 * scan_rows for k in sizes) or sizes == [n]


def test_blocked_coreset_matches_whole_pool():
    # the labeled set folded in one row at a time, as the loop carries it,
    # against the whole (d, L, n) difference array
    rng = np.random.default_rng(5)
    n = 45
    scores = Scores(ids=np.arange(0, 3 * n, 3), in_total=np.zeros(n),
                    entropy=np.zeros(n), reps=rng.normal(size=(n, 4)))
    labeled = rng.normal(size=(6, 4))
    reps_t = np.ascontiguousarray(scores.reps.T)
    min_dist = np.full(n, np.inf)
    for row in labeled:
        loop_mod._fold(reps_t, row, min_dist)
    assert np.array_equal(min_dist, labeled_distances_whole(scores.reps, labeled))
    got = baseline_select("coreset", scores.ids, 10, rng, reps_t, min_dist)
    assert got == coreset_select_whole(scores, 10, labeled)


def coreset_loop(d, cycles=5):
    # rows on a 4-level grid, the last third repeating the first: duplicate
    # rows and tied distances, down to every unlabeled row at distance 0
    rng = np.random.default_rng(d)
    X = rng.integers(0, 4, size=(60, d)).astype(float)
    X[40:] = X[:20]
    ds = Dataset.from_raw(np.arange(0, 120, 2), X, np.arange(60) % 2, 2)
    cfg = LoopConfig(strategy="coreset", budget=5, cycles=cycles, seed=d, k_aug=2,
                     train_steps_per_cycle=2, batch_size=8, hidden_sizes=(8,))
    return ActiveLearningLoop(cfg, ds)


def check_coreset_cycle(lp, t):
    """One cycle's picks against the greedy recomputed from the pool's labeled
    rows, then the carried distances against the brute-force ones."""
    pool = lp.pool
    unlabeled = pool.labels < 0
    n = int(unlabeled.sum())
    scores = Scores(ids=pool.ids[unlabeled], in_total=np.zeros(n), entropy=np.zeros(n),
                    reps=pool.features[unlabeled])
    want = coreset_select_whole(scores, lp.config.budget, pool.features[~unlabeled])
    assert lp.run_cycle(t).selected_ids == want, t
    labeled = pool.labels >= 0
    brute = labeled_distances_whole(pool.features, pool.features[labeled])
    assert np.array_equal(lp._min_dist, np.where(labeled, -np.inf, brute)), t


# from one feature to 130: below 8 the fold's order is also the one
# `np.linalg.norm` takes, from 8 up the two orders differ in the last bits
WIDTHS = [1, 2, 3, 5, 8, 16, 17, 130]


@pytest.mark.parametrize("d", WIDTHS)
def test_carried_coreset_distances_match_brute_force(d):
    lp = coreset_loop(d)
    for t in range(lp.config.cycles):
        check_coreset_cycle(lp, t)


@pytest.mark.parametrize("d", [2, 8, 16, 17, 130])
def test_rows_labeled_outside_coreset_are_folded_in(d):
    lp = coreset_loop(d)
    for t in range(lp.config.cycles):
        check_coreset_cycle(lp, t)
        # a caller labels rows the greedy never picked
        lp.pool.annotate(lp.pool.unlabeled[[0, 3 + t]], lp.oracle)


def test_fold_sums_squares_one_feature_at_a_time_bit_for_bit():
    # the oracles' distances are the fold's only while numpy sums axis 0 of a
    # C-contiguous array one row at a time: a numpy release that changes
    # that order fails here
    rng = np.random.default_rng(11)
    for d in range(1, 301):
        reps_t = rng.choice([-1.0, 1.0], size=(d, 40)) * 10.0 ** rng.uniform(-9, 9, (d, 40))
        reps_t[:, 20:] = reps_t[:, :20]  # equal columns
        row = rng.choice([-1.0, 1.0], size=d) * 10.0 ** rng.uniform(-9, 9, d)
        min_dist = np.full(40, np.inf)
        loop_mod._fold(reps_t, row, min_dist)
        want = np.sqrt(((reps_t - row[:, None]) ** 2).sum(axis=0))
        assert np.array_equal(min_dist.view(np.int64), want.view(np.int64)), d
        assert np.array_equal(min_dist[20:], min_dist[:20]), d


def test_entropy_and_accuracy_small_blocks_match_whole_pool_bit_for_bit(monkeypatch):
    # more CPUs than this machine may have: these passes use the calling
    # thread whatever the count
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", 7)
    monkeypatch.setattr(loop_mod, "_scan_workers", lambda: 3)
    lp = trained_loop()
    assert len(loop_mod._row_blocks(lp.pool.n_unlabeled, 7)) > 3
    assert len(loop_mod._row_blocks(len(lp.test_data), 7)) > 3
    blocked, accuracy = lp._entropy_records(), lp.accuracy()
    whole = entropy_records_whole(lp)
    for field in ("ids", "in_total", "entropy", "reps"):
        assert np.array_equal(getattr(blocked, field), getattr(whole, field)), field
    assert accuracy == accuracy_whole(lp)


def test_entropy_and_accuracy_default_blocks_match_whole_pool():
    # 20,000 unlabeled rows, and the 20,004-row pool as the test set: the
    # whole-pool GEMMs may take another kernel, so the last bits may differ
    lp = trained_loop(per_class=10_002)
    assert lp.pool.n_unlabeled == 20_000
    blocked, whole = lp._entropy_records(), entropy_records_whole(lp)
    assert np.array_equal(blocked.ids, whole.ids)
    assert np.array_equal(blocked.reps, whole.reps)
    assert np.allclose(blocked.entropy, whole.entropy, rtol=1e-12, atol=0.0)
    assert lp.accuracy() == accuracy_whole(lp)


def test_scan_fails_with_the_blocks_exception_and_joins_its_workers(monkeypatch):
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", 7)
    monkeypatch.setattr(loop_mod, "_scan_workers", lambda: 3)
    lp = trained_loop()
    predict, calls, lock = Classifier.predict, [], threading.Lock()

    def failing_predict(self, X):
        with lock:
            calls.append(len(X))
            if len(calls) == 3:
                raise FloatingPointError("third predict")
        return predict(self, X)

    monkeypatch.setattr(Classifier, "predict", failing_predict)
    threads = threading.active_count()
    for scan in (lambda: lp._score_pool(np.random.default_rng(9)),
                 lp._entropy_records, lp.accuracy):
        calls.clear()
        with pytest.raises(FloatingPointError, match="third predict"):
            scan()
        assert len(calls) >= 3
        assert threading.active_count() == threads


def test_scan_peak_memory_at_40k_rows(monkeypatch):
    # the whole-pool scan peaks at about 328 MiB here: every (n * k_aug, 64)
    # activation at once, and drawing every row's coarse variants before the
    # walk still peaked at 26.4 MiB. Built per block, the pass holds the
    # features, O(n * k_aug) draws and gaps, and one block's buffer and
    # activations per worker, about 14 MiB; the worker count is fixed, as
    # each further worker adds about 4.6 MiB.
    monkeypatch.setattr(loop_mod, "_scan_workers", lambda: 2)
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, (40_000, 16))
    y = (X[:, :8].sum(axis=1) > X[:, 8:].sum(axis=1)).astype(int)
    ds = Dataset.from_raw(np.arange(len(X)), X, y, 2)
    lp = ActiveLearningLoop(LoopConfig(budget=20, m_cand=100, seed=3), ds)
    tracemalloc.start()
    try:
        lp._score_pool(np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_scan_peak_memory_within_a_small_multiple_of_the_features(monkeypatch):
    # 20k x 128: drawing every row's coarse variants before the walk held an
    # (n * k_aug, 128) array and its transforms' temporaries, 5.0x the
    # features. Built per block, the pass holds the unlabeled feature rows,
    # O(n * k_aug) draws and gaps, and two workers' gap or scoring blocks.
    monkeypatch.setattr(loop_mod, "_scan_workers", lambda: 2)
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, (20_000, 128))
    y = (X[:, :64].sum(axis=1) > X[:, 64:].sum(axis=1)).astype(int)
    ds = Dataset.from_raw(np.arange(len(X)), X, y, 2)
    lp = ActiveLearningLoop(LoopConfig(budget=20, m_cand=100, seed=3), ds)
    tracemalloc.start()
    try:
        lp._score_pool(np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / lp.pool.features.nbytes
    assert ratio <= 2.5, f"peak {peak / 2**20:.1f} MiB, {ratio:.2f}x the features"
