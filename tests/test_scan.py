"""The blocked pool scan against its whole-pool oracle."""

import tracemalloc

import numpy as np
import pytest

from ideal_al import loop as loop_mod
from ideal_al.config import LoopConfig
from ideal_al.data import Dataset, synthetic_dataset
from ideal_al.loop import ActiveLearningLoop, baseline_select
from ideal_al.selector import Scores, select
from oracles import coreset_select_whole, score_pool_whole

VARIANTS = {
    "ideal": {},
    "disable_coarse": {"disable_coarse": True},
    "disable_fine": {"disable_fine": True},
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
    blocked = lp._score_pool(rng_blocked)
    whole = score_pool_whole(lp, rng_whole)
    return blocked, whole, rng_blocked, rng_whole


@pytest.mark.parametrize("name", list(VARIANTS))
def test_small_blocks_match_whole_pool_bit_for_bit(name, monkeypatch):
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", 7)
    lp = trained_loop(**VARIANTS[name])
    n = lp.pool.n_unlabeled
    blocks = loop_mod._row_blocks(n)
    assert n == 36 and len(blocks) >= 3 and n % 7  # a short tail joins the last block
    blocked, whole, rng_blocked, rng_whole = both_scans(lp)
    for field in ("ids", "in_total", "entropy", "reps"):
        assert np.array_equal(getattr(blocked, field), getattr(whole, field)), field
    m, b = lp.config.m_cand, lp.config.budget
    assert select(blocked, m, b) == select(whole, m, b)
    assert rng_blocked.bit_generator.state == rng_whole.bit_generator.state


def test_default_blocks_match_whole_pool():
    # 2,500 unlabeled rows: two blocks, the second with the tail. The whole
    # pool's GEMMs may pick a different kernel for their row count, so the
    # last bits are allowed to differ.
    lp = trained_loop(per_class=1252)
    assert len(loop_mod._row_blocks(lp.pool.n_unlabeled)) == 2
    blocked, whole, rng_blocked, rng_whole = both_scans(lp)
    assert np.array_equal(blocked.ids, whole.ids)
    for field in ("in_total", "entropy", "reps"):
        assert np.allclose(getattr(blocked, field), getattr(whole, field),
                           rtol=1e-12, atol=0.0), field
    m, b = lp.config.m_cand, lp.config.budget
    assert select(blocked, m, b) == select(whole, m, b)
    assert rng_blocked.bit_generator.state == rng_whole.bit_generator.state


@pytest.mark.parametrize("scan_rows", [1, 2, 7, 1024])
def test_row_blocks_cover_the_pool_without_short_blocks(scan_rows, monkeypatch):
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", scan_rows)
    for n in range(0, 60):
        blocks = loop_mod._row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [e - s for s, e in blocks]
        assert all(scan_rows <= k < 2 * scan_rows for k in sizes) or sizes == [n]


def test_blocked_coreset_matches_whole_pool(monkeypatch):
    monkeypatch.setattr(loop_mod, "SCAN_ROWS", 7)
    rng = np.random.default_rng(5)
    n = 45
    scores = Scores(ids=np.arange(0, 3 * n, 3), in_total=np.zeros(n),
                    entropy=np.zeros(n), reps=rng.normal(size=(n, 4)))
    labeled = rng.normal(size=(6, 4))
    got = baseline_select("coreset", scores, 10, rng, labeled_reps=labeled)
    assert got == coreset_select_whole(scores, 10, labeled)


def test_scan_peak_memory_at_40k_rows():
    # the whole-pool scan peaks at about 328 MiB here: every (n * k_aug, 64)
    # activation at once
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
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"
