import dataclasses

import numpy as np
import pytest
from scipy import stats

from ideal_al.config import LoopConfig
from ideal_al.data import (Dataset, generate_synthetic, load_dataset,
                           synthetic_dataset, write_dataset)
from ideal_al.errors import ConfigError, DataError, UsageError
from ideal_al.loop import ActiveLearningLoop, Oracle, Pool, baseline_select, run
from ideal_al.selector import Scores, select


def small_dataset(seed=0, per_class=60, dim=4):
    return synthetic_dataset(2, 2, per_class, noise=0.1, seed=seed, dim=dim)


def fast_config(**overrides):
    base = dict(budget=5, cycles=2, train_steps_per_cycle=10, seed=1,
                k_aug=2, batch_size=8, hidden_sizes=(8,))
    base.update(overrides)
    return LoopConfig(**base)


class TestOracle:
    def test_lookup(self):
        oracle = Oracle({1: 0, 2: 1})
        assert oracle.query(1) == 0

    def test_repeat_query_stable(self):
        oracle = Oracle({7: 3})
        assert oracle.query(7) == oracle.query(7)

    def test_unknown_id(self):
        with pytest.raises(LookupError):
            Oracle({1: 0}).query(99)

    def test_audit_records_queries(self):
        oracle = Oracle({1: 0, 2: 1})
        oracle.query(2)
        oracle.query(1)
        assert oracle.audit == [2, 1]


class TestBaselineSelect:
    def _records(self, entropies, reps=None):
        n = len(entropies)
        reps = reps if reps is not None else [[float(i)] for i in range(n)]
        return Scores(ids=np.arange(n), in_total=np.zeros(n),
                      entropy=np.asarray(entropies, dtype=float),
                      reps=np.asarray(reps, dtype=float))

    def test_entropy_picks_uniform_sample(self):
        records = self._records([0.0, 0.0, np.log(2), 0.0])
        assert baseline_select("entropy", records, 1,
                               np.random.default_rng(0)) == [2]

    def test_coreset_farthest_point(self):
        records = self._records([0.1] * 3, reps=[[0.0], [1.0], [10.0]])
        got = baseline_select("coreset", records, 1, np.random.default_rng(0),
                              labeled_reps=np.array([[0.0]]))
        assert got == [2]

    def test_random_reproducible(self):
        records = self._records([0.5] * 10)
        a = baseline_select("random", records, 4, np.random.default_rng(3))
        b = baseline_select("random", records, 4, np.random.default_rng(3))
        assert a == b
        assert len(set(a)) == 4

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            baseline_select("egl", self._records([0.5]), 1,
                            np.random.default_rng(0))


class TestPoolBookkeeping:
    def test_sizes_update_per_cycle(self):
        ds = small_dataset()
        loop = ActiveLearningLoop(fast_config(), ds)
        n0 = loop.pool.n_labeled
        rep = loop.run_cycle(0)
        assert loop.pool.n_labeled == n0 + 5
        assert loop.pool.n_unlabeled == len(ds) - n0 - 5
        assert rep.n_labeled == n0 + 5
        assert not set(loop.pool.labeled) & set(loop.pool.unlabeled)

    def test_pool_conservation_and_disjoint_selection(self):
        ds = small_dataset()
        loop = ActiveLearningLoop(fast_config(cycles=4), ds)
        reports = loop.run()
        assert loop.pool.n_labeled + loop.pool.n_unlabeled == len(ds)
        all_selected = [sid for r in reports for sid in r.selected_ids]
        assert len(all_selected) == len(set(all_selected))

    def test_cycles_times_budget_beyond_seeded_pool_is_a_config_error(self):
        # 20 rows, 4 seeded: the 16 left serve 3 cycles of 5, not 4
        ds = small_dataset(per_class=10)
        ActiveLearningLoop(fast_config(budget=5, cycles=3), ds)
        with pytest.raises(ConfigError, match="4 cycles x budget 5 = 20 exceed the 16"):
            ActiveLearningLoop(fast_config(budget=5, cycles=4), ds)

    def test_budget_beyond_seeded_pool_is_a_config_error(self):
        ds = small_dataset(per_class=4)
        with pytest.raises(ConfigError, match="budget"):
            ActiveLearningLoop(fast_config(budget=5), ds)

    def test_class_without_rows_is_a_data_error(self):
        ds = small_dataset()
        keep = np.flatnonzero(ds.labels != 0)
        with pytest.raises(DataError, match="class"):
            ActiveLearningLoop(fast_config(), ds.subset(keep))

    def test_class_below_init_per_class_is_a_config_error(self):
        ds = small_dataset()
        keep = np.concatenate([np.flatnonzero(ds.labels == 0)[:1],
                               np.flatnonzero(ds.labels == 1)])
        with pytest.raises(ConfigError, match="init_per_class"):
            ActiveLearningLoop(fast_config(), ds.subset(keep))

    def test_oracle_hygiene(self):
        ds = small_dataset()
        loop = ActiveLearningLoop(fast_config(cycles=3), ds)
        loop.run()
        authorized = set(loop.pool.labeled)
        assert set(loop.oracle.audit) == authorized

    def test_pool_rows_follow_ids_not_file_order(self):
        ds = small_dataset()
        shuffled = ds.subset(np.random.default_rng(2).permutation(len(ds))[:90])
        loop = ActiveLearningLoop(fast_config(), shuffled)
        pool = loop.pool
        assert pool.ids.tolist() == sorted(shuffled.ids.tolist())
        row_of = {int(i): k for k, i in enumerate(shuffled.ids)}
        for k, sid in enumerate(pool.ids.tolist()):
            assert np.array_equal(pool.features[k], shuffled.features[row_of[sid]])
            if pool.labels[k] >= 0:
                assert pool.labels[k] == shuffled.labels[row_of[sid]]
        assert pool.labeled.tolist() == sorted(loop.oracle.audit)


class TestTestFrame:
    def test_test_file_rows_take_the_pool_frame(self, tmp_path):
        # each file alone is scaled by its own range: the first 20 rows span
        # less than the pool does
        header, rows = generate_synthetic(2, 2, 50, noise=0.1, seed=0, dim=4)
        write_dataset(header, rows, tmp_path / "pool.csv")
        write_dataset(header, rows[:20], tmp_path / "test.csv")
        pool, test = load_dataset(tmp_path / "pool.csv"), load_dataset(tmp_path / "test.csv")
        assert np.abs(test.features - pool.features[:20]).max() > 0.01
        loop = ActiveLearningLoop(fast_config(), pool, test_data=test)
        assert np.abs(loop.test_data.features - pool.features[:20]).max() < 1e-12
        assert np.array_equal(loop.test_data.ids, pool.ids[:20])

    def test_subset_of_the_pool_is_used_as_is(self):
        ds = small_dataset()
        test = ds.subset(np.arange(20))
        assert ActiveLearningLoop(fast_config(), ds, test_data=test).test_data is test

    def test_flat_pool_column_maps_to_zero(self):
        raw = np.column_stack([np.arange(20.0), np.full(20, 5.0)])
        pool = Dataset.from_raw(np.arange(20), raw, np.arange(20) % 2, 2)
        test = Dataset.from_raw([0, 1], [[-2.0, 4.0], [38.0, 9.0]], [0, 1], 2)
        got = ActiveLearningLoop(fast_config(), pool, test_data=test).test_data.features
        assert np.allclose(got, [[-2 / 19, 0.0], [2.0, 0.0]], rtol=0, atol=1e-12)


class TestPool:
    def _pool(self):
        return Pool(ids=np.array([2, 5, 9]), features=np.zeros((3, 2)),
                    labels=np.array([-1, 1, -1]))

    def test_annotate_queries_in_order(self):
        pool, oracle = self._pool(), Oracle({2: 0, 5: 1, 9: 1})
        pool.annotate([9, 2], oracle)
        assert oracle.audit == [9, 2]
        assert pool.labels.tolist() == [0, 1, 1]
        assert pool.n_labeled == 3 and pool.n_unlabeled == 0

    def test_annotate_rejects_unknown_id(self):
        pool, oracle = self._pool(), Oracle({2: 0, 5: 1, 9: 1, 11: 0})
        for bad in ([3], [11], [1]):
            with pytest.raises(UsageError):
                pool.annotate(bad, oracle)
        assert oracle.audit == []

    def test_annotate_rejects_relabel(self):
        pool, oracle = self._pool(), Oracle({2: 0, 5: 1, 9: 1})
        with pytest.raises(UsageError):
            pool.annotate([2, 5], oracle)
        assert oracle.audit == []

    def test_check_rejects_unsorted_ids(self):
        pool = self._pool()
        pool.ids = np.array([2, 9, 5])
        with pytest.raises(UsageError):
            pool.check()


class TestDeterminism:
    def test_identical_seed_identical_reports(self):
        ds = small_dataset()
        a = run(fast_config(), ds)
        b = run(fast_config(), ds)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.selected_ids == rb.selected_ids
            assert ra.accuracy == rb.accuracy
            assert ra.mean_in_total == rb.mean_in_total

    def test_different_seed_differs(self):
        ds = small_dataset()
        a = run(fast_config(seed=1), ds)
        b = run(fast_config(seed=2), ds)
        assert any(ra.selected_ids != rb.selected_ids for ra, rb in zip(a, b))


class TestAblations:
    def test_full_ablation_collapses_to_random(self):
        ds = small_dataset()
        ideal_off = fast_config(disable_ranker=True, disable_reranker=True,
                                disable_coarse=True, disable_fine=True,
                                disable_density=True)
        random_cfg = fast_config(strategy="random")
        a = run(ideal_off, ds)
        b = run(random_cfg, ds)
        for ra, rb in zip(a, b):
            assert ra.selected_ids == rb.selected_ids
            assert ra.accuracy == rb.accuracy

    def test_disable_reranker_is_pure_inconsistency(self):
        ds = small_dataset()
        loop = ActiveLearningLoop(fast_config(disable_reranker=True), ds)
        rep = loop.run_cycle(0)
        assert len(rep.selected_ids) == 5

    def test_disable_ranker_reranks_whole_pool(self):
        # without the ranker the candidate set is the whole unlabeled pool,
        # re-ranked by density-aware entropy
        ds = small_dataset()
        cfg = fast_config(disable_ranker=True)
        loop = ActiveLearningLoop(cfg, ds)
        rngs = loop._cycle_rngs(0)
        loop._train_phase(rngs["train"])
        pool_scores = loop._entropy_records()
        expected = select(pool_scores, len(pool_scores), cfg.budget)
        selected, scores = loop._select_phase(rngs)
        assert len(pool_scores) == loop.pool.n_unlabeled
        assert selected == expected
        assert np.array_equal(scores.ids, pool_scores.ids)

        rep = ActiveLearningLoop(cfg, ds).run_cycle(0)
        assert rep.selected_ids == expected
        assert rep.mean_in_total is None


class TestRandomUniformity:
    def test_chi_square_over_seeds(self):
        # a 20-sample pool, B=2, 1000 seeded selections: the per-id selection
        # counts should be consistent with uniform sampling
        records = Scores(ids=np.arange(20), in_total=np.zeros(20),
                         entropy=np.full(20, 0.5),
                         reps=np.column_stack([np.ones(20), np.arange(20.0)]))
        counts = np.zeros(20)
        for seed in range(1000):
            picked = baseline_select("random", records, 2,
                                     np.random.default_rng(seed))
            for sid in picked:
                counts[sid] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01


class TestConfigValidation:
    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigError):
            LoopConfig(budget=0).validate()

    def test_m_cand_below_budget_rejected(self):
        with pytest.raises(ConfigError):
            LoopConfig(budget=10, m_cand=5).validate()

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError):
            LoopConfig(gamma=1.5).validate()

    def test_default_m_cand_scaling(self):
        assert LoopConfig(budget=2500).resolved_m_cand() == 6500

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            LoopConfig(strategy="vaal").validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            ActiveLearningLoop(fast_config(seed=-1), small_dataset())

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["epsilon", "xi", "alpha", "delta",
                                     "learning_rate", "lambda_u", "gamma"])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigError):
            LoopConfig(**{key: value}).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(ConfigError):
            LoopConfig(k_aug=2, weights=(1.0, value, 1.0)).validate()


class TestInputs:
    def test_test_data_width_mismatch(self):
        with pytest.raises(DataError):
            ActiveLearningLoop(fast_config(), small_dataset(dim=4),
                               test_data=small_dataset(dim=3))

    def test_test_data_class_beyond_pool(self):
        test = synthetic_dataset(3, 2, 10, noise=0.1, seed=1, dim=4)
        with pytest.raises(DataError, match="class 2"):
            ActiveLearningLoop(fast_config(), small_dataset(dim=4), test_data=test)
