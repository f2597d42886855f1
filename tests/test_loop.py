import copy
import dataclasses

import numpy as np
import pytest
from scipy import stats

from ideal_al import augment, selector
from ideal_al import loop as loop_mod
from ideal_al.config import LoopConfig
from ideal_al.data import (Dataset, generate_synthetic, load_dataset,
                           synthetic_dataset, write_dataset)
from ideal_al.errors import ConfigError, DataError, NumericError, UsageError
from ideal_al.loop import ActiveLearningLoop, Oracle, Pool, baseline_select, run
from ideal_al.model import Classifier
from ideal_al.selector import Scores, select
import oracles
from oracles import train_phase_reference


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
    def test_entropy_picks_uniform_sample(self):
        # the entropy baseline is the whole-pool select with no density weight
        scores = Scores(ids=np.arange(4), in_total=np.zeros(4),
                        entropy=np.array([0.0, 0.0, np.log(2), 0.0]),
                        reps=np.arange(4.0)[:, None])
        assert select(scores, 4, 1, use_density=False) == [2]

    def test_coreset_farthest_point(self):
        # distances to the one labeled row, at 0.0, which is -inf
        reps_t = np.array([[0.0, 1.0, 10.0, 0.0]])
        min_dist = np.array([1.0, 1.0, 10.0, -np.inf])
        got = baseline_select("coreset", np.arange(4), 1, np.random.default_rng(0),
                              reps_t, min_dist)
        assert got == [2]
        assert min_dist.tolist() == [1.0, 1.0, -np.inf, -np.inf]  # the pick folded in

    def test_coreset_never_picks_a_labeled_row(self):
        # every row at one point, so all distances tie at 0: the greedy takes
        # the lowest ids that are not labeled (-inf)
        min_dist = np.array([-np.inf, 0.0, -np.inf, 0.0, 0.0])
        got = baseline_select("coreset", np.arange(10, 15), 3, np.random.default_rng(0),
                              np.zeros((2, 5)), min_dist)
        assert got == [11, 13, 14]
        assert (min_dist == -np.inf).all()
        with pytest.raises(UsageError):
            baseline_select("coreset", np.arange(2), 2, np.random.default_rng(0),
                            np.zeros((1, 2)), np.array([-np.inf, 0.0]))

    def test_random_reproducible(self):
        ids = np.arange(10)
        a = baseline_select("random", ids, 4, np.random.default_rng(3))
        b = baseline_select("random", ids, 4, np.random.default_rng(3))
        assert a == b
        assert len(set(a)) == 4

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            baseline_select("egl", np.arange(1), 1, np.random.default_rng(0))

    def test_entropy_is_not_a_baseline_rule(self):
        # entropy reads a prediction: it is `select`, tested above
        with pytest.raises(ConfigError):
            baseline_select("entropy", np.arange(4), 1, np.random.default_rng(0))


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


class TestTrainPhase:
    def test_three_forward_passes_per_ssl_step(self, monkeypatch):
        # per step: [Xu; variants; VAT probe rows] once (label guess, VAT
        # reference and VAT gradient), the perturbed variants, and the mixed
        # batch once
        loop = ActiveLearningLoop(fast_config(train_steps_per_cycle=7), small_dataset())
        rows, trace = [], Classifier._trace
        monkeypatch.setattr(Classifier, "_trace", lambda model, X, *split:
                            rows.append(len(X)) or trace(model, X, *split))
        loop._train_phase(loop._cycle_rngs(0)["train"])
        # 4 labeled rows, 8 unlabeled rows and their 2 x 8 coarse variants
        assert rows == [8 + 16 + 16, 16, 4 + 8 + 16] * 7

    def test_update_that_overflows_after_a_finite_loss_is_a_numeric_error(self):
        # each step's loss is finite; the phase's last update is not
        ds = synthetic_dataset(2, 2, 30, noise=0.08, seed=21, dim=3)
        cfg = LoopConfig(budget=2, cycles=1, train_steps_per_cycle=2, seed=0,
                         batch_size=8, learning_rate=1e32, strategy="random")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="layer 0 parameters are non-finite"):
                run(cfg, ds)


class TestTrainPhaseReference:
    """The step against `oracles.train_phase_reference` (concatenated
    batches, four forward passes, the VAT step's own probe pass), bit for
    bit, on the branches the golden trace does not reach."""

    @staticmethod
    def _dataset(n_classes=2, per_class=20, dim=4):
        return synthetic_dataset(n_classes, 2, per_class, noise=0.1, seed=3, dim=dim)

    @staticmethod
    def _assert_phase_matches(loop, cycle=0):
        ref = copy.deepcopy(loop)
        rng, ref_rng = loop._cycle_rngs(cycle)["train"], ref._cycle_rngs(cycle)["train"]
        before = [p.copy() for p in loop.model.weights + loop.model.biases]
        loop._train_phase(rng)
        train_phase_reference(ref, ref_rng)
        got, exp = loop.model.weights + loop.model.biases, ref.model.weights + ref.model.biases
        assert any(not np.array_equal(p, q) for p, q in zip(got, before))
        assert all(np.array_equal(p, q) for p, q in zip(got, exp))
        # the same draws, in the same order
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("overrides, data", [
        # 4 labeled rows against a batch of 8, drawn with replacement
        ({}, {}),
        # 6 unlabeled rows against a batch of 8, and 9 against 16: the fused
        # pass splits its products after 18 and 27 rows, inside a BLAS row
        # group, and its (32, 2) and (32, 9) output layers are where a row's
        # bits depend on that
        ({"budget": 1, "cycles": 1, "hidden_sizes": (32, 32)}, {"per_class": 5, "dim": 16}),
        ({"budget": 1, "batch_size": 16, "init_per_class": 1, "hidden_sizes": (32, 32)},
         {"n_classes": 9, "per_class": 2, "dim": 16}),
        # one labeled row, one unlabeled row and one variant: every part of
        # the fused pass is a one-row product
        ({"batch_size": 1, "k_aug": 1, "hidden_sizes": (32, 32)}, {"dim": 16}),
        ({"k_aug": 1}, {}),
        ({"k_aug": 3}, {}),
        ({}, {"dim": 1}),
        ({}, {"n_classes": 3}),
        # the softmax's whole-row path
        ({}, {"n_classes": 9, "per_class": 6}),
    ])
    def test_matches_reference(self, overrides, data):
        cfg = fast_config(train_steps_per_cycle=6, **overrides)
        self._assert_phase_matches(ActiveLearningLoop(cfg, self._dataset(**data)))

    def test_final_retrain_on_an_exhausted_pool(self):
        # 6 unlabeled rows, 3 cycles of 2: the last phase has no unlabeled row
        loop = ActiveLearningLoop(fast_config(budget=2, cycles=3, train_steps_per_cycle=6),
                                  self._dataset(per_class=5))
        for t in range(3):
            loop.run_cycle(t)
        assert loop.pool.n_unlabeled == 0
        self._assert_phase_matches(loop, cycle=3)

    def test_zero_weight_model_with_degenerate_vat_rows(self, monkeypatch):
        loop = ActiveLearningLoop(fast_config(train_steps_per_cycle=6), self._dataset())
        m = loop.model
        loop.model = Classifier([np.zeros_like(w) for w in m.weights],
                                [np.zeros_like(b) for b in m.biases])
        masks = {}
        for owner, name in ((augment, "vat_perturbation_batch"),
                            (oracles, "vat_perturbation_reference")):
            vat, masks[name] = getattr(owner, name), []
            monkeypatch.setattr(owner, name, lambda *a, vat=vat, seen=masks[name]:
                                (out := vat(*a), seen.append(out[1]))[0])
        self._assert_phase_matches(loop)
        for seen in masks.values():
            assert len(seen) == 6 and all(mask.all() for mask in seen)


class TestSelectPhase:
    @pytest.mark.parametrize("overrides, passes", [
        ({"strategy": "random"}, 0),
        ({"strategy": "coreset"}, 0),
        ({"strategy": "entropy"}, 1),
        ({"disable_ranker": True}, 1),
        ({"disable_ranker": True, "disable_density": True}, 1),
    ])
    def test_forward_passes_without_the_ranker(self, overrides, passes, monkeypatch):
        # random and coreset read only ids and feature rows; entropy and the
        # ranker-free re-ranking read one blocked pass over the unlabeled rows
        monkeypatch.setattr(loop_mod, "SCAN_ROWS", 16)
        loop = ActiveLearningLoop(fast_config(**overrides), small_dataset())
        rngs = loop._cycle_rngs(0)
        loop._train_phase(rngs["train"])
        rows, trace = [], Classifier._trace
        monkeypatch.setattr(Classifier, "_trace",
                            lambda model, X: rows.append(len(X)) or trace(model, X))
        selected, _ = loop._select_phase(rngs)
        blocks = loop_mod._row_blocks(loop.pool.n_unlabeled, 16)
        assert len(blocks) > 1
        assert rows == [e - s for s, e in blocks] * passes
        assert len(selected) == loop.config.budget


class TestScoreEndpoints:
    """An endpoint `gamma` gives one granularity no weight, and the scan
    skips that granularity's work."""

    @staticmethod
    def scored_loop(gamma, monkeypatch):
        monkeypatch.setattr(loop_mod, "SCAN_ROWS", 7)
        monkeypatch.setattr(loop_mod, "_scan_workers", lambda: 1)
        loop = ActiveLearningLoop(fast_config(gamma=gamma), small_dataset())
        loop._train_phase(loop._cycle_rngs(0)["train"])
        return loop

    @pytest.mark.parametrize("gamma, parts", [(1.0, 2), (0.4, 4), (0.0, 4)])
    def test_forward_passes_per_block(self, gamma, parts, monkeypatch):
        # a block traces its rows, their coarse variants and, for the fine
        # step, their VAT probe rows in one pass, each part in a product of
        # its own; the fine step then predicts the perturbed variants. So four
        # parts in two passes, or two parts in one pass at gamma = 1
        loop = self.scored_loop(gamma, monkeypatch)
        calls, trace = [], Classifier._trace
        monkeypatch.setattr(Classifier, "_trace", lambda model, X, split=():
                            calls.append((len(X), split)) or trace(model, X, split))
        loop._score_pool(np.random.default_rng(3))
        k = loop.config.k_aug
        blocks = loop_mod._row_blocks(loop.pool.n_unlabeled, 7)
        assert len(blocks) > 1
        want = []
        for s, e in blocks:
            n = e - s
            if gamma == 1:
                want += [(n * (k + 1), (n,))]
            else:
                want += [(n * (2 * k + 1), (n, n * (k + 1))), (n * k, ())]
        assert calls == want
        assert sum(len(split) + 1 for _, split in calls) == parts * len(blocks)

    def test_gamma_1_draws_no_vat_normals(self, monkeypatch):
        loop = self.scored_loop(1.0, monkeypatch)
        rng, alone = np.random.default_rng(3), np.random.default_rng(3)
        loop._score_pool(rng)
        cfg = loop.config
        augment.coarse_augment_batch(loop.pool.features[loop.pool.labels < 0],
                                     cfg.k_aug, cfg.delta, alone)
        assert rng.bit_generator.state == alone.bit_generator.state

    def test_gamma_0_computes_no_coarse_inconsistency(self, monkeypatch):
        loop = self.scored_loop(0.0, monkeypatch)
        calls = []
        monkeypatch.setattr(selector, "coarse_inconsistency",
                            lambda preds: calls.append(len(preds)))
        scores = loop._score_pool(np.random.default_rng(3))
        assert calls == []
        assert len(scores) == loop.pool.n_unlabeled


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
    def test_ranker_and_density_off_is_entropy(self):
        # without the ranker every unlabeled row is a candidate, and without
        # density the re-ranker ranks by entropy alone: the entropy baseline
        ds = small_dataset()
        a = run(fast_config(disable_ranker=True, disable_density=True, cycles=3), ds)
        b = run(fast_config(strategy="entropy", cycles=3), ds)
        for ra, rb in zip(a, b):
            assert ra.selected_ids == rb.selected_ids
            assert ra.accuracy == rb.accuracy

    def test_no_reranker_is_pure_inconsistency(self, monkeypatch):
        # at m_cand = budget the batch is the ranker's top-budget, in rank
        # order, and no density weight is computed
        cfg = fast_config(m_cand=5)
        loop = ActiveLearningLoop(cfg, small_dataset())
        rngs = loop._cycle_rngs(0)
        loop._train_phase(rngs["train"])
        scores = loop._score_pool(copy.deepcopy(rngs["score"]))
        expected = scores.ids[selector.top_k(scores.in_total, scores.ids, 5)].tolist()

        def no_density(reps):
            raise AssertionError("density weight computed")

        monkeypatch.setattr(selector, "density_factors", no_density)
        selected, ranked = loop._select_phase(rngs)
        assert selected == expected
        assert np.array_equal(ranked.in_total, scores.in_total)

    @pytest.mark.parametrize("overrides, scored", [
        ({}, True),
        ({"m_cand": 5}, True),
        ({"disable_density": True}, True),
        ({"disable_ranker": True}, False),
        ({"strategy": "entropy"}, False),
        ({"strategy": "random"}, False),
        ({"strategy": "coreset"}, False),
    ])
    def test_mean_in_total_only_when_the_ranker_scored(self, overrides, scored,
                                                       monkeypatch):
        calls, score_pool = [], ActiveLearningLoop._score_pool
        monkeypatch.setattr(ActiveLearningLoop, "_score_pool",
                            lambda loop, rng: calls.append(1) or score_pool(loop, rng))
        rep = ActiveLearningLoop(fast_config(**overrides), small_dataset()).run_cycle(0)
        assert len(calls) == scored
        assert (rep.mean_in_total is not None) == scored

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
        selected, ranked = loop._select_phase(rngs)
        assert len(pool_scores) == loop.pool.n_unlabeled
        assert selected == expected
        assert ranked is None

        rep = ActiveLearningLoop(cfg, ds).run_cycle(0)
        assert rep.selected_ids == expected
        assert rep.mean_in_total is None


class TestRandomUniformity:
    def test_chi_square_over_seeds(self):
        # a 20-sample pool, B=2, 1000 seeded selections: the per-id selection
        # counts should be consistent with uniform sampling
        counts = np.zeros(20)
        for seed in range(1000):
            picked = baseline_select("random", np.arange(20), 2,
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
