"""Active-learning loop: train, score, select, annotate, repeat.

Each cycle runs an SSL training phase (MixUp over labeled, unlabeled and
two-granularity augmented batches), then a read-only scoring pass over the
unlabeled pool, the two-stage selection, and oracle annotation. Baseline
strategies (random / entropy / coreset) share the training phase and swap
only the selection rule, so paired comparisons isolate the selector.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import augment, propagator, selector
from .errors import ConfigError, DataError, UsageError
from .model import Classifier, kl_rows, train_step

# Pool rows scored per block: bounds the scan's (rows * k_aug, width)
# intermediates while keeping each block one large GEMM.
SCAN_ROWS = 1024


def _row_blocks(n):
    """(start, stop) ranges covering n rows in blocks of SCAN_ROWS. A short
    tail joins the block before it, so only a pool smaller than SCAN_ROWS
    gets a smaller block (a one-row matmul takes a different BLAS path)."""
    bounds = [*range(0, max(n - SCAN_ROWS, 0) + 1, SCAN_ROWS), n]
    return list(zip(bounds[:-1], bounds[1:]))


class Oracle:
    """Ground-truth labeler with an access audit trail."""

    def __init__(self, labels_by_id):
        self._labels = dict(labels_by_id)
        self.audit = []

    def query(self, sample_id):
        if sample_id not in self._labels:
            raise LookupError(f"unknown sample id {sample_id!r}")
        self.audit.append(sample_id)
        return self._labels[sample_id]


@dataclass
class Pool:
    """Every sample as one row, rows in ascending id order. `labels` holds
    the oracle's class of a labeled row and -1 for a row not yet labeled."""

    ids: np.ndarray       # (n,) int, strictly ascending
    features: np.ndarray  # (n, d) normalized
    labels: np.ndarray    # (n,) int, -1 = unlabeled

    def check(self):
        if not (len(self.ids) == len(self.features) == len(self.labels)):
            raise UsageError("pool arrays differ in length")
        if np.any(np.diff(self.ids) <= 0) or np.any(self.labels < -1):
            raise UsageError("pool ids not strictly ascending or labels below -1")

    def annotate(self, ids, oracle):
        """Label unlabeled ids by querying the oracle for each, in order."""
        rows = np.searchsorted(self.ids, ids)
        if not np.array_equal(self.ids.take(rows, mode="clip"), ids):
            raise UsageError("ids outside the pool")
        if np.any(self.labels[rows] >= 0):
            raise UsageError("ids already labeled")
        self.labels[rows] = [oracle.query(sid) for sid in np.asarray(ids).tolist()]

    @property
    def labeled(self):
        return self.ids[self.labels >= 0]

    @property
    def unlabeled(self):
        return self.ids[self.labels < 0]

    @property
    def n_labeled(self):
        return int(np.count_nonzero(self.labels >= 0))

    @property
    def n_unlabeled(self):
        return len(self.ids) - self.n_labeled


@dataclass
class CycleReport:
    cycle: int
    n_labeled: int
    accuracy: float
    mean_in_total: float
    select_ms: float
    selected_ids: list
    strategy: str
    seed: int


def baseline_select(strategy, scores, budget, rng, labeled_reps=None):
    """Comparator selection rules over the pool's `selector.Scores`.

    random: uniform without replacement; entropy: top-budget by prediction
    entropy; coreset: greedy k-center on the feature rows, seeded by the
    labeled set's feature rows.
    """
    if budget > len(scores):
        raise UsageError("budget exceeds pool size")
    if strategy == "random":
        idx = rng.choice(len(scores), size=budget, replace=False)
        return scores.ids[np.sort(idx)].tolist()
    if strategy == "entropy":
        return scores.ids[selector.top_k(scores.entropy, scores.ids, budget)].tolist()
    if strategy == "coreset":
        reps = scores.reps
        if labeled_reps is not None and len(labeled_reps):
            L = np.atleast_2d(np.asarray(labeled_reps, dtype=float))
            min_dist = np.empty(len(scores))
            for s, e in _row_blocks(len(scores)):
                d2 = ((reps[s:e, None, :] - L[None, :, :]) ** 2).sum(axis=2)
                min_dist[s:e] = np.sqrt(d2.min(axis=1))
        else:
            min_dist = np.full(len(scores), np.inf)
        chosen = []
        for _ in range(budget):
            i = int(np.argmax(min_dist))  # argmax takes the lowest index on ties
            chosen.append(int(scores.ids[i]))
            dist_new = np.linalg.norm(reps - reps[i], axis=1)
            min_dist = np.minimum(min_dist, dist_new)
            min_dist[i] = -np.inf
        return chosen
    raise ConfigError("strategy", f"unknown strategy {strategy!r}")


class ActiveLearningLoop:
    """Owns one run's state: pool, oracle, model, per-cycle RNG streams."""

    def __init__(self, config, dataset, test_data=None):
        config.validate()
        self.config = config
        self.dataset = dataset
        test = test_data if test_data is not None else dataset
        if test.dim != dataset.dim:
            raise DataError(f"test data has {test.dim} features, the pool {dataset.dim}")
        if test.labels.max() >= dataset.n_classes:
            raise DataError(f"test data has class {test.labels.max()}, "
                            f"the pool only 0..{dataset.n_classes - 1}")
        # the model sees rows in the pool's frame, so the test rows must be too
        self.test_data = test.in_frame_of(dataset)
        self.oracle = Oracle(dict(zip(dataset.ids.tolist(), dataset.labels.tolist())))
        self.reports = []
        self._init_pool_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 0xA11]).generate_state(4)
        )
        self.pool = self._initial_pool()
        need = config.cycles * config.budget
        if need > self.pool.n_unlabeled:
            raise ConfigError("budget", f"{config.cycles} cycles x budget {config.budget} "
                              f"= {need} exceed the {self.pool.n_unlabeled} unlabeled "
                              "rows left after seeding")
        self.model = self._initial_model()

    # -- setup ---------------------------------------------------------

    def _initial_pool(self):
        ds = self.dataset
        order = np.argsort(ds.ids, kind="stable")
        pool = Pool(ids=ds.ids[order], features=ds.features[order],
                    labels=np.full(len(ds), -1))
        classes = ds.labels[order]
        missing = np.flatnonzero(np.bincount(classes, minlength=ds.n_classes) == 0)
        if len(missing):
            raise DataError(f"no rows for class(es) {missing.tolist()} of "
                            f"0..{ds.n_classes - 1}: class indices must be contiguous")
        rng = self._init_pool_rng
        for c in range(ds.n_classes):
            rows = np.flatnonzero(classes == c)
            if len(rows) < self.config.init_per_class:
                raise ConfigError("init_per_class", f"class {c} has {len(rows)} rows, "
                                  f"too few to seed {self.config.init_per_class}")
            picks = rng.choice(len(rows), size=self.config.init_per_class,
                               replace=False)
            pool.annotate(pool.ids[rows[picks]], self.oracle)
        pool.check()
        return pool

    def _initial_model(self):
        sizes = [self.dataset.dim, *self.config.hidden_sizes, self.dataset.n_classes]
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 0x307]).generate_state(4)
        )
        return Classifier.from_sizes(sizes, rng=rng)

    def _cycle_rngs(self, t):
        """Independent streams per cycle so ablation paths that skip a stage
        leave the other stages' draws untouched."""
        streams = {}
        for name, tag in (("train", 1), ("score", 2), ("select", 3)):
            ss = np.random.SeedSequence([self.config.seed, t, tag])
            streams[name] = np.random.default_rng(ss.generate_state(4))
        return streams

    # -- SSL training phase -------------------------------------------

    def _train_phase(self, rng):
        cfg = self.config
        if cfg.cold_start:
            self.model = self._initial_model()
        pool = self.pool
        is_labeled = pool.labels >= 0
        Xl_all = pool.features[is_labeled]
        Yl_all = np.eye(self.dataset.n_classes)[pool.labels[is_labeled]]
        Xu_all = pool.features[~is_labeled]
        n_l = len(Xl_all)
        w = np.asarray(cfg.resolved_weights())
        for _ in range(cfg.train_steps_per_cycle):
            bl = rng.choice(n_l, size=min(cfg.batch_size, n_l),
                            replace=n_l < cfg.batch_size)
            Xl, Yl = Xl_all[bl], Yl_all[bl]
            if len(Xu_all):
                bu = rng.choice(len(Xu_all), size=min(cfg.batch_size, len(Xu_all)),
                                replace=False)
                Xu = Xu_all[bu]
                A = augment.coarse_augment_batch(Xu, cfg.k_aug, cfg.delta, rng)
                flat = A.reshape(-1, A.shape[-1])
                P_flat = self.model.predict(flat)
                R, _ = augment.vat_perturbation_batch(
                    self.model, flat, P_flat, cfg.epsilon, cfg.xi, rng)
                tilde = flat + R
                P_tilde = self.model.predict(tilde).reshape(len(Xu), cfg.k_aug, -1)
                guessed = propagator.guess_labels_batch(self.model.predict(Xu), P_tilde, w)
                guessed_rep = np.repeat(guessed, cfg.k_aug, axis=0)
                X = np.concatenate([Xl, Xu, tilde])
                Y = np.concatenate([Yl, guessed, guessed_rep])
                mask = np.zeros(len(X), dtype=bool)
                mask[: len(Xl)] = True
            else:
                X, Y = Xl, Yl
                mask = np.ones(len(X), dtype=bool)
            sup, unsup, _, _ = propagator.build_training_arrays(
                X, Y, mask, cfg.alpha, rng)
            train_step(self.model,
                       labeled=sup if len(sup[0]) else None,
                       unlabeled=unsup if len(unsup[0]) else None,
                       learning_rate=cfg.learning_rate,
                       lambda_u=cfg.lambda_u)

    # -- scoring + selection ------------------------------------------

    def _score_pool(self, rng):
        """Fresh-draw inconsistency + entropy scoring of every unlabeled
        sample, as `selector.Scores` in ascending id order.

        The coarse variants are drawn once for the whole pool (their draws
        are grouped by transform across rows) and the percentile fusion needs
        the whole pool; everything in between runs in `_row_blocks`. The VAT
        normals are drawn block after block in row order, the same stream as
        one whole-pool draw.
        """
        cfg, model = self.config, self.model
        unlabeled = self.pool.labels < 0
        ids = self.pool.ids[unlabeled]
        X = self.pool.features[unlabeled]
        n, k = len(ids), cfg.k_aug
        A = augment.coarse_augment_batch(X, k, cfg.delta, rng)
        in_coa, in_fin, ent = np.zeros(n), np.zeros(n), np.empty(n)
        for s, e in _row_blocks(n):
            P_orig = model.predict(X[s:e])
            flat = A[s:e].reshape(-1, A.shape[-1])
            P_bar_flat = model.predict(flat)
            if not cfg.disable_coarse:
                in_coa[s:e] = selector.coarse_inconsistency(np.concatenate(
                    [P_orig[:, None, :], P_bar_flat.reshape(e - s, k, -1)], axis=1))
            if not cfg.disable_fine:
                R, _ = augment.vat_perturbation_batch(
                    model, flat, P_bar_flat, cfg.epsilon, cfg.xi, rng)
                P_hat_flat = model.predict(flat + R)
                in_fin[s:e] = kl_rows(P_bar_flat, P_hat_flat).reshape(e - s, k).sum(axis=1)
            ent[s:e] = selector.entropy_rows(P_orig)

        gamma = cfg.gamma
        if cfg.disable_coarse and not cfg.disable_fine:
            gamma = 0.0
        elif cfg.disable_fine and not cfg.disable_coarse:
            gamma = 1.0
        in_total = selector.total_inconsistency(
            selector.percentiles(in_coa), selector.percentiles(in_fin), gamma)
        return selector.Scores(ids=ids, in_total=in_total, entropy=ent, reps=X)

    def _entropy_records(self):
        """Cheap scores (entropy + feature rows, zero inconsistency) for the
        baselines and the ranker-free ablation."""
        unlabeled = self.pool.labels < 0
        X = self.pool.features[unlabeled]
        ent = selector.entropy_rows(self.model.predict(X))
        return selector.Scores(ids=self.pool.ids[unlabeled], in_total=np.zeros(len(X)),
                               entropy=ent, reps=X)

    def _select_phase(self, rngs):
        cfg = self.config
        use_density = not cfg.disable_density
        if cfg.strategy == "ideal" and not cfg.disable_ranker:
            scores = self._score_pool(rngs["score"])
            if cfg.disable_reranker:
                top = selector.top_k(scores.in_total, scores.ids, cfg.budget)
                return scores.ids[top].tolist(), scores
            m = cfg.resolved_m_cand(len(scores))
            return selector.select(scores, m, cfg.budget, use_density=use_density), scores
        scores = self._entropy_records()
        if cfg.strategy == "ideal" and not cfg.disable_reranker:
            # no ranker: every unlabeled sample is a re-ranking candidate
            return selector.select(scores, len(scores), cfg.budget,
                                   use_density=use_density), scores
        # with both stages off, ideal collapses to the random baseline on the
        # same stream
        strategy = "random" if cfg.strategy == "ideal" else cfg.strategy
        labeled_reps = None
        if strategy == "coreset":
            labeled_reps = self.pool.features[self.pool.labels >= 0]
        selected = baseline_select(strategy, scores, cfg.budget,
                                   rngs["select"], labeled_reps=labeled_reps)
        return selected, scores

    # -- evaluation ----------------------------------------------------

    def accuracy(self):
        ds = self.test_data
        pred = self.model.predict(ds.features).argmax(axis=1)
        return float((pred == ds.labels).mean())

    # -- the cycle -----------------------------------------------------

    def run_cycle(self, t):
        cfg = self.config
        rngs = self._cycle_rngs(t)
        self._train_phase(rngs["train"])
        t0 = time.perf_counter()
        selected, scores = self._select_phase(rngs)
        select_ms = (time.perf_counter() - t0) * 1000.0
        self.pool.annotate(selected, self.oracle)
        self.pool.check()
        has_rank = cfg.strategy == "ideal" and not cfg.disable_ranker
        report = CycleReport(
            cycle=t,
            n_labeled=self.pool.n_labeled,
            accuracy=self.accuracy(),
            mean_in_total=float(np.mean(scores.in_total)) if has_rank else None,
            select_ms=select_ms,
            selected_ids=list(selected),
            strategy=cfg.strategy,
            seed=cfg.seed,
        )
        self.reports.append(report)
        return report

    def run(self):
        for t in range(self.config.cycles):
            self.run_cycle(t)
        # the loop's product is a model trained with the final pools, so the
        # last report reflects one more training pass over them
        self._train_phase(self._cycle_rngs(len(self.reports))["train"])
        self.reports[-1].accuracy = self.accuracy()
        return self.reports


def run(config, dataset, test_data=None):
    """Run the full loop and return the per-cycle reports."""
    return ActiveLearningLoop(config, dataset, test_data=test_data).run()
