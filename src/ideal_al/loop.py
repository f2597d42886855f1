"""Active-learning loop: train, score, select, annotate, repeat.

Each cycle runs an SSL training phase (MixUp over labeled, unlabeled and
two-granularity augmented batches), then a read-only scoring pass over the
unlabeled pool, the two-stage selection, and oracle annotation. Baseline
strategies (random / entropy / coreset) share the training phase and swap
only the selection rule, so paired comparisons isolate the selector.
"""

import copy
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import BLAS_PINNED_ON_IMPORT, BLAS_THREAD_VARS, augment, propagator, selector
from .errors import ConfigError, DataError, NumericError, UsageError
from .model import Classifier, kl_rows, train_step

# Rows per block of a pool-wide pass: bounds each in-flight block's (rows *
# (2 * k_aug + 1), width) intermediates while keeping its GEMMs large.
SCAN_ROWS = 512

# Most workers, so most blocks in flight, of a pool-wide pass on any CPU
# count. Chosen by memory: a scoring block's SCAN_ROWS * (2 * k_aug + 1)-row
# buffer is 16 MB at width 784 and k_aug = 2, so 8 hold about 128 MB.
SCAN_MAX_WORKERS = 8


def _row_blocks(n, size):
    """(start, stop) ranges covering n rows in blocks of `size`. A short tail
    joins the block before it, so only a pool smaller than `size` gets a
    smaller block (a one-row matmul takes a different BLAS path)."""
    bounds = [*range(0, max(n - size, 0) + 1, size), n]
    return list(zip(bounds[:-1], bounds[1:]))


def _scan_workers():
    """Worker threads for a pool-wide pass: one per CPU this process may run
    on when BLAS runs one thread, else one, as BLAS's own threads would share
    those CPUs with the workers. BLAS runs one thread when `import ideal_al`
    pinned it, or when at least one of its thread variables is set and each
    one set reads 1."""
    values = [os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ]
    if not (BLAS_PINNED_ON_IMPORT or values and all(v == "1" for v in values)):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _scan(n, block, workers=1, prepare=lambda s, e: ()):
    """Run `block(s, e, *prepare(s, e))` for every block of
    `_row_blocks(n, SCAN_ROWS)` on up to `workers` threads, never more than
    SCAN_MAX_WORKERS nor more than one per two blocks, this one among them,
    each taking the next block when it is free. Every pool-wide pass walks
    these blocks, `_score_pool`'s gap pass and scoring pass alike, so a pass
    holds one gap block or one scoring block per worker at a time.

    With fewer than two blocks a worker, a further thread gains little (the
    tail block can be nearly twice a block) and its malloc arena keeps its
    own freed block arrays; the README gives the measurements.

    A block is taken and prepared under one lock, so `prepare` runs in block
    order and draws it makes from a shared stream do not depend on the
    worker count. After a block fails no further block is taken; the
    failure raises here once every worker has stopped.

    A pass of one forward per row runs on this thread alone: its blocks hold
    the interpreter lock for most of their time, and on two CPUs a second
    worker did not speed up a 20k-row entropy pass and slowed a 2k-row test
    evaluation from 2.2 to 3.0 ms.
    """
    blocks = _row_blocks(n, SCAN_ROWS)
    todo, lock, failed = iter(blocks), threading.Lock(), threading.Event()

    def work():
        try:
            while not failed.is_set():
                with lock:
                    span = next(todo, None)
                    if span is None:
                        return
                    extra = prepare(*span)
                block(*span, *extra)
        except BaseException:
            failed.set()
            raise

    helpers = min(workers, SCAN_MAX_WORKERS, len(blocks) // 2) - 1
    with ThreadPoolExecutor(max_workers=max(helpers, 1)) as executor:
        futures = [executor.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()


def _fold(reps_t, row, min_dist):
    """min_dist = min(min_dist, distance from each column of the
    feature-major (d, n) `reps_t` to the (d,) `row`), in place.

    It adds each column's squared differences one feature at a time, so a
    distance equals `np.sqrt(((reps_t - row[:, None]) ** 2).sum(axis=0))`
    on a C-contiguous `reps_t` of two or more columns bit for bit (numpy
    sums a single column pairwise), and equal columns get equal distances.
    """
    dist, diff = np.zeros(reps_t.shape[1]), np.empty(reps_t.shape[1])
    for feature, value in zip(reps_t, row):
        np.subtract(feature, value, out=diff)
        np.square(diff, out=diff)
        dist += diff
    np.sqrt(dist, out=dist)
    np.minimum(min_dist, dist, out=min_dist)


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


def baseline_select(strategy, ids, budget, rng, reps_t=None, min_dist=None):
    """Comparator selection rules that read no prediction: `budget` of `ids`.

    random: uniform without replacement. coreset: greedy k-center over the
    columns of the feature-major (d, len(ids)) `reps_t` (see `_fold`).
    `min_dist` holds each column's distance to its nearest labeled row and
    -inf at a labeled row, which is never picked; the greedy folds every
    pick into it in place and marks it -inf, so it returns holding the
    distances to the labeled rows and the picks.
    """
    if strategy not in ("random", "coreset"):
        raise ConfigError("strategy", f"unknown strategy {strategy!r}")
    left = len(ids) if strategy == "random" else np.count_nonzero(min_dist > -np.inf)
    if budget > left:
        raise UsageError("budget exceeds pool size")
    if strategy == "random":
        idx = rng.choice(len(ids), size=budget, replace=False)
        return ids[np.sort(idx)].tolist()
    chosen = []
    for _ in range(budget):
        i = int(np.argmax(min_dist))  # argmax takes the lowest index, so id, on ties
        chosen.append(i)
        _fold(reps_t, reps_t[:, i], min_dist)
        min_dist[i] = -np.inf  # never picked twice, even among duplicates
    return ids[chosen].tolist()


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
        # coreset's distance from each pool row to its nearest labeled row,
        # -inf at a labeled row folded in; made at the first coreset pick
        self._min_dist = None
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
        if np.array_equal(order, np.arange(len(ds))):
            order = slice(None)  # rows already in id order are shared: none is written
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
        model, pool, k = self.model, self.pool, cfg.k_aug
        is_labeled = pool.labels >= 0
        Xl_all = pool.features[is_labeled]
        Yl_all = np.eye(self.dataset.n_classes)[pool.labels[is_labeled]]
        Xu_all = pool.features[~is_labeled]
        n_l, n_u = len(Xl_all), len(Xu_all)
        b_l, b_u = min(cfg.batch_size, n_l), min(cfg.batch_size, n_u)
        n_var = b_u * k
        w = np.asarray(cfg.resolved_weights())
        # One buffer, filled in place every step, holds the labeled rows, the
        # unlabeled rows, their coarse variants and the VAT probe rows. Its
        # [unlabeled; variants; probe] rows are traced in one pass, the first
        # two parts as one product and the probe rows as another; the
        # perturbed variants then overwrite the variants, and the first
        # three parts are the batch that is mixed and trained on.
        buf = np.empty((b_l + b_u + 2 * n_var, Xl_all.shape[1]))
        Xl, Xu = buf[:b_l], buf[b_l:b_l + b_u]
        variants = buf[b_l + b_u:b_l + b_u + n_var]
        probe = buf[b_l + b_u + n_var:]
        batch = buf[:b_l + b_u + n_var]
        targets = np.empty((len(batch), Yl_all.shape[1]))
        guessed = targets[b_l:b_l + b_u]
        for _ in range(cfg.train_steps_per_cycle):
            bl = rng.choice(n_l, size=b_l, replace=n_l < cfg.batch_size)
            Xl_all.take(bl, axis=0, out=Xl)
            Yl_all.take(bl, axis=0, out=targets[:b_l])
            if n_u:
                bu = rng.choice(n_u, size=b_u, replace=False)
                Xu_all.take(bu, axis=0, out=Xu)
                augment.coarse_augment_batch(Xu, k, cfg.delta, rng, out=variants)
                normals = rng.normal(size=variants.shape)
                augment.vat_probe_rows(variants, normals, cfg.xi, out=probe)
                acts = model._trace(buf[b_l:], (b_u + n_var,))
                R, _ = augment.vat_perturbation_batch(
                    model, [a[b_u + n_var:] for a in acts], acts[-1][b_u:b_u + n_var],
                    cfg.epsilon, normals)
                variants += R
                P_tilde = model.predict(variants).reshape(b_u, k, -1)
                guessed[...] = propagator.guess_labels_batch(acts[-1][:b_u], P_tilde, w)
                targets[b_l + b_u:].reshape(b_u, k, -1)[...] = guessed[:, None]
            Xm, Ym, _, _ = propagator.build_training_arrays(batch, targets, cfg.alpha, rng)
            train_step(model, Xm, Ym, b_l, cfg.learning_rate, cfg.lambda_u)
        # a step checks its loss, which comes before its update: an update
        # that overflows shows only in the parameters, checked once a phase
        for i, (W, b) in enumerate(zip(model.weights, model.biases)):
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise NumericError(f"layer {i} parameters are non-finite after "
                                   f"training (learning_rate {cfg.learning_rate})")

    # -- scoring + selection ------------------------------------------

    def _score_pool(self, rng):
        """Fresh-draw inconsistency + entropy scoring of every unlabeled
        sample, as `selector.Scores` in ascending id order.

        The percentile fusion needs the whole pool; everything before it
        runs on `_scan`'s blocks, and no array of every row's coarse
        variants is made. The stream is drawn as `coarse_augment_batch` on
        the whole pool would draw it, then the VAT normals in row order:

        - the integer draws of every variant (`augment.coarse_draws`);
        - a gap pass over `_scan`'s blocks, each drawing its jitter rows'
          uniforms in row order as it is taken, building its variants and
          keeping only their sup-norm gaps, which name the rows that get
          the fallback jitter;
        - the fallback jitter, drawn at once and kept;
        - the scan over the same blocks: each, as it is taken, replays its
          jitter uniforms from a copy of the stream made before the gap
          pass and draws its VAT normals, so no score depends on the worker
          count or the block size.

        A block builds its rows, their coarse variants and their VAT probe
        rows in one buffer and traces it in one pass, each part in its own
        product (see `Classifier._trace`), as the SSL step does; the VAT
        perturbations are then added to the variants in place, and those
        are predicted. `gamma` weighs the two granularities, and an
        endpoint skips the one it gives no weight: the coarse inconsistency
        at `gamma = 0`, the VAT normals, probe rows and fine step at
        `gamma = 1`.
        """
        cfg, model = self.config, self.model
        unlabeled = self.pool.labels < 0
        ids = self.pool.ids[unlabeled]
        X = self.pool.features[unlabeled]
        n, k, d = len(ids), cfg.k_aug, X.shape[1]
        workers = _scan_workers()
        draws = augment.coarse_draws(n * k, d, rng)
        replay = copy.deepcopy(rng)  # at the first jitter uniform

        def take(stream, s, e):
            part = draws.rows(s * k, e * k)
            return part, stream.uniform(-1.0, 1.0, size=(part.jitter.size, d))

        gap = np.empty(n * k)

        def gap_block(s, e, part, u):
            augment.coarse_variants(X[s:e], k, cfg.delta, part, u,
                                    np.empty(((e - s) * k, d)), gap[s * k:e * k])

        _scan(n, gap_block, workers, lambda s, e: take(rng, s, e))
        fallback = (gap <= cfg.delta).nonzero()[0]
        del gap
        extra = augment.coarse_fallback(fallback.size, d, cfg.delta, rng)

        in_coa, in_fin, ent = np.zeros(n), np.zeros(n), np.empty(n)
        fine = cfg.gamma < 1

        def score_block(s, e, part, u, normals):
            m = e - s
            cut = m * (k + 1)  # [rows; variants], then the probe rows
            buf = np.empty((cut + m * k if fine else cut, d))
            buf[:m] = X[s:e]
            variants = buf[m:cut]
            augment.coarse_variants(X[s:e], k, cfg.delta, part, u, variants)
            i, j = np.searchsorted(fallback, (s * k, e * k))
            if i < j:
                variants[fallback[i:j] - s * k] += extra[i:j]
            if fine:
                augment.vat_probe_rows(variants, normals, cfg.xi, out=buf[cut:])
            acts = model._trace(buf, (m, cut) if fine else (m,))
            P_orig, P_bar = acts[-1][:m], acts[-1][m:cut]
            if cfg.gamma > 0:
                in_coa[s:e] = selector.coarse_inconsistency(np.concatenate(
                    [P_orig[:, None, :], P_bar.reshape(m, k, -1)], axis=1))
            if fine:
                R, _ = augment.vat_perturbation_batch(
                    model, [a[cut:] for a in acts], P_bar, cfg.epsilon, normals)
                del acts  # free the hidden layers before the next pass makes its own
                variants += R
                in_fin[s:e] = kl_rows(P_bar, model.predict(variants)).reshape(m, k).sum(axis=1)
            ent[s:e] = selector.entropy_rows(P_orig)

        def prepare(s, e):
            return (*take(replay, s, e),
                    rng.normal(size=((e - s) * k, d)) if fine else None)

        _scan(n, score_block, workers, prepare)

        in_total = selector.total_inconsistency(
            selector.percentiles(in_coa), selector.percentiles(in_fin), cfg.gamma)
        return selector.Scores(ids=ids, in_total=in_total, entropy=ent, reps=X)

    def _entropy_records(self):
        """Entropy scores (one blocked forward pass, zero inconsistency) and
        feature rows for the rules that read a prediction without the
        ranker: `entropy` and `ideal` with `disable_ranker`."""
        unlabeled = self.pool.labels < 0
        X = self.pool.features[unlabeled]
        ent = np.empty(len(X))

        def entropy_block(s, e):
            ent[s:e] = selector.entropy_rows(self.model.predict(X[s:e]))

        _scan(len(X), entropy_block)
        return selector.Scores(ids=self.pool.ids[unlabeled], in_total=np.zeros(len(X)),
                               entropy=ent, reps=X)

    def _labeled_distances(self, features_t):
        """Each pool row's distance to its nearest labeled row, carried
        across cycles, -inf at a labeled row already folded in. Labeled rows
        not yet in it, the seed rows at the first call and rows labeled
        outside coreset since, are folded in here from `features_t`, the
        pool's feature-major rows."""
        pool = self.pool
        if self._min_dist is None:
            self._min_dist = np.full(len(pool.ids), np.inf)
        new = np.flatnonzero((pool.labels >= 0) & (self._min_dist > -np.inf))
        for r in new:
            _fold(features_t, features_t[:, r], self._min_dist)
        self._min_dist[new] = -np.inf
        return self._min_dist

    def _select_phase(self, rngs):
        """The cycle's picks, and the ranker's `selector.Scores` (None when
        `_score_pool` did not run).

        random and coreset read only ids and feature rows, so no forward
        pass is made for them. Coreset's greedy folds over the whole pool,
        feature-major, copied once a cycle; the carried distances are -inf
        at every labeled row, so only unlabeled rows are picked. Every other
        rule is `selector.select`: `ideal` ranks by `_score_pool`, and
        without its ranker, as for `entropy`, every unlabeled row is a
        candidate; `entropy` gives density no weight.
        """
        cfg, pool, rng = self.config, self.pool, rngs["select"]
        if cfg.strategy == "random":
            return baseline_select("random", pool.unlabeled, cfg.budget, rng), None
        if cfg.strategy == "coreset":
            features_t = np.ascontiguousarray(pool.features.T)
            return baseline_select("coreset", pool.ids, cfg.budget, rng, features_t,
                                   self._labeled_distances(features_t)), None
        ranked = cfg.strategy == "ideal" and not cfg.disable_ranker
        scores = self._score_pool(rngs["score"]) if ranked else self._entropy_records()
        m = cfg.resolved_m_cand(len(scores)) if ranked else len(scores)
        use_density = cfg.strategy == "ideal" and not cfg.disable_density
        selected = selector.select(scores, m, cfg.budget, use_density=use_density)
        return selected, scores if ranked else None

    # -- evaluation ----------------------------------------------------

    def accuracy(self):
        ds = self.test_data
        pred = np.empty(len(ds.labels), dtype=np.intp)

        def predict_block(s, e):
            pred[s:e] = self.model.predict(ds.features[s:e]).argmax(axis=1)

        _scan(len(pred), predict_block)
        return float((pred == ds.labels).mean())

    # -- the cycle -----------------------------------------------------

    def run_cycle(self, t):
        cfg = self.config
        rngs = self._cycle_rngs(t)
        self._train_phase(rngs["train"])
        t0 = time.perf_counter()
        selected, ranked = self._select_phase(rngs)
        select_ms = (time.perf_counter() - t0) * 1000.0
        self.pool.annotate(selected, self.oracle)
        self.pool.check()
        report = CycleReport(
            cycle=t,
            n_labeled=self.pool.n_labeled,
            accuracy=self.accuracy(),
            mean_in_total=None if ranked is None else float(np.mean(ranked.in_total)),
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
