"""Workload definitions and the benchmark's own seeded input generator.

Every workload is a 2-class mixture of 4 Gaussian clusters per class in 16
dimensions, the shape of the acceptance benchmark (criterion 7). The cluster
geometry is part of the workload and fixed; the workload seed draws the pool
and test points and the loop seed. Keeping the geometry fixed keeps the task
equally hard on every seed, so accuracy differences between seeds come from
sampling, not from drawing an easier or harder problem.

The program sees only the files written here: one pool CSV, one test CSV and
one flat `key = value` config file per configuration.
"""

import os
from dataclasses import dataclass

import numpy as np

DIM = 16
N_CLASSES = 2
CLUSTERS_PER_CLASS = 4
CENTER_RANGE = (0.3, 0.7)
NOISE = 0.15
GEOMETRY_SEED = 20220607
N_TEST = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_pool: int
    settings: dict          # config keys shared by every configuration
    variants: tuple         # config keys that differ between configurations


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ssl-train",
            why="2k-row pool, 500 SSL steps per round: training layers "
                "(model, augment on 32-row batches, propagator) do most of "
                "each round",
            n_pool=2000,
            settings=dict(budget=20, cycles=5, epsilon=0.3, m_cand=100,
                          train_steps_per_cycle=500),
            variants=({"strategy": "ideal"},),
        ),
        Workload(
            name="pool-scan",
            why="40k-row pool, 20 SSL steps per round: scoring N and N*K rows "
                "and two-stage selection do most of each round; CSV load and "
                "memory are large",
            n_pool=40000,
            settings=dict(budget=100, cycles=5, train_steps_per_cycle=20),
            variants=({"strategy": "ideal"},),
        ),
        Workload(
            name="baseline-sweep",
            why="20k-row pool under entropy, coreset, ideal without ranker and "
                "random: the same loop and selector layers on the baseline "
                "paths",
            n_pool=20000,
            settings=dict(budget=50, cycles=4, train_steps_per_cycle=20),
            variants=(
                {"strategy": "entropy"},
                {"strategy": "coreset"},
                {"strategy": "ideal", "disable_ranker": True},
                {"strategy": "random"},
            ),
        ),
    )
}

# A few-second shape of every workload, used by the smoke test.
TINY = dict(n_pool=300, n_test=100, train_steps_per_cycle=5, cycles=2,
            budget=10)


def _mixture(rng, n):
    centers = np.random.default_rng(GEOMETRY_SEED).uniform(
        *CENTER_RANGE, size=(N_CLASSES, CLUSTERS_PER_CLASS, DIM))
    labels = np.arange(n) % N_CLASSES
    clusters = (np.arange(n) // N_CLASSES) % CLUSTERS_PER_CLASS
    order = rng.permutation(n)
    labels, clusters = labels[order], clusters[order]
    X = centers[labels, clusters] + NOISE * rng.standard_normal((n, DIM))
    return X, labels


def _write_csv(path, ids, labels, X):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,label," + ",".join(f"f{j}" for j in range(DIM)) + "\n")
        for sid, y, row in zip(ids, labels, X):
            fh.write(f"{sid},{y}," + ",".join(f"{v:.12g}" for v in row) + "\n")


def _config_text(values):
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_inputs(workload, seed, out_dir, tiny=False):
    """Write the pool and test CSV and every configuration's config file;
    return the config paths.

    The same (workload, seed, tiny) gives the same CSVs and config values.
    """
    n_pool = TINY["n_pool"] if tiny else workload.n_pool
    n_test = TINY["n_test"] if tiny else N_TEST
    settings = dict(workload.settings)
    if tiny:
        settings.update(cycles=TINY["cycles"], budget=TINY["budget"],
                        train_steps_per_cycle=TINY["train_steps_per_cycle"])
        if "m_cand" in settings:
            settings["m_cand"] = 3 * TINY["budget"]
    X, y = _mixture(np.random.default_rng([seed, 0xBE5C]), n_pool + n_test)
    pool_path = os.path.join(out_dir, "pool.csv")
    test_path = os.path.join(out_dir, "test.csv")
    _write_csv(pool_path, range(n_pool), y[:n_pool], X[:n_pool])
    _write_csv(test_path, range(n_pool, n_pool + n_test), y[n_pool:], X[n_pool:])
    paths = []
    for variant in workload.variants:
        values = {"dataset": pool_path, "test_dataset": test_path,
                  "seed": seed, **settings, **variant}
        path = os.path.join(out_dir, f"config{len(paths)}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_config_text(values))
        paths.append(path)
    return paths
