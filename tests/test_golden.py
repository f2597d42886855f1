"""Golden trace: the loop's observable behaviour, pinned across commits.

Every strategy, every ablation flag, both endpoints of `gamma`, the
`m_cand == budget` endpoint and `cold_start` run on four datasets: one in id order, a
subset with shuffled rows and non-contiguous ids, so that row order
differs from id order, one with 16 features, the benchmark's width,
where numpy's pairwise sum of a row's squares runs its 8 accumulators
rather than the plain order it takes below 8 features, and one of 1,140
rows and 64 features, whose pool of more than 1,100 unlabeled rows spans
two scan blocks, for the coarse draw's gap pass and for the scoring pass,
so that the order of the draws across blocks is pinned too. Each run's
fingerprint is its initial labeled ids, per cycle the selected ids and the
exact `repr` of `accuracy` and `mean_in_total`, and the exact `repr` of the
final model's summed absolute weights. It is compared with the committed
`golden_trace.json`.

A change that is only a refactor leaves the fixture as it is. A change that
alters behaviour on purpose (RNG consumption, a formula) regenerates it with

    PYTHONPATH=src python tests/test_golden.py --write

and says so. The write reports, for each run, whether its fingerprint moved
and which fields did.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ideal_al.config import LoopConfig
from ideal_al.data import synthetic_dataset
from ideal_al.loop import ActiveLearningLoop

FIXTURE = Path(__file__).with_name("golden_trace.json")

BASE = dict(budget=4, cycles=3, train_steps_per_cycle=30, seed=7, k_aug=2,
            batch_size=8, hidden_sizes=(8, 6), init_per_class=2, learning_rate=0.3)

VARIANTS = {
    "ideal": {},
    "random": {"strategy": "random"},
    "entropy": {"strategy": "entropy"},
    "coreset": {"strategy": "coreset"},
    "no_ranker": {"disable_ranker": True},
    "no_reranker": {"m_cand": BASE["budget"]},
    "no_coarse": {"gamma": 0.0},
    "no_fine": {"gamma": 1.0},
    "no_density": {"disable_density": True},
    "cold_start": {"cold_start": True},
}


def datasets():
    ordered = synthetic_dataset(3, 2, 30, noise=0.08, seed=21, dim=3)
    # shuffled rows, and dropping a quarter leaves gaps in the ids
    rows = np.random.default_rng(5).permutation(len(ordered))[: 3 * len(ordered) // 4]
    wide = synthetic_dataset(3, 2, 30, noise=0.08, seed=21, dim=16)
    large = synthetic_dataset(3, 2, 380, noise=0.08, seed=21, dim=64)
    return {"ordered": ordered, "shuffled": ordered.subset(rows), "wide": wide,
            "large": large}


def fingerprint(variant, dataset):
    config = LoopConfig(**{**BASE, **VARIANTS[variant]})
    loop = ActiveLearningLoop(config, dataset)
    initial = list(loop.oracle.audit)
    reports = loop.run()
    return {
        "initial_ids": [int(i) for i in initial],
        "cycles": [
            {"selected_ids": [int(i) for i in rep.selected_ids],
             "accuracy": repr(rep.accuracy),
             "mean_in_total": repr(rep.mean_in_total)}
            for rep in reports
        ],
        "weight_sum": repr(float(sum(np.abs(W).sum() + np.abs(b).sum() for W, b
                                     in zip(loop.model.weights, loop.model.biases)))),
    }


def trace():
    return {f"{name}/{variant}": fingerprint(variant, ds)
            for name, ds in datasets().items() for variant in VARIANTS}


@pytest.fixture(scope="module")
def current():
    return trace()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_run(current, golden):
    assert sorted(golden) == sorted(current)


def test_fixture_covers_every_knob():
    # a new flag, or a branch on an endpoint gamma or m_cand, is pinned only
    # once a variant runs it
    flags = {f.name for f in dataclasses.fields(LoopConfig) if f.type is bool}
    assert flags <= {key for v in VARIANTS.values() for key, value in v.items()
                     if value is True}
    gammas = {v["gamma"] for v in VARIANTS.values() if "gamma" in v}
    assert {0.0, 1.0} <= gammas
    assert {"m_cand": BASE["budget"]} in VARIANTS.values()


@pytest.mark.parametrize("dataset", ["ordered", "shuffled", "wide", "large"])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_trace_matches_golden(current, golden, dataset, variant):
    key = f"{dataset}/{variant}"
    assert current[key] == golden[key], moved_fields(golden[key], current[key])


def moved_fields(old, new):
    """The fields in which two fingerprints of one run differ."""
    moved = [f for f in ("initial_ids", "weight_sum") if old[f] != new[f]]
    if len(old["cycles"]) != len(new["cycles"]):
        moved.append("cycle count")
    for t, (a, b) in enumerate(zip(old["cycles"], new["cycles"])):
        moved += [f"cycle {t} {f}" for f in ("selected_ids", "accuracy", "mean_in_total")
                  if a[f] != b[f]]
    return moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    runs = sorted(trace().items())
    changed = 0
    for key, new in runs:
        if key not in old:
            print(f"{key}: new")
        elif moved := moved_fields(old[key], new):
            changed += 1
            print(f"{key}: changed: {', '.join(moved)}")
        else:
            print(f"{key}: unchanged")
    for key in sorted(set(old) - dict(runs).keys()):
        print(f"{key}: removed")
    kept = sum(key in old for key, _ in runs)
    print(f"{changed} of {kept} changed, {kept - changed} unchanged, "
          f"{len(runs) - kept} new, {len(set(old) - dict(runs).keys())} removed")
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in runs) + "\n}\n",
        encoding="utf-8")
    print(f"wrote {FIXTURE}")
