"""Command-line surface: run, synth, ablate, report.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error.
"""

import argparse
import dataclasses
import json
import os
import sys

from .config import STRATEGIES, load_config
from .data import generate_synthetic, load_dataset, write_dataset, write_reports
from .errors import NOT_UTF8, ConfigError, DataError, NumericError, UsageError
from .loop import ActiveLearningLoop


def ablation_variants(budget):
    """`ideal ablate`'s (name, overrides) pairs for a base `budget`."""
    return [
        ("full", {}),
        ("no_density", {"disable_density": True}),
        ("no_reranker", {"m_cand": budget}),  # the re-ranker has nothing to choose
        ("no_coarse", {"gamma": 0.0}),
        ("no_fine", {"gamma": 1.0}),
        ("no_ranker", {"disable_ranker": True}),
        ("random", {"strategy": "random"}),
    ]


def _load_run_inputs(config):
    if not config.dataset:
        raise ConfigError("dataset", "no dataset path configured")
    dataset = load_dataset(config.dataset)
    test_data = load_dataset(config.test_dataset) if config.test_dataset else None
    return dataset, test_data


def _cmd_run(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.strategy is not None:
        config = dataclasses.replace(config, strategy=args.strategy)
    dataset, test_data = _load_run_inputs(config)
    loop = ActiveLearningLoop(config, dataset, test_data=test_data)
    if args.out:
        os.makedirs(args.out, exist_ok=True)  # fails, if it must, before any training
    reports = loop.run()
    if args.out:
        write_reports(reports, args.out, config=config)
    for rep in reports:
        print(f"cycle={rep.cycle} n_labeled={rep.n_labeled} "
              f"accuracy={rep.accuracy:.4f} strategy={rep.strategy}")
    return 0


def _cmd_synth(args):
    header, rows = generate_synthetic(
        n_classes=args.classes,
        clusters_per_class=args.clusters,
        per_class=args.per_class,
        noise=args.noise,
        seed=args.seed,
        dim=args.dim,
    )
    write_dataset(header, rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_ablate(args):
    base = load_config(args.config)
    dataset, test_data = _load_run_inputs(base)
    # every variant's loop and output directory is made before any runs, so
    # one that cannot be fails before any training
    runs = []
    for name, overrides in ablation_variants(base.budget):
        config = dataclasses.replace(base, **overrides)
        runs.append((name, config, ActiveLearningLoop(config, dataset, test_data=test_data)))
    for name, _, _ in runs:
        os.makedirs(os.path.join(args.out, name), exist_ok=True)
    for name, config, loop in runs:
        reports = loop.run()
        write_reports(reports, os.path.join(args.out, name), config=config)
        print(f"{name:12s} final_accuracy={reports[-1].accuracy:.4f}")
    return 0


def _report_record(line, where):
    """One metrics.jsonl line as a dict holding every key the report prints."""
    if NOT_UTF8.search(line):
        raise DataError(f"{where}: not valid UTF-8")
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: {exc.msg}") from None
    if not isinstance(rec, dict):
        raise DataError(f"{where}: not a JSON object")
    for key, types in (("strategy", str), ("cycle", int), ("n_labeled", int),
                       ("accuracy", (int, float))):
        if key not in rec:
            raise DataError(f"{where}: no {key!r} key")
        # JSON true/false load as bool, which is an int subclass
        if not isinstance(rec[key], types) or isinstance(rec[key], bool):
            raise DataError(f"{where}: {key!r} has the wrong type: {rec[key]!r}")
    return rec


def _cmd_report(args):
    runs = []
    for root, _dirs, files in os.walk(args.in_dir):
        if "metrics.jsonl" in files:
            path = os.path.join(root, "metrics.jsonl")
            records = []
            with open(path, encoding="utf-8", errors="surrogateescape") as fh:
                for lineno, line in enumerate(fh, 1):
                    if line.strip():
                        records.append(_report_record(line, f"{path}:{lineno}"))
            if records:
                runs.append((os.path.relpath(root, args.in_dir), records))
    if not runs:
        raise DataError(f"no metrics.jsonl found under {args.in_dir}")
    runs.sort()
    print(f"{'run':20s} {'strategy':10s} {'cycle':>5s} {'n_labeled':>9s} {'accuracy':>8s}")
    for name, records in runs:
        for rec in records:
            print(f"{name:20s} {rec['strategy']:10s} {rec['cycle']:5d} "
                  f"{rec['n_labeled']:9d} {rec['accuracy']:8.4f}")
    print()
    print("final-cycle comparison:")
    for name, records in runs:
        last = records[-1]
        print(f"  {name:20s} strategy={last['strategy']:10s} "
              f"accuracy={last['accuracy']:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ideal",
                                     description="pool-based active learning engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an active-learning run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--strategy", choices=STRATEGIES, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--clusters", type=int, required=True)
    p_synth.add_argument("--per-class", dest="per_class", type=int, required=True)
    p_synth.add_argument("--noise", type=float, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--dim", type=int, default=2)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_abl = sub.add_parser("ablate", help="run the ablation flag lattice")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--out", required=True)
    p_abl.set_defaults(func=_cmd_ablate)

    p_rep = sub.add_parser("report", help="summarize run artifacts")
    p_rep.add_argument("--in", dest="in_dir", required=True)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, LookupError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
