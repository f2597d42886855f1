"""Benchmark of the ideal-al active-learning loop, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload ssl-train --seed 1 --seconds 35 --trace 0

It drives the user path of `ideal run` in one process: `config.load_config`
on a flat config file, `data.load_dataset` on the pool and test CSVs,
`loop.ActiveLearningLoop(...).run()` (every round through `run_cycle`, then
the final retrain) and `data.write_reports`. It is a closed loop with one
client: each acquisition round starts when the previous one has ended. BLAS
is pinned to one thread.

A run makes passes over the workload's configurations, each pass running
every configuration once, until `--seconds` have passed. Every
configuration's outputs are checked; a failed check makes the run exit 1.

Timings are medians per position: each round of each configuration (its
round position) takes its median time over the passes, as do each
configuration's final retrain and set-up. A round position does the same
work in every pass, so its samples differ only by the machine's state.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs every
configuration twice in a row, untraced and traced, reports per-layer metrics
from the traced runs and the tracing overhead from the pairs, and writes the
spans to `.perfbench_work/traces/`. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import os

# BLAS reads its thread count when numpy loads, so pin it before the import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
# in every pass, extra set-ups of each configuration until this much set-up
# time has accumulated, so small set-ups get many samples spread over the run
SETUP_SAMPLE_S = 0.1
# the printed raw round tail is the slowest round with this many beyond it
TAIL_BEYOND = 10
# traced loop.select_phase time over the loop's own CycleReport.select_ms
SELECT_MS_RATIO_RANGE = (0.9, 1.0 + 1e-9)

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s_p50": "s",
    "round_s_tail": "s",
    "labels_per_s": "1/s",
    "final_accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ideal_al from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "ideal_al"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import ideal_al

    if Path(ideal_al.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported ideal_al from {ideal_al.__file__}")
    return ideal_al


def _blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine():
    info = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    return info


@dataclass
class ConfigRun:
    index: int              # which of the workload's configurations
    traced: bool
    setup_s: float = 0.0
    round_s: list = field(default_factory=list)
    loop_s: float = 0.0
    labels: int = 0
    select_ms: float = 0.0
    fingerprint: tuple = ()
    final_accuracy: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def final_s(self):
        """`run()` time outside the rounds: the final retrain."""
        return self.loop_s - sum(self.round_s)


def set_up(al, cfg_path):
    """The timed set-up: config load, both CSV loads, loop construction."""
    t0 = time.perf_counter()
    cfg = al.config.load_config(cfg_path)
    pool = al.data.load_dataset(cfg.dataset)
    test = al.data.load_dataset(cfg.test_dataset)
    lp = al.loop.ActiveLearningLoop(cfg, pool, test_data=test)
    return cfg, pool, lp, time.perf_counter() - t0


def check_outputs(al, cfg, pool, lp, reports, out_dir):
    """Problems found in one configuration's outputs; empty when correct."""
    problems = []
    if len(reports) != cfg.cycles:
        problems.append(f"{len(reports)} reports for {cfg.cycles} cycles")
    pool_ids = set(pool.ids.tolist())
    initial = cfg.init_per_class * pool.n_classes
    labeled = set(lp.oracle.audit[:initial])
    for rep in reports:
        ids = rep.selected_ids
        if len(ids) != cfg.budget or len(set(ids)) != len(ids):
            problems.append(f"cycle {rep.cycle}: {len(set(ids))} unique of "
                            f"{len(ids)} ids, budget {cfg.budget}")
        if not pool_ids.issuperset(ids):
            problems.append(f"cycle {rep.cycle}: ids outside the pool")
        if labeled.intersection(ids):
            problems.append(f"cycle {rep.cycle}: relabeled ids")
        labeled.update(ids)
        if rep.n_labeled != len(labeled):
            problems.append(f"cycle {rep.cycle}: n_labeled {rep.n_labeled} "
                            f"!= {len(labeled)}")
        if not (math.isfinite(rep.accuracy) and 0.0 <= rep.accuracy <= 1.0):
            problems.append(f"cycle {rep.cycle}: accuracy {rep.accuracy}")
    expected_audit = initial + cfg.budget * len(reports)
    if len(lp.oracle.audit) != expected_audit:
        problems.append(f"oracle audit {len(lp.oracle.audit)} != {expected_audit}")
    if set(lp.pool.labeled) != labeled:
        problems.append("labeled pool differs from initial + selected ids")
    try:
        lp.pool.check()
    except al.errors.UsageError as exc:
        problems.append(f"pool check: {exc}")
    with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        written = sum(1 for line in fh if line.strip())
    if written != len(reports):
        problems.append(f"metrics.jsonl has {written} lines for {len(reports)} cycles")
    return problems


def run_configuration(al, index, cfg_path, out_dir, traced):
    run = ConfigRun(index=index, traced=traced)
    cfg, pool, lp, run.setup_s = set_up(al, cfg_path)
    inner = lp.run_cycle

    def timed_cycle(t):
        t0 = time.perf_counter()
        report = inner(t)
        run.round_s.append(time.perf_counter() - t0)
        return report

    lp.run_cycle = timed_cycle
    t0 = time.perf_counter()
    reports = lp.run()
    run.loop_s = time.perf_counter() - t0
    al.data.write_reports(reports, out_dir, config=cfg)
    run.labels = cfg.budget * len(reports)
    run.select_ms = sum(rep.select_ms for rep in reports)
    run.fingerprint = tuple((tuple(rep.selected_ids), rep.accuracy) for rep in reports)
    run.final_accuracy = reports[-1].accuracy if reports else float("nan")
    run.problems = check_outputs(al, cfg, pool, lp, reports, out_dir)
    return run


def tail(values):
    """(value, percentile, values beyond it) of the slowest value with
    TAIL_BEYOND values beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 values that value lies below the
    median, so the upper median is reported instead.
    """
    ordered = sorted(values)
    i = max(len(ordered) - 1 - TAIL_BEYOND, len(ordered) // 2)
    return ordered[i], 100.0 * i / max(len(ordered) - 1, 1), len(ordered) - 1 - i


def measure(al, cfg_paths, seconds, trace, run_dir, tracer):
    """Make passes over the configurations until `seconds` have passed;
    return (runs, extra set-ups as (configuration index, seconds)).

    With `trace`, each configuration runs twice in a row, untraced and
    traced, in alternating order, so each pair sees the same machine state.
    """
    setups = []
    runs = []
    first_run = {}
    t_start = time.perf_counter()
    n_pass = 0
    while not n_pass or time.perf_counter() - t_start < seconds:
        for index, cfg_path in enumerate(cfg_paths):
            swap = (n_pass + index) % 2
            order = ((True, False) if swap else (False, True)) if trace else (False,)
            for traced in order:
                out_dir = os.path.join(run_dir, f"out{len(runs)}")
                # every run starts from the same collector state, so a round
                # position does the same garbage collection work in each pass
                gc.collect()
                try:
                    with tracer.installed(tracing.layer_targets()) if traced else nullcontext():
                        run = run_configuration(al, index, cfg_path, out_dir, traced)
                except Exception:  # a configuration that raises counts as failed
                    run = ConfigRun(index=index, traced=traced,
                                    problems=[traceback.format_exc()])
                else:
                    if run.fingerprint != first_run.setdefault(index, run.fingerprint):
                        run.problems.append("selections or accuracies differ from "
                                            "the first run of this configuration")
                shutil.rmtree(out_dir, ignore_errors=True)
                for problem in run.problems:
                    print(f"check failed: configuration {index}: {problem}",
                          file=sys.stderr)
                runs.append(run)
            spent = run.setup_s
            while not (trace or run.problems) and spent < SETUP_SAMPLE_S:
                setups.append((index, set_up(al, cfg_path)[3]))
                spent += setups[-1][1]
        n_pass += 1
    return runs, setups


def medians(samples):
    """The median time per key of (key, seconds) pairs."""
    out = {}
    for key, seconds in samples:
        out.setdefault(key, []).append(seconds)
    return {key: statistics.median(values) for key, values in out.items()}


def end_to_end(runs, setups, n_configs):
    ok = [r for r in runs if not r.problems]
    rounds = medians(((r.index, c), t) for r in ok for c, t in enumerate(r.round_s))
    finals = medians((r.index, r.final_s) for r in ok)
    setup = medians([*setups, *((r.index, r.setup_s) for r in ok)])
    labels = {r.index: r.labels for r in ok}
    accuracy = {r.index: r.final_accuracy for r in ok}
    metrics = {
        "setup_s": statistics.median(setup.values()),
        "round_s_p50": statistics.median(rounds.values()),
        "round_s_tail": max(rounds.values()),
        "labels_per_s": sum(labels.values())
        / (sum(rounds.values()) + sum(finals.values())),
        "final_accuracy": sum(accuracy.values()) / len(accuracy),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    passes = min(sum(1 for r in ok if r.index == i) for i in accuracy)
    raw = [t for r in ok for t in r.round_s]
    raw_tail, tail_pct, beyond = tail(raw)
    print(f"configurations: {len(runs)} run, {len(accuracy)} of {n_configs} "
          f"distinct; each timing is a median over at least {passes} passes; "
          f"round positions: {len(rounds)}; set-ups: {len(setups) + len(ok)}")
    print(f"all {len(raw)} rounds pooled: median "
          f"{statistics.median(raw):.6g} s, p{tail_pct:.0f} {raw_tail:.6g} s "
          f"({beyond} rounds beyond it)")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def per_layer(runs, tracer):
    traced = [r for r in runs if r.traced and not r.problems]
    totals = tracer.totals()
    metrics = tracing.layer_metrics(totals, tracer.rounds, len(traced))
    metrics["trace.rounds"] = (float(tracer.rounds), "count")

    # overhead from configurations run both ways: labels are equal per
    # configuration, so the labels_per_s ratio is the inverse loop-time ratio
    untraced = [r for r in runs if not r.traced and not r.problems]
    both = {r.index for r in traced} & {r.index for r in untraced}

    def median_loop_s(group, index):
        return statistics.median(r.loop_s for r in group if r.index == index)

    loop_traced = sum(median_loop_s(traced, i) for i in both)
    loop_untraced = sum(median_loop_s(untraced, i) for i in both)
    if both:
        labels = sum(next(r.labels for r in traced if r.index == i) for i in both)
        print(f"tracing overhead: labels_per_s {labels / loop_untraced:.6g} "
              f"untraced, {labels / loop_traced:.6g} traced, over "
              f"{len(both)} configurations run both ways")
    metrics["trace.overhead_pct"] = (
        100.0 * (loop_traced / loop_untraced - 1.0) if both else 0.0, "%")

    select_spans = totals.get(("loop.select_phase", True), [0.0])[0]
    select_ms = sum(r.select_ms for r in traced) / 1000.0
    ratio = select_spans / select_ms if select_ms else 0.0
    metrics["trace.select_ms_ratio"] = (ratio, "ratio")
    problems = []
    lo, hi = SELECT_MS_RATIO_RANGE
    if not lo <= ratio <= hi:
        problems.append(f"traced select_phase time is {ratio:.4f} of the loop's "
                        f"own select_ms, outside [{lo}, {hi:.0f}]")
    return metrics, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few-second shape of the workload (smoke test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    al = import_program()
    print("machine " + json.dumps(machine(), sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    tracer = tracing.Tracer()
    try:
        cfg_paths = workloads.write_inputs(workload, args.seed, run_dir, tiny=args.tiny)
        runs, setups = measure(al, cfg_paths, args.seconds, bool(args.trace),
                               run_dir, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(1 for r in runs if r.problems)
    problems = []
    metrics = {}
    if failed < len(runs):
        if args.trace:
            metrics, problems = per_layer(runs, tracer)
            trace_dir = WORK_ROOT / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(runs, setups, len(cfg_paths))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"failed_ratio = {failed / len(runs):.4f} ({failed} of {len(runs)} "
          f"configurations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
