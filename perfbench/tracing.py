"""Span tracing of the program's layers, installed from outside the package.

Each layer is wrapped at the name its caller looks up at call time: a module
attribute for functions the loop reaches through a module (`augment.*`,
`propagator.*`, `selector.*`, `data.*`), the class attribute for methods, and
the importing module's attribute for names bound by `from ... import`
(`loop.train_step`, `loop.kl_rows`, `augment.grad_kl_wrt_input_batch`).
Wrapping those at their defining module would record nothing.

Spans stay in memory until the run ends. A span is
[name, start, end, parent index, round id, rows, useful rows]; every span
opened inside one `run_cycle` call carries that call's round id.
"""

import json
import time
from contextlib import contextmanager

ROUND_SPAN = "loop.run_cycle"


def _rows_out(args, kwargs, out):
    return len(out), 0


def _rows_first_arg(args, kwargs, out):
    return len(args[0]), 0


def _rows_augment(args, kwargs, out):
    return out.shape[0] * out.shape[1], 0


def _rows_vat(args, kwargs, out):
    _, degenerate = out
    return len(degenerate), int(len(degenerate) - degenerate.sum())


def _rows_predict(args, kwargs, out):
    return (len(out) if out.ndim == 2 else 1), 0


def layer_targets():
    """(owner, attribute, span name, row counter) for every traced layer."""
    from ideal_al import augment, data, loop, model, propagator, selector

    alloop = loop.ActiveLearningLoop
    return [
        (alloop, "run_cycle", ROUND_SPAN, None),
        (alloop, "_initial_pool", "loop.initial_pool", None),
        (alloop, "_train_phase", "loop.train_phase", None),
        (alloop, "_select_phase", "loop.select_phase", None),
        (alloop, "_score_pool", "loop.score_pool", None),
        (alloop, "_entropy_records", "loop.entropy_records", None),
        (alloop, "accuracy", "loop.accuracy", None),
        (loop, "baseline_select", "loop.baseline_select", None),
        (loop, "train_step", "model.train_step", None),
        (loop, "kl_rows", "model.kl_rows", _rows_out),
        (model.Classifier, "predict", "model.predict", _rows_predict),
        (augment, "grad_kl_wrt_input_batch", "model.grad_kl_wrt_input_batch",
         _rows_out),
        (augment, "coarse_augment_batch", "augment.coarse_augment_batch",
         _rows_augment),
        (augment, "vat_perturbation_batch", "augment.vat_perturbation_batch",
         _rows_vat),
        (propagator, "guess_labels_batch", "propagator.guess_labels_batch", None),
        (propagator, "build_training_arrays", "propagator.build_training_arrays",
         _rows_first_arg),
        (selector, "select", "selector.select", None),
        (selector, "percentiles", "selector.percentiles", None),
        (data, "load_dataset", "data.load_dataset", _rows_out),
        (data, "write_reports", "data.write_reports", None),
    ]


class Tracer:
    """Records spans while installed; a no-op once uninstalled."""

    def __init__(self):
        self.spans = []
        self.rounds = 0
        self._stack = []
        self._round = None
        self._saved = []

    def _wrap(self, fn, name, count):
        tracer = self
        is_round = name == ROUND_SPAN

        def traced(*args, **kwargs):
            stack = tracer._stack
            if is_round:
                tracer._round = tracer.rounds
                tracer.rounds += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._round, 0, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if is_round:
                    tracer._round = None
            if count is not None:
                span[5], span[6] = count(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self, targets):
        try:
            for owner, attr, name, count in targets:
                # read the class __dict__ so a method is saved unbound
                fn = vars(owner)[attr]
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, count))
            yield self
        finally:
            while self._saved:
                owner, attr, fn = self._saved.pop()
                setattr(owner, attr, fn)

    def totals(self):
        """Per (span name, in a round?) sums of busy, self, calls, rows, useful."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, round_id, rows, useful) in enumerate(self.spans):
            t = out.setdefault((name, round_id is not None), [0.0, 0.0, 0, 0, 0])
            t[0] += end - start
            t[1] += end - start - child[i]
            t[2] += 1
            t[3] += rows
            t[4] += useful
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, round_id, rows, useful in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "round": round_id,
                                     "rows": rows, "useful": useful}) + "\n")


# (metric, span name, field, in a round?, unit). Round-scoped sums are divided
# by the traced round count, the rest by the traced configuration count (each
# configuration sets up once and writes its reports once).
LAYER_METRICS = [
    ("loop.run_cycle.busy_s", ROUND_SPAN, "busy", True, "s/round"),
    ("loop.run_cycle.self_s", ROUND_SPAN, "self", True, "s/round"),
    ("loop.train_phase.busy_s", "loop.train_phase", "busy", True, "s/round"),
    ("loop.train_phase.self_s", "loop.train_phase", "self", True, "s/round"),
    ("model.train_step.busy_s", "model.train_step", "busy", True, "s/round"),
    ("model.train_step.calls", "model.train_step", "calls", True, "calls/round"),
    ("propagator.guess_labels_batch.busy_s", "propagator.guess_labels_batch",
     "busy", True, "s/round"),
    ("propagator.build_training_arrays.busy_s", "propagator.build_training_arrays",
     "busy", True, "s/round"),
    ("propagator.build_training_arrays.rows", "propagator.build_training_arrays",
     "rows", True, "rows/round"),
    ("augment.coarse_augment_batch.busy_s", "augment.coarse_augment_batch",
     "busy", True, "s/round"),
    ("augment.coarse_augment_batch.calls", "augment.coarse_augment_batch",
     "calls", True, "calls/round"),
    ("augment.coarse_augment_batch.rows", "augment.coarse_augment_batch",
     "rows", True, "rows/round"),
    ("augment.vat_perturbation_batch.busy_s", "augment.vat_perturbation_batch",
     "busy", True, "s/round"),
    ("augment.vat_perturbation_batch.rows", "augment.vat_perturbation_batch",
     "rows", True, "rows/round"),
    ("model.grad_kl_wrt_input_batch.busy_s", "model.grad_kl_wrt_input_batch",
     "busy", True, "s/round"),
    ("model.predict.busy_s", "model.predict", "busy", True, "s/round"),
    ("model.predict.calls", "model.predict", "calls", True, "calls/round"),
    ("model.predict.rows", "model.predict", "rows", True, "rows/round"),
    ("model.kl_rows.busy_s", "model.kl_rows", "busy", True, "s/round"),
    ("loop.select_phase.busy_s", "loop.select_phase", "busy", True, "s/round"),
    ("loop.score_pool.busy_s", "loop.score_pool", "busy", True, "s/round"),
    ("loop.score_pool.self_s", "loop.score_pool", "self", True, "s/round"),
    ("selector.select.busy_s", "selector.select", "busy", True, "s/round"),
    ("selector.percentiles.busy_s", "selector.percentiles", "busy", True, "s/round"),
    ("loop.entropy_records.busy_s", "loop.entropy_records", "busy", True, "s/round"),
    ("loop.entropy_records.self_s", "loop.entropy_records", "self", True, "s/round"),
    ("loop.baseline_select.busy_s", "loop.baseline_select", "busy", True, "s/round"),
    ("loop.accuracy.busy_s", "loop.accuracy", "busy", True, "s/round"),
    ("data.load_dataset.busy_s", "data.load_dataset", "busy", False, "s/config"),
    ("data.load_dataset.rows", "data.load_dataset", "rows", False, "rows/config"),
    ("loop.initial_pool.busy_s", "loop.initial_pool", "busy", False, "s/config"),
    ("data.write_reports.busy_s", "data.write_reports", "busy", False, "s/config"),
]

_FIELDS = {"busy": 0, "self": 1, "calls": 2, "rows": 3}


def layer_metrics(totals, rounds, configs):
    """Per-layer metrics from `Tracer.totals()`; 0 for a layer never called."""
    metrics = {}
    for metric, span, field, in_round, unit in LAYER_METRICS:
        t = totals.get((span, in_round))
        value = t[_FIELDS[field]] / (rounds if in_round else configs) if t else 0.0
        metrics[metric] = (float(value), unit)
    vat = totals.get(("augment.vat_perturbation_batch", True))
    metrics["augment.vat.useful_ratio"] = (
        vat[4] / vat[3] if vat and vat[3] else 0.0, "ratio")
    cycle = totals.get((ROUND_SPAN, True))
    metrics["trace.child_share"] = (
        1.0 - cycle[1] / cycle[0] if cycle and cycle[0] else 0.0, "ratio")
    return metrics
