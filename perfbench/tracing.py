"""In-memory spans around multitag's public functions, and the per-layer
metrics derived from them.

The program is left untouched: a `Patch` replaces every attribute of a
loaded ``multitag`` module that is bound to a wrapped function, so a call
is recorded whichever module it is looked up through (for example
``multitag.estimators.mf_predict`` as well as
``multitag.inference.mf_predict``), and puts the originals back on exit.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs whose calls become spans named "module.function".
TARGETS = (
    ("data", ("read_triples", "read_features", "condense", "binarize",
              "normalize_features")),
    ("cli", ("cmd_ingest", "cmd_train", "cmd_eval", "cmd_smooth",
             "_read_matrix", "_write_matrix", "_events_from_triples",
             "_model_scores")),
    ("estimators", ("cd_gradient", "mfcd_gradient", "lbp_gradient",
                    "pl_gradient", "generative_cd_gradient", "sgd_train",
                    "sgd_train_generative")),
    ("inference", ("lbp_marginals", "mf_predict")),
    ("core", ("cond_free_energy",)),
    ("smoother", ("smoother_cd_gradient", "build_aux", "other_users_avg",
                  "train_smoother", "smooth_tags")),
    ("baselines", ("logreg_train", "mlp_train", "logreg_predict",
                   "mlp_predict")),
    ("evaluation", ("auc", "score_matrix_auc", "write_auc_report")),
    ("modelio", ("save_model", "load_model")),
)

GRADIENTS = ("estimators.cd_gradient", "estimators.mfcd_gradient",
             "estimators.lbp_gradient", "estimators.pl_gradient",
             "estimators.generative_cd_gradient")
PROXY = ("inference.mf_predict", "core.cond_free_energy")


def _lbp_message_bytes(args, kwargs):
    """Bytes of messages one lbp_marginals call computes: two n x C
    float64 arrays per sweep, K sweeps (computed from the shapes, not
    measured)."""
    p = args[1] if len(args) > 1 else kwargs["p"]
    K = args[2] if len(args) > 2 else kwargs["K"]
    return 2 * 8 * p.n * p.C * K


NOTES = {"inference.lbp_marginals": _lbp_message_bytes}


class Tracer:
    """Records spans as [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, note=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), None, parent, note]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        note_fn = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = note_fn(args, kwargs) if note_fn else None
            with self.span(name, note):
                return fn(*args, **kwargs)
        return traced


class Patch:
    """Context manager that routes every TARGETS function through a
    tracer for the duration of the block."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "multitag" or name.startswith("multitag."))]
        for mod_name, functions in TARGETS:
            home = sys.modules["multitag." + mod_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.tracer.wrap(original, f"{mod_name}.{fn_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, step_seconds, model_file_bytes):
    """Per-layer metrics of one traced round.

    The root spans are the round's timed steps, and ``step_seconds`` holds
    their times at the reference speed; every span is rescaled as its
    root was.  ``_us`` values are medians per call in microseconds, ``_s``
    values are totals over the round in seconds, counts are exact.
    """
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != len(step_seconds):
        raise ValueError("root spans do not match the timed steps")
    scales = iter(t / (s[2] - s[1]) for s, t in zip(roots, step_seconds))
    seconds = []
    for name, start, end, parent, _ in spans:
        scale = next(scales) if parent < 0 else seconds[parent][1]
        seconds.append(((end - start) * scale, scale))
    seconds = [d for d, _ in seconds]

    durations = {}
    self_time = list(seconds)
    children = {}
    for idx, (name, _, _, parent, _) in enumerate(spans):
        durations.setdefault(name, []).append(seconds[idx])
        if parent >= 0:
            self_time[parent] -= seconds[idx]
            children.setdefault(parent, []).append(idx)

    def us(name):
        return _median(durations.get(name, [])) * 1e6

    def total(name):
        return sum(durations.get(name, []))

    def self_total(name):
        return sum(self_time[i] for i, s in enumerate(spans) if s[0] == name)

    proxies = []
    for idx, span in enumerate(spans):
        if span[0] != "estimators.sgd_train":
            continue
        per_example = None
        for child in children.get(idx, []):
            name = spans[child][0]
            if name in GRADIENTS:
                if per_example:
                    proxies.append(per_example)
                per_example = 0.0
            elif name in PROXY and per_example is not None:
                per_example += seconds[child]
        if per_example:
            proxies.append(per_example)

    lbp_bytes = [s[4] for s in spans if s[0] == "inference.lbp_marginals"]
    return {
        "data.read_triples_s": total("data.read_triples"),
        "data.read_features_s": total("data.read_features"),
        "data.condense_s": total("data.condense"),
        "data.binarize_s": total("data.binarize"),
        "data.normalize_features_s": total("data.normalize_features"),
        "cli.ingest_self_s": self_total("cli.cmd_ingest"),
        "cli.read_matrix_s": total("cli._read_matrix"),
        "cli.write_matrix_s": total("cli._write_matrix"),
        "cli.events_from_triples_s": total("cli._events_from_triples"),
        "cli.model_scores_s": total("cli._model_scores"),
        "estimators.cd_gradient_us": us("estimators.cd_gradient"),
        "estimators.mfcd_gradient_us": us("estimators.mfcd_gradient"),
        "estimators.lbp_gradient_us": us("estimators.lbp_gradient"),
        "estimators.pl_gradient_us": us("estimators.pl_gradient"),
        "estimators.generative_cd_gradient_us":
            us("estimators.generative_cd_gradient"),
        "estimators.gradient_calls":
            sum(len(durations.get(name, [])) for name in GRADIENTS),
        "estimators.objective_proxy_us": _median(proxies) * 1e6,
        "estimators.sgd_train_self_s": self_total("estimators.sgd_train"),
        "inference.lbp_marginals_us": us("inference.lbp_marginals"),
        "inference.lbp_marginals_calls": len(lbp_bytes),
        "inference.mf_predict_us": us("inference.mf_predict"),
        "inference.lbp_bytes_computed": _median(lbp_bytes),
        "core.cond_free_energy_us": us("core.cond_free_energy"),
        "smoother.smoother_cd_gradient_us": us("smoother.smoother_cd_gradient"),
        "smoother.build_aux_us": us("smoother.build_aux"),
        "smoother.other_users_avg_us": us("smoother.other_users_avg"),
        "smoother.train_smoother_self_s": self_total("smoother.train_smoother"),
        "smoother.smooth_tags_us": us("smoother.smooth_tags"),
        "baselines.logreg_train_s": total("baselines.logreg_train"),
        "baselines.mlp_train_s": total("baselines.mlp_train"),
        "baselines.logreg_predict_us": us("baselines.logreg_predict"),
        "baselines.mlp_predict_us": us("baselines.mlp_predict"),
        "evaluation.auc_us": us("evaluation.auc"),
        "evaluation.score_matrix_auc_s": total("evaluation.score_matrix_auc"),
        "evaluation.write_auc_report_s": total("evaluation.write_auc_report"),
        "modelio.save_model_s": total("modelio.save_model"),
        "modelio.load_model_s": total("modelio.load_model"),
        "modelio.model_file_bytes": model_file_bytes,
    }


def write_spans(path, rounds):
    """One tab-separated line per span: round, id, parent, name, start
    and end in seconds from the round's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round\tid\tparent\tname\tstart_s\tend_s\n")
        for r, spans in enumerate(rounds):
            t0 = spans[0][1] if spans else 0.0
            for idx, (name, start, end, parent, _) in enumerate(spans):
                fh.write(f"{r}\t{idx}\t{parent}\t{name}\t{start - t0:.9f}"
                         f"\t{end - t0:.9f}\n")
