"""The four benchmark workloads.

Each workload makes its inputs from the seed (``setup``), runs one round
of operations against the library (``round``), and checks what one round
wrote (``checks``).  CLI stages go through ``multitag.cli.main`` with
argument lists; kernels are looked up on their module at call time so
that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
import speed
from multitag import (baselines, cli, estimators, inference, modelio, oracle,
                      synthetic)
from multitag.core import DrbmParams, LabeledExample
from multitag.data import make_folds

EVAL_SEED = 0  # the fold partition eval uses (its default)

# Stages whose times add up to train_s and score_s; every other stage
# (ingest) counts only toward round_s.
TRAIN_STAGES = ("train_cd_s", "train_mfcd_s", "train_lbp_s", "train_pl_s",
                "train_grbm_s", "train_mlp_s", "train_logreg_s",
                "train_smoother_s", "cd_mc_s", "wide_pl_s")
SCORE_STAGES = ("eval_s", "smooth_s", "wide_lbp_s")


class Run:
    """Counts operations, and times each step of the current round.

    A step is one CLI call or one batch of kernel calls.  Steps that name
    the same ``work`` do equal work; a step without one is compared only
    with itself in other rounds.
    """

    def __init__(self, sampler):
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self._sampler = sampler
        self._steps = []

    def count(self, ok, n=1):
        self.attempted += n
        if not ok:
            self.failed += n

    @contextlib.contextmanager
    def stage(self, name, work=None):
        before = speed.calibration_loop()
        span = self.tracer.span("bench." + name) if self.tracer \
            else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            yield
        self._steps.append((name, work, t0, time.perf_counter(), before))

    def end_round(self):
        """The round's steps as (stage, work, seconds at reference speed);
        each step's next calibration is the one after it."""
        steps, self._steps = self._steps, []
        after = [step[4] for step in steps[1:]] + [speed.calibration_loop()]
        return [(name, work, self._sampler.at_reference(t0, t1, before, a))
                for (name, work, t0, t1, before), a in zip(steps, after)]

    def cli(self, stage, *args):
        """One `multitag` command; its stderr is kept and shown only when
        the command fails."""
        err = io.StringIO()
        with self.stage(stage):
            try:
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([str(a) for a in args])
            except Exception:  # a failed operation is counted, not fatal
                code = traceback.format_exc()
        ok = code == 0
        if not ok:
            print(f"multitag {' '.join(map(str, args))} failed: {code}\n"
                  f"{err.getvalue()[-2000:]}", file=sys.stderr)
        self.count(ok)
        return ok


@functools.lru_cache(maxsize=1)
def _triples(path):
    """The triples file of the current run, read once for all its rounds."""
    return checks.read_triples(path)


def _write_features(path, items, X):
    with open(path, "w", encoding="utf-8") as fh:
        for item, row in zip(items, X):
            fh.write(item + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _model_scores(model, X):
    """Scores as `multitag eval` defines them: LBP with K=10 on the label
    conditional for a DRBM or Gaussian RBM, the network output (computed
    here) for the MLP and logistic regression."""
    if isinstance(model, (DrbmParams, estimators.GaussianRbmParams)):
        view = DrbmParams(model.U, model.W, model.c, model.d)
        return np.array([inference.lbp_marginals(x, view, 10, 0.0).y_marg
                         for x in X])
    if isinstance(model, baselines.MlpParams):
        hidden = checks.sigmoid(model.b1 + X @ model.W1)
        return checks.sigmoid(model.b2 + hidden @ model.W2)
    return checks.sigmoid(model.b + X @ model.W)


def _eval_checks(data_dir, report_dir, model_path, fold, drbm):
    """Scipy AUC of one fold, and criterion 12 for a DRBM."""
    vocab, items, cells = checks.read_matrix(os.path.join(data_dir, "matrix.tsv"))
    _, X = checks.read_features(os.path.join(data_dir, "features.tsv"))
    reported = checks.read_auc_report(os.path.join(report_dir, "auc_a.tsv"))
    model, _ = modelio.load_model(model_path)
    idx = make_folds(len(items), EVAL_SEED).folds[fold]
    out = [("auc vs scipy " + report_dir,
            checks.check_fold_auc(_model_scores(model, X[idx]), cells[idx],
                                  vocab, reported, fold))]
    if drbm:
        out.append(("criterion 12 " + report_dir,
                    checks.check_beats_chance(reported.values())))
    return out


def _ingest_check(triples, features_in, out_dir, vocab_size, min_positive):
    vocab, items, cells = checks.read_matrix(os.path.join(out_dir, "matrix.tsv"))
    with open(os.path.join(out_dir, "vocab.txt"), encoding="utf-8") as fh:
        listed = fh.read().split()
    ok, detail = checks.check_ingest(
        triples, checks.read_features(features_in), vocab, items, cells,
        checks.read_features(os.path.join(out_dir, "features.tsv")),
        vocab_size, min_positive)
    if ok and listed != vocab:
        ok, detail = False, "vocab.txt differs from the matrix header"
    return "ingest " + out_dir, (ok, detail)


def _smooth_check(triples, model_path, smoothed_path):
    model, vocab = modelio.load_model(model_path)
    header, clips, cols = checks.read_table(smoothed_path, header=True)
    if header[1:] != vocab:
        return "smooth", (False, "smoothed header differs from the vocab")
    mean, n_users, want_clips = checks.smoother_inputs(triples, vocab)
    return "smooth", checks.check_smoothed(
        clips, np.array(cols, dtype=float), model, mean, n_users, want_clips)


# --------------------------------------------------------------- desk

@dataclass
class Desk:
    """200 items, every model kind, at shapes where per-call overhead
    dominates."""
    items: int = 200
    C: int = 5
    D: int = 8
    hidden: int = 10
    epochs: int = 5
    users_per_item: int = 3
    name: str = "desk"
    scored = estimators.ESTIMATORS + ("grbm", "mlp", "logreg")

    def setup(self, seed, root):
        X, Y = synthetic.make_tag_corpus(self.items, self.C, self.D, seed)
        rng = np.random.default_rng([seed, 1])
        items = [f"item{i:05d}" for i in range(self.items)]
        lines = []
        for i, item in enumerate(items):
            for u in range(self.users_per_item):
                user = f"user{(i * self.users_per_item + u) % (2 * self.users_per_item)}"
                for j in np.flatnonzero(Y[i] * (rng.random(self.C) < 0.7)):
                    lines.append(f"{user}\t{item}\ttag{j}")
        os.makedirs(root, exist_ok=True)
        inputs = {"triples": os.path.join(root, "triples.tsv"),
                  "features": os.path.join(root, "features.tsv"),
                  "seed": seed}
        _write_lines(inputs["triples"], lines)
        _write_features(inputs["features"], items, X)
        return inputs

    def round(self, run, inputs, out):
        seed = inputs["seed"]
        data = os.path.join(out, "ingested")
        run.cli("ingest_s", "ingest", "--triples", inputs["triples"],
                "--features", inputs["features"], "--vocab-size", self.C,
                "--min-positive", 1, "--out", data)
        common = ("--data", data, "--epochs", self.epochs, "--hidden",
                  self.hidden, "--seed", seed)
        for est in estimators.ESTIMATORS:
            run.cli(f"train_{est}_s", "train", *common, "--kind", "drbm",
                    "--estimator", est, "--k", 3, "--lr", 0.05,
                    "--model", os.path.join(out, f"{est}.model"))
        run.cli("train_grbm_s", "train", *common, "--kind", "grbm",
                "--lr", 0.01, "--model", os.path.join(out, "grbm.model"))
        run.cli("train_mlp_s", "train", *common, "--kind", "mlp",
                "--lr", 0.05, "--model", os.path.join(out, "mlp.model"))
        run.cli("train_logreg_s", "train", *common, "--kind", "logreg",
                "--lr", 0.1, "--model", os.path.join(out, "logreg.model"))
        run.cli("train_smoother_s", "train", "--kind", "smoother",
                "--triples", inputs["triples"], "--vocab-size", self.C,
                "--hidden", self.hidden, "--epochs", self.epochs,
                "--l1", 0.001, "--lr", 0.05, "--seed", seed,
                "--model", os.path.join(out, "smoother.model"))
        for name in self.scored:
            run.cli("eval_s", "eval", "--data", data, "--seed", EVAL_SEED,
                    "--model", os.path.join(out, f"{name}.model"),
                    "--out", os.path.join(out, f"reports-{name}"))
        run.cli("smooth_s", "smooth", "--model",
                os.path.join(out, "smoother.model"), "--triples",
                inputs["triples"], "--out", os.path.join(out, "smoothed.tsv"))

    def checks(self, inputs, out, state):
        triples = _triples(inputs["triples"])
        data = os.path.join(out, "ingested")
        results = [_ingest_check(triples, inputs["features"], data, self.C, 1)]
        fold = inputs["seed"] % 5
        for name in self.scored:
            results += _eval_checks(data, os.path.join(out, f"reports-{name}"),
                                    os.path.join(out, f"{name}.model"), fold,
                                    drbm=name in estimators.ESTIMATORS)
        results.append(_smooth_check(triples, os.path.join(out, "smoother.model"),
                                     os.path.join(out, "smoothed.tsv")))
        return results


# --------------------------------------------------------------- corpus-20k

@dataclass
class Corpus:
    """20,000 training items at a medium shape, scored on 1,000 held-out
    items ingested with the same vocabulary."""
    train_items: int = 20_000
    test_items: int = 1_000
    C: int = 20
    D: int = 32
    hidden: int = 50
    epochs: int = 1
    single_user: float = 0.1   # share of positive cells with one user only
    name: str = "corpus-20k"

    def setup(self, seed, root):
        n = self.train_items + self.test_items
        X, Y = synthetic.make_tag_corpus(n, self.C, self.D, seed)
        rng = np.random.default_rng([seed, 2])
        items = [f"item{i:05d}" for i in range(n)]
        rows, cols = np.nonzero(Y)
        first = rng.integers(0, 100, rows.size)
        second = (first + 1 + rng.integers(0, 99, rows.size)) % 100
        two = rng.random(rows.size) >= self.single_user
        repeat = rng.random(rows.size) < 0.02  # a user tagging twice counts once
        lines = []
        for i, j, a, b, t, r in zip(rows, cols, first, second, two, repeat):
            lines.append(f"user{a}\t{items[i]}\ttag{j:02d}")
            if t:
                lines.append(f"user{b}\t{items[i]}\ttag{j:02d}")
            if r:
                lines.append(f"user{a}\t{items[i]}\ttag{j:02d}")
        os.makedirs(root, exist_ok=True)
        inputs = {"triples": os.path.join(root, "triples.tsv"),
                  "train": os.path.join(root, "features-train.tsv"),
                  "test": os.path.join(root, "features-test.tsv"),
                  "seed": seed}
        _write_lines(inputs["triples"], lines)
        k = self.train_items
        _write_features(inputs["train"], items[:k], X[:k])
        _write_features(inputs["test"], items[k:], X[k:])
        return inputs

    def round(self, run, inputs, out):
        train, test = os.path.join(out, "train"), os.path.join(out, "test")
        for features, data in ((inputs["train"], train), (inputs["test"], test)):
            run.cli("ingest_s", "ingest", "--triples", inputs["triples"],
                    "--features", features, "--vocab-size", self.C,
                    "--min-positive", 2, "--out", data)
        common = ("--data", train, "--epochs", self.epochs, "--seed",
                  inputs["seed"])
        for est in ("cd", "pl"):
            run.cli(f"train_{est}_s", "train", *common, "--kind", "drbm",
                    "--estimator", est, "--hidden", self.hidden,
                    "--model", os.path.join(out, f"{est}.model"))
        run.cli("train_logreg_s", "train", *common, "--kind", "logreg",
                "--lr", 0.1, "--model", os.path.join(out, "logreg.model"))
        for name in ("cd", "pl", "logreg"):
            run.cli("eval_s", "eval", "--data", test, "--seed", EVAL_SEED,
                    "--model", os.path.join(out, f"{name}.model"),
                    "--out", os.path.join(out, f"reports-{name}"))

    def checks(self, inputs, out, state):
        triples = _triples(inputs["triples"])
        results = [_ingest_check(triples, inputs[part], os.path.join(out, part),
                                 self.C, 2) for part in ("train", "test")]
        fold = inputs["seed"] % 5
        for name in ("cd", "pl", "logreg"):
            results += _eval_checks(os.path.join(out, "test"),
                                    os.path.join(out, f"reports-{name}"),
                                    os.path.join(out, f"{name}.model"), fold,
                                    drbm=name != "logreg")
        return results


# --------------------------------------------------------------- smoother-10k

@dataclass
class Smoother:
    """About 10,000 clips with 3 users each, smoothed through the
    doubly conditional model."""
    clips: int = 11_000
    # Training costs events x clips; the clips end where this many (user,
    # clip) events with a tag are reached (about 9,400 generated clips), so
    # the work is the same for every seed.
    events: int = 16_000
    hidden: int = 10
    name: str = "smoother-10k"

    def setup(self, seed, root):
        _, _, events = synthetic.make_cooccurrence_corpus(self.clips, seed)
        tagged = [e for e in events if e.y.any()]
        last_clip = tagged[self.events - 1].clip
        lines = [f"user{e.user}\tclip{e.clip:05d}\ttag{j}"
                 for e in tagged if e.clip <= last_clip
                 for j in np.flatnonzero(e.y)]
        os.makedirs(root, exist_ok=True)
        inputs = {"triples": os.path.join(root, "triples.tsv"), "seed": seed}
        _write_lines(inputs["triples"], lines)
        return inputs

    def round(self, run, inputs, out):
        model = os.path.join(out, "smoother.model")
        run.cli("train_smoother_s", "train", "--kind", "smoother",
                "--triples", inputs["triples"], "--vocab-size", 3,
                "--hidden", self.hidden, "--epochs", 2, "--l1", 0.001,
                "--lr", 0.05, "--seed", inputs["seed"], "--model", model)
        run.cli("smooth_s", "smooth", "--model", model, "--triples",
                inputs["triples"], "--out", os.path.join(out, "smoothed.tsv"))

    def checks(self, inputs, out, state):
        return [_smooth_check(_triples(inputs["triples"]),
                              os.path.join(out, "smoother.model"),
                              os.path.join(out, "smoothed.tsv"))]


# --------------------------------------------------------------- kernels

@dataclass
class Kernels:
    """No CLI, no files: (a) CD-50 Monte Carlo on the criterion-3 shape,
    (b) LBP marginals and pseudo-likelihood gradients at a wide shape."""
    mc_runs: int = 2000
    wide_items: int = 300
    batch: int = 10      # kernel calls per timed step (CD-50 runs: 10x this)
    wide_shape: tuple = (50, 100, 100)   # (C, n, D)
    samples: int = 3                     # wide items checked per round
    name: str = "kernels"

    def __post_init__(self):
        if self.mc_runs % (10 * self.batch) or self.wide_items % (3 * self.batch):
            raise ValueError("timed steps must hold equal numbers of calls")

    def setup(self, seed, root):
        rng = np.random.default_rng([seed, 3])
        C, n, D = 4, 3, 5
        small = DrbmParams(*(rng.normal(scale=0.3, size=s)
                             for s in ((n, C), (n, D), n, C)))
        example = LabeledExample(rng.normal(size=D),
                                 (rng.random(C) < 0.5).astype(float))
        C, n, D = self.wide_shape
        wide = DrbmParams(*(rng.normal(scale=0.2, size=s)
                            for s in ((n, C), (n, D), n, C)))
        items = [LabeledExample(rng.normal(size=D),
                                (rng.random(C) < 0.5).astype(float))
                 for _ in range(self.wide_items)]
        return {"small": small, "example": example, "wide": wide,
                "items": items, "mc_rng": np.random.default_rng([seed, 4]),
                "pick_rng": np.random.default_rng([seed, 5]),
                "direction_rng": np.random.default_rng([seed, 6])}

    def round(self, run, inputs, out):
        p, ex, rng = inputs["small"], inputs["example"], inputs["mc_rng"]
        total = total_sq = 0.0
        for _ in range(self.mc_runs // (10 * self.batch)):
            with run.stage("cd_mc_s", work="cd_mc"):
                for _ in range(10 * self.batch):
                    g = estimators.cd_gradient(ex, p, 50, rng).flat()
                    total = total + g
                    total_sq = total_sq + g * g
        run.count(True, self.mc_runs)
        wide, items = inputs["wide"], inputs["items"]
        marginals, grads = [], []
        for start in range(0, len(items), self.batch):
            with run.stage("wide_lbp_s", work="wide_lbp"):
                marginals += [inference.lbp_marginals(it.x, wide, 10, 0.0)
                              for it in items[start:start + self.batch]]
        run.count(True, len(items))
        for start in range(0, len(items), 3 * self.batch):
            with run.stage("wide_pl_s", work="wide_pl"):
                grads += [estimators.pl_gradient(it, wide)[0]
                          for it in items[start:start + 3 * self.batch]]
        run.count(True, len(items))
        picks = inputs["pick_rng"].choice(len(items), self.samples, replace=False)
        return total, total_sq, [(i, marginals[i], grads[i]) for i in picks]

    def checks(self, inputs, out, state):
        total, total_sq, picked = state
        exact = oracle.exact_grad(inputs["example"], inputs["small"]).flat()
        results = [("cd-50 mean vs exact gradient",
                    checks.check_cd_mean(total, total_sq, self.mc_runs, exact))]
        wide, items = inputs["wide"], inputs["items"]
        arrays = (wide.U, wide.W, wide.c, wide.d)
        rng, h = inputs["direction_rng"], 1e-5
        for i, m_k, grad in picked:
            m_2k = inference.lbp_marginals(items[i].x, wide, 20, 0.0)
            results.append((f"lbp K vs 2K sweeps, item {i}",
                            checks.check_bp_fixed_point(m_k, m_2k)))
            direction = [rng.normal(size=a.shape) for a in arrays]
            norm = np.sqrt(sum(np.sum(v * v) for v in direction))
            direction = [v / norm for v in direction]
            shifted = [DrbmParams(*(a + s * h * v for a, v in zip(arrays, direction)))
                       for s in (1, -1)]
            numeric = (oracle.log_pl_reference(items[i], shifted[0])
                       - oracle.log_pl_reference(items[i], shifted[1])) / (2 * h)
            analytic = float(grad.flat() @ np.concatenate([v.ravel() for v in direction]))
            results.append((f"pl gradient vs central difference, item {i}",
                            checks.check_directional(analytic, numeric)))
        return results


FULL = {w.name: w for w in (Desk(), Corpus(), Smoother(), Kernels())}
TOY = {w.name: w for w in (
    Desk(),  # already desk-sized; fewer items leave folds too small for criterion 12
    Corpus(train_items=500, test_items=200, C=5, D=6, hidden=6, epochs=5),
    Smoother(clips=60, events=80, hidden=4),
    Kernels(mc_runs=200, wide_items=6, wide_shape=(6, 8, 7), samples=2,
            batch=2))}
