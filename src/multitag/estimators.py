"""Gradient estimators for conditional training (contrastive divergence,
mean-field CD, belief-propagation marginals, pseudo-likelihood), the
generative Gaussian-input update, and the per-example stochastic
gradient training driver.

All estimators return the ascent direction of the conditional
log-likelihood (or its surrogate), so a training step is
theta <- theta + lr * gradient.  The pseudocode convention
theta <- theta - lr * (dE_pos - dE_neg) is the same thing.  Every row
trainer, the mlp and logreg baselines included, takes that step through
``row_step``; only the smoother has a step of its own.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .core import (DrbmParams, Gradient, LabeledExample, cd_chain, log1pexp,
                   mean_field, sigm)
from .inference import lbp_marginals
from .oracle import exact_log_cond_probs, marginal_gradient

ESTIMATORS = ("cd", "mfcd", "lbp", "pl")
DIVERGENCE_LIMIT = 1e6
# the per-epoch objective is computed on the first PROBE_ROWS examples;
# exactly while the enumeration has at most EXACT_OBJECTIVE_CELLS hidden
# inputs (2^C * n * rows), else as the pseudo-likelihood
PROBE_ROWS = 256
EXACT_OBJECTIVE_CELLS = 2 ** 20


class DivergenceError(RuntimeError):
    """Parameters blew up during training."""


@dataclass
class TrainConfig:
    estimator: str = "cd"
    k: int = 1            # chain / sweep iterations (unused by pl)
    lr: float = 0.01
    beta: float = 0.0     # lbp damping
    epochs: int = 1
    seed: int = 0
    l1: float = 0.0       # smoother conditioning-weight penalty

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not np.isfinite(self.lr):
            raise ValueError("learning rate must be finite")
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("beta must lie in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not np.isfinite(self.l1):
            raise ValueError("l1 must be finite")
        if self.l1 < 0:
            raise ValueError("l1 must be >= 0")


def _phase_difference(h0, y0, hK, yK, x) -> Gradient:
    # broadcast products: the ufunc calls of np.outer, so the same bits
    dc = h0 - hK
    return Gradient(dU=h0[:, None] * y0 - hK[:, None] * yK,
                    dW=dc[:, None] * x, dc=dc, dd=y0 - yK)


def cd_gradient(example: LabeledExample, p: DrbmParams, K: int, rng) -> Gradient:
    """CD-K update: Gibbs chain over (h, y) started at the training
    label, features held fixed; final statistics use the deterministic
    hidden activation."""
    x, y0 = example.x, example.y
    h0, hK, yK = cd_chain((p.c + p.W @ x)[None], p.d, p.U, y0[None], K, rng)
    return _phase_difference(h0[0], y0, hK[0], yK[0], x)


def mfcd_gradient(example: LabeledExample, p: DrbmParams, K: int) -> Gradient:
    """Deterministic CD variant: samples replaced by conditional
    expectations, initialized at the training label."""
    x, y0 = example.x, example.y
    act = p.c + p.W @ x
    yK = mean_field(act[None], p.d, p.U, y0[None], K, tol=0.0)[0]
    return _phase_difference(sigm(act + p.U @ y0), y0, sigm(act + p.U @ yK),
                             yK, x)


def lbp_gradient(example: LabeledExample, p: DrbmParams, K: int,
                 beta: float) -> Gradient:
    """Exact data term minus the model expectation estimated from
    belief-propagation marginals."""
    return marginal_gradient(example, p, lbp_marginals(example.x, p, K, beta))


def _pl_flip(c_data, Y, p: DrbmParams):
    """The pseudo-likelihood's one flipped-bit block, for the observed
    hidden inputs c_data = c + Wx + Uy, (n,) or (b, n), and 0/1 labels Y,
    (C,) or (b, C): the signs 2y - 1, the hidden inputs F with bit j
    flipped (n x C per row), and the pre-activations of p(y_j | y_\\j, x),
    pre_j = d_j + (2y_j - 1) sum_i [log1pexp(c_data_i) - log1pexp(F_ij)]."""
    sign = 2 * Y - 1
    F = c_data[..., :, None] - p.U * sign[..., None, :]
    pre = p.d + sign * (log1pexp(c_data)[..., :, None] - log1pexp(F)).sum(-2)
    return sign, F, pre


def _log_pl(sign, pre):
    """sum_j log p(y_j | y_\\j, x) from ``_pl_flip``'s signs and pre."""
    return -np.sum(log1pexp(-sign * pre), axis=-1)


def _pl_ascent(example: LabeledExample, p: DrbmParams):
    """``pl_gradient``'s gradient, and ``_pl_flip``'s signs and pre."""
    x, y = example.x, example.y
    c_data = p.c + p.W @ x + p.U @ y
    sign, F, pre = _pl_flip(c_data, y, p)
    dd = y - sigm(pre)                        # C, ascent on log PL
    SF = sigm(F)
    dhid = (sigm(c_data)[:, None] - SF) @ (sign * dd)  # n
    return (Gradient(dU=SF * dd + dhid[:, None] * y, dW=dhid[:, None] * x,
                     dc=dhid, dd=dd), sign, pre)


def pl_gradient(example: LabeledExample, p: DrbmParams):
    """Exact gradient of the pseudo-likelihood sum_j log p(y_j | y_\\j, x)
    and its value: (gradient, log_pl)."""
    grad, sign, pre = _pl_ascent(example, p)
    return grad, float(_log_pl(sign, pre))


def log_pl_rows(X, Y, p: DrbmParams) -> np.ndarray:
    """The log pseudo-likelihood of ``pl_gradient`` for every row of the
    (b, D) features X and (b, C) labels Y, through (b, n, C) blocks."""
    sign, _, pre = _pl_flip(p.c + X @ p.W.T + Y @ p.U.T, Y, p)
    return _log_pl(sign, pre)


def cond_objective(X, Y):
    """The per-epoch objective of a label conditional p(y|x) on the rows
    of the features X and 0/1 labels Y, as a function of DrbmParams
    returning (name, value): the mean exact conditional log-likelihood
    over the first PROBE_ROWS rows when 2^C * n * rows <=
    EXACT_OBJECTIVE_CELLS, else their mean log pseudo-likelihood.

    Rows go through in chunks of about 2^13 cells (at least one row), so
    that each temporary array stays near 64 KB: larger ones raised the
    peak resident memory of a 200-item training run by 1.6 MB.
    """
    X = np.asarray(X, dtype=float)[:PROBE_ROWS]
    Y = np.asarray(Y, dtype=float)[:PROBE_ROWS]

    def objective(p):
        if 2 ** p.C * p.n * len(X) <= EXACT_OBJECTIVE_CELLS:
            name, per_row, cells = ("log_likelihood", exact_log_cond_probs,
                                    2 ** p.C * p.n)
        else:
            name, per_row, cells = ("log_pseudo_likelihood", log_pl_rows,
                                    p.n * p.C)
        rows = max(1, 2 ** 13 // cells)
        total = sum(np.sum(per_row(X[s:s + rows], Y[s:s + rows], p))
                    for s in range(0, len(X), rows))
        return name, float(total / len(X))
    return objective


class GaussianRbmParams(DrbmParams):
    """Joint model over (y, x, h) with unit-variance Gaussian features;
    its label conditional p(y, h | x) is the DrbmParams it extends, and
    bx are its feature biases."""
    KIND = "grbm"
    SHAPES = {**DrbmParams.SHAPES, "bx": ("D",)}


@dataclass
class GaussianGradient(Gradient):
    dbx: np.ndarray


def generative_cd_gradient(example: LabeledExample, p: GaussianRbmParams,
                           K: int, rng) -> GaussianGradient:
    """CD-K for the joint objective: block Gibbs over (h, y, x) with the
    feature vector reconstructed at its conditional Gaussian mean.  Its
    logistic noise is drawn once, as core.cd_chain draws it: row k's
    first n entries sample h and its last C sample y."""
    if K < 1:
        raise ValueError("K must be >= 1")
    x0, y0 = example.x, example.y
    z = p.c + p.W @ x0 + p.U @ y0  # the hidden input
    h0 = sigm(z)
    for noise in rng.logistic(size=(K, p.n + p.C)):
        h = (noise[:p.n] < z).astype(float)
        y = (noise[p.n:] < p.d + p.U.T @ h).astype(float)
        x = p.bx + p.W.T @ h
        z = p.c + p.W @ x + p.U @ y
    hK = sigm(z)
    return GaussianGradient(
        dU=h0[:, None] * y0 - hK[:, None] * y,
        dW=h0[:, None] * x0 - hK[:, None] * x,
        dc=h0 - hK,
        dd=y0 - y,
        dbx=x0 - x,
    )


def _estimate(example, p, cfg: TrainConfig, rng) -> Gradient:
    """Dispatch one gradient estimate."""
    if cfg.estimator == "cd":
        return cd_gradient(example, p, cfg.k, rng)
    if cfg.estimator == "mfcd":
        return mfcd_gradient(example, p, cfg.k)
    if cfg.estimator == "lbp":
        return lbp_gradient(example, p, cfg.k, cfg.beta)
    return _pl_ascent(example, p)[0]


def sgd(p0, n_examples: int, step, cfg: TrainConfig, record_file=None,
        objective=None, estimator=None):
    """Per-example stochastic training of a copy of p0, for every model kind.

    Each of cfg.epochs epochs calls step(p, i, rng) for the examples in a
    permutation drawn from default_rng(cfg.seed); step updates p in place.
    Each epoch ends with a divergence check: unless every parameter entry
    is finite and at most DIVERGENCE_LIMIT in magnitude, it writes a last
    record (kind, estimator, epoch, "diverged": true), given a record
    file, and raises DivergenceError.  Given a record file, it then
    evaluates objective(p) -> (name, value), if there is an objective, and
    writes a JSON record (kind p.KIND, estimator, epoch, objective, value,
    seconds, max_abs_param, update_norm); seconds covers the training
    pass alone, max_abs_param is the largest |entry| over all parameter
    arrays and update_norm the L2 norm of the epoch's change to all of them.
    """
    if n_examples == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    p = p0.copy()

    def record(epoch, **fields):
        record_file.write(json.dumps({"kind": p.KIND, "estimator": estimator,
                                      "epoch": epoch, **fields}) + "\n")

    for epoch in range(cfg.epochs):
        if record_file is not None:
            before = [a.copy() for a in p.arrays().values()]
        t0 = time.perf_counter()
        for i in rng.permutation(n_examples):
            step(p, i, rng)
        seconds = time.perf_counter() - t0
        if not all(np.all(np.abs(a) <= DIVERGENCE_LIMIT)  # NaN fails too
                   for a in p.arrays().values()):
            if record_file is not None:
                record(epoch, diverged=True)
            raise DivergenceError(f"parameters diverged at epoch {epoch}")
        if record_file is None:
            continue
        name, value = objective(p) if objective else (None, None)
        after = p.arrays().values()
        sq = sum(np.sum((a - b) ** 2) for a, b in zip(after, before))
        record(epoch, objective=name, value=value, seconds=round(seconds, 6),
               max_abs_param=max(float(np.max(np.abs(a), initial=0.0))
                                 for a in after),
               update_norm=float(np.sqrt(sq)))
    return p


def check_rows(X, Y, p0):
    """A trainer's (N, D) features X and (N, C) labels or targets Y, for
    the model p0, as float arrays, checked once: as many rows in each,
    the model's D and C as their widths, finite features."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if len(X) != len(Y):
        raise ValueError(f"{len(X)} feature rows but {len(Y)} label rows")
    if X.shape != (len(X), p0.D):
        raise ValueError(f"features must be N x {p0.D}, got shape {X.shape}")
    if Y.shape != (len(Y), p0.C):
        raise ValueError(f"labels must be N x {p0.C}, got shape {Y.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature entry")
    return X, Y


def row_step(gradient, lr):
    """The `sgd` step of every row trainer: it adds lr times each array
    of gradient(p, i, rng), an ascent direction whose arrays come in
    p's SHAPES order (a Gradient, or a tuple), to that array of p."""
    def step(p, i, rng):
        for name, g in zip(p.SHAPES, gradient(p, i, rng)):
            a = getattr(p, name)
            a += lr * g
    return step


def _sgd_rows(X, Y, p0, cfg: TrainConfig, gradient, estimator, record_file):
    """`sgd` by the `row_step` of gradient(LabeledExample(X[i], Y[i]), p,
    cfg, rng) over the (N, D) features X and (N, C) 0/1 labels Y, checked
    once as a block, with ``cond_objective``'s objective."""
    X, Y = check_rows(X, Y, p0)
    if not np.all((Y == 0) | (Y == 1)):
        raise ValueError("labels must be 0/1")
    step = row_step(lambda p, i, rng:
                    gradient(LabeledExample(X[i], Y[i]), p, cfg, rng), cfg.lr)
    return sgd(p0, len(X), step, cfg, record_file, cond_objective(X, Y),
               estimator)


def sgd_train(X, Y, p0: DrbmParams, cfg: TrainConfig,
              record_file=None) -> DrbmParams:
    """Per-example stochastic ascent on cfg.estimator's surrogate
    objective (`_sgd_rows`): deterministic given cfg.seed (exactly for
    pl/mfcd, given the rng stream for cd)."""
    return _sgd_rows(X, Y, p0, cfg, _estimate, cfg.estimator, record_file)


def sgd_train_generative(X, Y, p0: GaussianRbmParams, cfg: TrainConfig,
                         record_file=None) -> GaussianRbmParams:
    """Same training for the joint Gaussian-input model (CD only); the
    recorded objective is that of its label conditional."""
    return _sgd_rows(X, Y, p0, cfg, lambda ex, p, cfg, rng:
                     generative_cd_gradient(ex, p, cfg.k, rng), "cd",
                     record_file)
