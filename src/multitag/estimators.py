"""Gradient estimators for conditional training (contrastive divergence,
mean-field CD, belief-propagation marginals, pseudo-likelihood), the
generative Gaussian-input update, and the per-example stochastic
gradient training driver.

All estimators return the ascent direction of the conditional
log-likelihood (or its surrogate), so a training step is
theta <- theta + lr * gradient.  The pseudocode convention
theta <- theta - lr * (dE_pos - dE_neg) is the same thing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .core import (DrbmParams, Gradient, LabeledExample, cd_chain, log1pexp,
                   mean_field, p_hidden_given, sample_bernoulli, sigm)
from .inference import lbp_marginals
from .oracle import exact_log_cond_probs

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
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("beta must lie in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def _phase_difference(h0, y0, hK, yK, x) -> Gradient:
    return Gradient(
        dU=np.outer(h0, y0) - np.outer(hK, yK),
        dW=np.outer(h0 - hK, x),
        dc=h0 - hK,
        dd=y0 - yK,
    )


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
    m = lbp_marginals(example.x, p, K, beta)
    h0 = p_hidden_given(example.y, example.x, p)
    return Gradient(
        dU=np.outer(h0, example.y) - m.pair_marg,
        dW=np.outer(h0 - m.h_marg, example.x),
        dc=h0 - m.h_marg,
        dd=example.y - m.y_marg,
    )


def pl_gradient(example: LabeledExample, p: DrbmParams):
    """Exact gradient of the pseudo-likelihood sum_j log p(y_j | y_\\j, x).

    Returns (gradient, log_pl).
    """
    x, y = example.x, example.y
    c_data = p.c + p.W @ x + p.U @ y
    T0 = c_data[:, None] - p.U * y[None, :]   # n x C, j-th bit removed
    T1 = T0 + p.U                             # j-th bit set
    pre = p.d + np.sum(log1pexp(T1) - log1pexp(T0), axis=0)
    log_pl = float(-np.sum(y * log1pexp(-pre) + (1 - y) * log1pexp(pre)))

    dout = sigm(pre) - y                      # C, descent on -log PL
    S0 = sigm(T0)
    S1 = sigm(T1)
    dU_direct = ((1 - y)[None, :] * S1 + y[None, :] * S0) * dout[None, :]
    dhid = ((S1 - S0) * dout[None, :]).sum(axis=1)  # n
    grad = Gradient(
        dU=-(dU_direct + np.outer(dhid, y)),
        dW=-np.outer(dhid, x),
        dc=-dhid,
        dd=-dout,
    )
    return grad, log_pl


def log_pl_rows(X, Y, p: DrbmParams) -> np.ndarray:
    """The log pseudo-likelihood of ``pl_gradient`` for every row of the
    (b, D) features X and (b, C) labels Y, through (b, n, C) blocks."""
    c_data = p.c + X @ p.W.T + Y @ p.U.T                 # b x n
    T0 = c_data[:, :, None] - p.U * Y[:, None, :]        # j-th bit removed
    T1 = T0 + p.U                                        # j-th bit set
    pre = p.d + np.sum(log1pexp(T1) - log1pexp(T0), axis=1)  # b x C
    return -np.sum(Y * log1pexp(-pre) + (1 - Y) * log1pexp(pre), axis=1)


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


@dataclass
class GaussianRbmParams(DrbmParams):
    """Joint model over (y, x, h) with unit-variance Gaussian features;
    its label conditional p(y, h | x) is the DrbmParams it extends, and
    bx are its feature biases."""
    KIND = "grbm"
    SHAPES = {**DrbmParams.SHAPES, "bx": ("D",)}
    bx: np.ndarray

    @classmethod
    def random_init(cls, n, C, D, rng, scale=0.01):
        p = DrbmParams.random_init(n, C, D, rng, scale)
        return cls(p.U, p.W, p.c, p.d, np.zeros(D))


@dataclass
class GaussianGradient(Gradient):
    dbx: np.ndarray


def generative_cd_gradient(example: LabeledExample, p: GaussianRbmParams,
                           K: int, rng) -> GaussianGradient:
    """CD-K for the joint objective: block Gibbs over (h, y, x) with the
    feature vector reconstructed at its conditional Gaussian mean."""
    if K < 1:
        raise ValueError("K must be >= 1")
    x0, y0 = example.x, example.y
    h0 = sigm(p.c + p.W @ x0 + p.U @ y0)
    x, y = x0, y0
    for _ in range(K):
        h = sample_bernoulli(sigm(p.c + p.W @ x + p.U @ y), rng)
        y = sample_bernoulli(sigm(p.d + p.U.T @ h), rng)
        x = p.bx + p.W.T @ h
    hK = sigm(p.c + p.W @ x + p.U @ y)
    return GaussianGradient(
        dU=np.outer(h0, y0) - np.outer(hK, y),
        dW=np.outer(h0, x0) - np.outer(hK, x),
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
    return pl_gradient(example, p)[0]


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
                record_file.write(json.dumps({
                    "kind": p.KIND, "estimator": estimator, "epoch": epoch,
                    "diverged": True}) + "\n")
            raise DivergenceError(f"parameters diverged at epoch {epoch}")
        if record_file is None:
            continue
        name, value = objective(p) if objective else (None, None)
        after = p.arrays().values()
        sq = sum(np.sum((a - b) ** 2) for a, b in zip(after, before))
        record_file.write(json.dumps({
            "kind": p.KIND, "estimator": estimator, "epoch": epoch,
            "objective": name, "value": value, "seconds": round(seconds, 6),
            "max_abs_param": max(float(np.max(np.abs(a), initial=0.0))
                                 for a in after),
            "update_norm": float(np.sqrt(sq))}) + "\n")
    return p


def sgd_train(X, Y, p0: DrbmParams, cfg: TrainConfig,
              record_file=None) -> DrbmParams:
    """Per-example stochastic ascent on the chosen surrogate objective,
    over the rows of the (N, D) features X and the (N, C) 0/1 labels Y.

    Visits the rows in a seeded shuffled order each epoch;
    deterministic given cfg.seed (exactly for pl/mfcd, given the rng
    stream for cd).  The recorded objective is ``cond_objective``'s.
    """
    dataset = [LabeledExample(x, y) for x, y in zip(X, Y, strict=True)]

    def step(p, i, rng):
        grad = _estimate(dataset[i], p, cfg, rng)
        p.U += cfg.lr * grad.dU
        p.W += cfg.lr * grad.dW
        p.c += cfg.lr * grad.dc
        p.d += cfg.lr * grad.dd

    return sgd(p0, len(dataset), step, cfg, record_file,
               cond_objective(X, Y), cfg.estimator)


def sgd_train_generative(X, Y, p0: GaussianRbmParams, cfg: TrainConfig,
                         record_file=None) -> GaussianRbmParams:
    """Same `sgd` training for the joint Gaussian-input model (CD only);
    the recorded objective is that of its label conditional."""
    dataset = [LabeledExample(x, y) for x, y in zip(X, Y, strict=True)]

    def step(p, i, rng):
        grad = generative_cd_gradient(dataset[i], p, cfg.k, rng)
        p.U += cfg.lr * grad.dU
        p.W += cfg.lr * grad.dW
        p.c += cfg.lr * grad.dc
        p.d += cfg.lr * grad.dd
        p.bx += cfg.lr * grad.dbx

    return sgd(p0, len(dataset), step, cfg, record_file,
               cond_objective(X, Y), "cd")
