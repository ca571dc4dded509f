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

import time
from dataclasses import dataclass

import numpy as np

from .core import (DrbmParams, Gradient, LabeledExample, cd_chain,
                   cond_free_energy, log1pexp, mean_field, p_hidden_given,
                   sample_bernoulli, sigm)
from .inference import lbp_marginals, mf_predict

ESTIMATORS = ("cd", "mfcd", "lbp", "pl")
DIVERGENCE_LIMIT = 1e6


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
    h0, hK, yK = cd_chain(p.c + p.W @ x, p.d, p.U, y0, K, rng)
    return _phase_difference(h0, y0, hK, yK, x)


def mfcd_gradient(example: LabeledExample, p: DrbmParams, K: int) -> Gradient:
    """Deterministic CD variant: samples replaced by conditional
    expectations, initialized at the training label."""
    x, y0 = example.x, example.y
    act = p.c + p.W @ x
    yK = mean_field(act, p.d, p.U, y0, K, tol=0.0)
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


@dataclass
class GaussianRbmParams:
    """Joint model over (y, x, h) with unit-variance Gaussian features."""
    U: np.ndarray   # n x C
    W: np.ndarray   # n x D
    c: np.ndarray   # n
    d: np.ndarray   # C
    bx: np.ndarray  # D, feature biases

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        self.bx = np.asarray(self.bx, dtype=float)
        if self.bx.shape != (self.W.shape[1],):
            raise ValueError("bx must have length D")

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def C(self):
        return self.U.shape[1]

    @property
    def D(self):
        return self.W.shape[1]

    def copy(self) -> "GaussianRbmParams":
        return GaussianRbmParams(self.U.copy(), self.W.copy(), self.c.copy(),
                                 self.d.copy(), self.bx.copy())

    def drbm_view(self) -> DrbmParams:
        """The conditional p(y, h | x) of this joint model, for test-time
        label inference."""
        return DrbmParams(self.U.copy(), self.W.copy(), self.c.copy(), self.d.copy())

    @classmethod
    def random_init(cls, n, C, D, rng, scale=0.01):
        return cls(rng.uniform(-scale, scale, (n, C)),
                   rng.uniform(-scale, scale, (n, D)),
                   np.zeros(n), np.zeros(C), np.zeros(D))


@dataclass
class GaussianGradient:
    dU: np.ndarray
    dW: np.ndarray
    dc: np.ndarray
    dd: np.ndarray
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


def _estimate(example, p, cfg: TrainConfig, rng):
    """Dispatch one gradient estimate; returns (Gradient, objective proxy
    or None)."""
    if cfg.estimator == "cd":
        return cd_gradient(example, p, cfg.k, rng), None
    if cfg.estimator == "mfcd":
        return mfcd_gradient(example, p, cfg.k), None
    if cfg.estimator == "lbp":
        return lbp_gradient(example, p, cfg.k, cfg.beta), None
    grad, log_pl = pl_gradient(example, p)
    return grad, log_pl


def check_divergence(p, epoch):
    """Raise DivergenceError unless every entry of every array field of
    the parameter object p is finite and at most DIVERGENCE_LIMIT in
    magnitude (NaN fails the comparison)."""
    for a in vars(p).values():
        if isinstance(a, np.ndarray) and not np.all(np.abs(a) <= DIVERGENCE_LIMIT):
            raise DivergenceError(f"parameters diverged at epoch {epoch}")


def sgd(p0, n_examples: int, step, epochs: int, seed: int, log_file=None):
    """Per-example stochastic training of a copy of p0, for every model kind.

    Each epoch calls step(p, i, rng) for the examples in a permutation
    drawn from default_rng(seed); step updates p in place and returns the
    example's objective value or None.  Each epoch ends with a divergence
    check and, given a log file, an ``epoch N [objective X ]time Ts`` line.
    """
    if n_examples == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    p = p0.copy()
    for epoch in range(epochs):
        t0 = time.time()
        values = [step(p, i, rng) for i in rng.permutation(n_examples)]
        check_divergence(p, epoch)
        if log_file is not None:
            objective = ("" if values[0] is None
                         else f"objective {np.mean(values):.6f} ")
            log_file.write(f"epoch {epoch} {objective}"
                           f"time {time.time() - t0:.3f}s\n")
    return p


def sgd_train(dataset, p0: DrbmParams, cfg: TrainConfig,
              log_file=None) -> DrbmParams:
    """Per-example stochastic ascent on the chosen surrogate objective.

    Visits the examples in a seeded shuffled order each epoch;
    deterministic given cfg.seed (exactly for pl/mfcd, given the rng
    stream for cd).
    """
    dataset = list(dataset)

    def step(p, i, rng):
        ex = dataset[i]
        grad, proxy = _estimate(ex, p, cfg, rng)
        if proxy is None:
            # reconstruction-phase energy gap as the objective proxy
            y_hat = np.round(mf_predict(ex.x, p, cfg.k))
            proxy = (cond_free_energy(y_hat, ex.x, p)
                     - cond_free_energy(ex.y, ex.x, p))
        p.U += cfg.lr * grad.dU
        p.W += cfg.lr * grad.dW
        p.c += cfg.lr * grad.dc
        p.d += cfg.lr * grad.dd
        return proxy

    return sgd(p0, len(dataset), step, cfg.epochs, cfg.seed, log_file)


def sgd_train_generative(dataset, p0: GaussianRbmParams, cfg: TrainConfig,
                         log_file=None) -> GaussianRbmParams:
    """Same driver for the joint Gaussian-input model (CD only)."""
    dataset = list(dataset)

    def step(p, i, rng):
        grad = generative_cd_gradient(dataset[i], p, cfg.k, rng)
        p.U += cfg.lr * grad.dU
        p.W += cfg.lr * grad.dW
        p.c += cfg.lr * grad.dc
        p.d += cfg.lr * grad.dd
        p.bx += cfg.lr * grad.dbx
        return float(np.linalg.norm(grad.dbx))

    return sgd(p0, len(dataset), step, cfg.epochs, cfg.seed, log_file)
