"""Comparison classifiers: a one-hidden-layer perceptron and per-tag
logistic regression, both trained by per-example gradient descent on
cross-entropy.  Targets may be soft (smoothed) values in [0, 1];
unknown-state cells are masked out of the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params, sigm
from .estimators import PROBE_ROWS, TrainConfig, sgd

# validation-selected defaults: 250 hidden units / lr 0.001 for the MLP,
# lr 2.0 for logistic regression
MLP_DEFAULT_HIDDEN = 250
MLP_DEFAULT_LR = 0.001
LOGREG_DEFAULT_LR = 2.0


@dataclass
class MlpParams(Params):
    KIND = "mlp"
    SHAPES = {"W1": ("D", "H"), "b1": ("H",), "W2": ("H", "C"), "b2": ("C",)}
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    @classmethod
    def random_init(cls, D, H, C, rng, scale=0.01):
        return cls(rng.uniform(-scale, scale, (D, H)), np.zeros(H),
                   rng.uniform(-scale, scale, (H, C)), np.zeros(C))


@dataclass
class LogRegParams(Params):
    KIND = "logreg"
    SHAPES = {"W": ("D", "C"), "b": ("C",)}
    W: np.ndarray
    b: np.ndarray

    @classmethod
    def zeros(cls, D, C):
        return cls(np.zeros((D, C)), np.zeros(C))


def _rows(x, D) -> np.ndarray:
    """A (D,) row or (B, D) block as a stack of (1, D) rows: a product
    with it runs one vector-matrix product per row, so row i of a block
    gets the bits of the single-row call (a gemm need not)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != D:
        raise ValueError(f"x must have length {D}, or be a block of such rows")
    return x[..., None, :]


def mlp_predict(x, p: MlpParams) -> np.ndarray:
    """Sigmoid hidden layer, independent sigmoid output per tag, for a
    (D,) row or a (B, D) block."""
    h = sigm(p.b1 + _rows(x, p.D) @ p.W1)
    return sigm(p.b2 + h @ p.W2)[..., 0, :]


def logreg_predict(x, p: LogRegParams) -> np.ndarray:
    """Independent sigmoid per tag, for a (D,) row or a (B, D) block."""
    return sigm(p.b + _rows(x, p.D) @ p.W)[..., 0, :]


def cross_entropy(probs, targets, mask=None) -> float:
    """Masked multi-label cross-entropy; safe at saturated probabilities
    when computed from logits upstream, here clipped for generality."""
    probs = np.clip(np.asarray(probs, dtype=float), 1e-12, 1 - 1e-12)
    targets = np.asarray(targets, dtype=float)
    terms = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
    if mask is not None:
        terms = terms * mask
    return float(np.sum(terms))


def _probe_cross_entropy(X, targets, mask, predict):
    """The per-epoch objective of a baseline: mean masked cross-entropy
    of predict(X, p) over the first PROBE_ROWS rows, as (name, value)."""
    X, targets, mask = X[:PROBE_ROWS], targets[:PROBE_ROWS], mask[:PROBE_ROWS]
    return lambda p: ("cross_entropy",
                      cross_entropy(predict(X, p), targets, mask) / len(X))


def _mlp_grads(x, t, mask, p: MlpParams):
    h = sigm(p.b1 + x @ p.W1)
    o = sigm(p.b2 + h @ p.W2)
    dpre_o = (o - t) * mask
    dh = p.W2 @ dpre_o
    dpre_h = dh * h * (1 - h)
    return (x[:, None] * dpre_h, dpre_h, h[:, None] * dpre_o, dpre_o)


def mlp_train(X, targets, mask, cfg: TrainConfig, p0: MlpParams,
              record_file=None) -> MlpParams:
    """Seeded per-example SGD on cross-entropy; targets in [0, 1]."""
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets, dtype=float)
    mask = np.ones_like(targets) if mask is None else np.asarray(mask, dtype=float)

    def step(p, i, rng):
        dW1, db1, dW2, db2 = _mlp_grads(X[i], targets[i], mask[i], p)
        p.W1 -= cfg.lr * dW1
        p.b1 -= cfg.lr * db1
        p.W2 -= cfg.lr * dW2
        p.b2 -= cfg.lr * db2

    return sgd(p0, X.shape[0], step, cfg, record_file,
               _probe_cross_entropy(X, targets, mask, mlp_predict))


def logreg_train(X, targets, mask, cfg: TrainConfig,
                 p0: LogRegParams | None = None,
                 record_file=None) -> LogRegParams:
    """Per-tag independent sigmoid regression by per-example SGD."""
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets, dtype=float)
    mask = np.ones_like(targets) if mask is None else np.asarray(mask, dtype=float)
    if p0 is None:
        p0 = LogRegParams.zeros(X.shape[1], targets.shape[1])

    def step(p, i, rng):
        dpre = (sigm(p.b + X[i] @ p.W) - targets[i]) * mask[i]
        p.W -= cfg.lr * (X[i][:, None] * dpre)
        p.b -= cfg.lr * dpre

    return sgd(p0, X.shape[0], step, cfg, record_file,
               _probe_cross_entropy(X, targets, mask, logreg_predict))
