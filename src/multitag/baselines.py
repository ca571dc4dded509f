"""Comparison classifiers: a one-hidden-layer perceptron and per-tag
logistic regression.  Their gradients ascend minus the cross-entropy, by
``estimators.row_step`` per example.  Targets may be soft (smoothed)
values in [0, 1]; unknown-state cells are masked out of the loss.
"""

from __future__ import annotations

import numpy as np

from .core import Params, sigm
from .estimators import PROBE_ROWS, TrainConfig, check_rows, row_step, sgd

# validation-selected defaults: 250 hidden units / lr 0.001 for the MLP,
# lr 2.0 for logistic regression
MLP_DEFAULT_HIDDEN = 250
MLP_DEFAULT_LR = 0.001
LOGREG_DEFAULT_LR = 2.0


class MlpParams(Params):
    KIND = "mlp"
    SHAPES = {"W1": ("D", "H"), "b1": ("H",), "W2": ("H", "C"), "b2": ("C",)}


class LogRegParams(Params):
    KIND = "logreg"
    SHAPES = {"W": ("D", "C"), "b": ("C",)}


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


def cross_entropy(probs, targets, mask) -> float:
    """Masked multi-label cross-entropy; safe at saturated probabilities
    when computed from logits upstream, here clipped for generality."""
    probs = np.clip(np.asarray(probs, dtype=float), 1e-12, 1 - 1e-12)
    targets = np.asarray(targets, dtype=float)
    terms = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
    return float(np.sum(terms * mask))


def _sgd_cross_entropy(X, targets, mask, p0, cfg, record_file, grads,
                       predict):
    """Per-example SGD on masked cross-entropy over a block checked once:
    `check_rows`, targets in [0, 1], and a mask (all ones when None) of
    the targets' shape, by the `row_step` of grads(x, t, mask, p).  The
    per-epoch objective is the mean masked cross-entropy of predict(X, p)
    per row over the first PROBE_ROWS rows."""
    X, targets = check_rows(X, targets, p0)
    if not np.all((targets >= 0) & (targets <= 1)):
        raise ValueError("targets must lie in [0, 1]")
    mask = np.ones_like(targets) if mask is None else np.asarray(mask, float)
    if mask.shape != targets.shape:
        raise ValueError(f"mask must have the targets' shape "
                         f"{targets.shape}, got {mask.shape}")

    step = row_step(lambda p, i, rng: grads(X[i], targets[i], mask[i], p),
                    cfg.lr)
    Xp, tp, mp = X[:PROBE_ROWS], targets[:PROBE_ROWS], mask[:PROBE_ROWS]
    return sgd(p0, len(X), step, cfg, record_file, lambda p: (
        "cross_entropy", cross_entropy(predict(Xp, p), tp, mp) / len(Xp)))


def _mlp_grads(x, t, mask, p: MlpParams):
    h = sigm(p.b1 + x @ p.W1)
    o = sigm(p.b2 + h @ p.W2)
    dpre_o = (t - o) * mask
    dh = p.W2 @ dpre_o
    dpre_h = dh * h * (1 - h)
    return (x[:, None] * dpre_h, dpre_h, h[:, None] * dpre_o, dpre_o)


def _logreg_grads(x, t, mask, p: LogRegParams):
    dpre = (t - sigm(p.b + x @ p.W)) * mask
    return x[:, None] * dpre, dpre


def mlp_train(X, targets, mask, cfg: TrainConfig, p0: MlpParams,
              record_file=None) -> MlpParams:
    """Seeded per-example SGD on cross-entropy; targets in [0, 1]."""
    return _sgd_cross_entropy(X, targets, mask, p0, cfg, record_file,
                              _mlp_grads, mlp_predict)


def logreg_train(X, targets, mask, cfg: TrainConfig,
                 record_file=None) -> LogRegParams:
    """Per-tag independent sigmoid regression by per-example SGD from
    all-zero weights, sized by the last axes of X and targets."""
    p0 = LogRegParams.zeros(np.shape(X)[-1], np.shape(targets)[-1])
    return _sgd_cross_entropy(X, targets, mask, p0, cfg, record_file,
                              _logreg_grads, logreg_predict)
