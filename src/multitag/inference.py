"""Test-time marginal estimators: damped loopy belief propagation on the
bipartite label/hidden graph, and zero-initialized mean-field.

Messages live in log space and are normalized so that messages from
zero-valued variables are 0; only messages from one-valued variables are
passed.
"""

from __future__ import annotations

import numpy as np

from .core import DrbmParams, _check_vec, log1pexp, mean_field, sigm
from .oracle import Marginals


class NumericError(RuntimeError):
    """Non-finite message encountered during propagation."""


def _coupling_log(U: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """log(1 + (e^U - 1) * sigm(arg)), stable for large |U| and |arg|.

    Equals logaddexp(log(1 - s), U + log(s)) with s = sigm(arg).
    """
    return np.logaddexp(-log1pexp(arg), U - log1pexp(-arg))


def lbp_marginals(x, p: DrbmParams, K: int, beta: float,
                  tol: float = 0.0,
                  printed_pair_normalizer: bool = False) -> Marginals:
    """K damped sweeps of belief propagation; returns singleton and
    pairwise marginals given the feature vector.

    Each sweep updates all label-bound messages, then all hidden-bound
    messages (parallel within each type).  The pairwise normalizer
    includes the (0,0) configuration's unit term; pass
    ``printed_pair_normalizer=True`` to drop it (debug negative control,
    breaks the independence identity when U=0).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1)")
    x = _check_vec(x, p.D, "x")
    c_data = p.c + p.W @ x
    down = np.zeros((p.n, p.C))  # toward labels
    up = np.zeros((p.n, p.C))    # toward hidden units
    for sweep in range(K):
        arg_down = c_data[:, None] + up.sum(axis=1, keepdims=True) - up
        new_down = beta * down + (1 - beta) * _coupling_log(p.U, arg_down)
        arg_up = p.d[None, :] + new_down.sum(axis=0, keepdims=True) - new_down
        new_up = beta * up + (1 - beta) * _coupling_log(p.U, arg_up)
        if not (np.all(np.isfinite(new_down)) and np.all(np.isfinite(new_up))):
            raise NumericError(f"non-finite message at sweep {sweep}")
        delta = max(np.max(np.abs(new_down - down), initial=0.0),
                    np.max(np.abs(new_up - up), initial=0.0))
        down, up = new_down, new_up
        if tol > 0 and delta < tol:
            break

    y_marg = sigm(p.d + down.sum(axis=0))
    h_marg = sigm(c_data + up.sum(axis=1))

    num01 = p.d[None, :] + down.sum(axis=0, keepdims=True) - down
    num10 = c_data[:, None] + up.sum(axis=1, keepdims=True) - up
    num11 = p.U + num01 + num10
    stacked = [num11, num01, num10]
    if not printed_pair_normalizer:
        stacked.append(np.zeros_like(num11))
    stacked = np.stack(stacked)
    m = stacked.max(axis=0)
    lse = m + np.log(np.sum(np.exp(stacked - m), axis=0))
    pair = np.exp(num11 - lse)
    return Marginals(y_marg, h_marg, pair)


def mf_predict(x, p: DrbmParams, K: int, tol: float = 1e-8) -> np.ndarray:
    """Mean-field label probabilities from the all-zero start.

    Iterates h = sigm(c + Wx + Uy), y = sigm(d + U'h) for K steps or
    until the largest change drops below ``tol``.
    """
    x = _check_vec(x, p.D, "x")
    return mean_field(p.c + p.W @ x, p.d, p.U, np.zeros(p.C), K, tol)


def predict_scores(x, p: DrbmParams, method: str, K: int = 10,
                   beta: float = 0.0) -> np.ndarray:
    """Per-tag ranking scores p(y_j=1|x); method is 'lbp' or 'mf'."""
    if method == "lbp":
        return lbp_marginals(x, p, K, beta).y_marg
    if method == "mf":
        return mf_predict(x, p, K)
    raise ValueError(f"unknown inference method {method!r}")
