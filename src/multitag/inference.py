"""Test-time marginal estimators: damped loopy belief propagation on the
bipartite label/hidden graph, and zero-initialized mean-field.

Messages live in log space and are normalized so that messages from
zero-valued variables are 0; only messages from one-valued variables are
passed.
"""

from __future__ import annotations

import numpy as np

from .core import (MF_TOL, DrbmParams, ShapeError, _check_vec, log1pexp,
                   mean_field, sigm)
from .oracle import Marginals


class NumericError(RuntimeError):
    """Non-finite message encountered during propagation."""


# Largest max|U| for the expm1 form of ``_coupling``.  Where e^{s*arg}
# overflows (s*arg > log(DBL_MAX) = 709.78) that form drops a term below
# P e^-709.78 < e^(|U| - 709.78).  The term stays under half an ulp of 1
# while |U| <= 709.78 - 53 log 2 = 673.0; at 600 it is under 1e-47.
U_BOUND = 600.0


def _coupling(U: np.ndarray):
    """The message map arg -> log(1 + (e^U - 1) * sigm(arg)) for this U,
    and whether it takes the expm1 form.

    While max|U| <= U_BOUND it is low + log1p(P / (1 + e^{s*arg})) with
    P = e^|U| - 1, s = -sign(U) and low = min(U, 0), from
    1 + (e^U - 1) sigm(a) = e^U (1 + (e^-U - 1) sigm(-a)) for U < 0: six
    ufunc passes, and the log1p argument lies in [0, P], so a finite arg
    maps into [min(U, 0), max(U, 0)] up to rounding.  e^{s*arg} may
    overflow to inf, where the message is low; ``lbp_sweeps`` silences
    that warning.  Beyond the bound it is log1pexp(U + arg) -
    log1pexp(arg), as 1 + (e^U - 1) sigm(a) = (1 + e^{U+a}) / (1 + e^a).
    """
    absU = np.abs(U)
    if not absU.max(initial=0.0) <= U_BOUND:
        return (lambda arg: log1pexp(U + arg) - log1pexp(arg)), False
    P = np.expm1(absU)
    s = -np.sign(U)
    low = np.minimum(U, 0.0)

    def message(arg):
        t = np.multiply(s, arg)
        np.exp(t, out=t)
        t += 1.0
        np.divide(P, t, out=t)
        np.log1p(t, out=t)
        t += low
        return t
    return message, True


def lbp_sweeps(hid_bias, vis_bias, U, K: int, beta: float):
    """K damped sweeps of belief propagation on b rows of the bipartite
    model with hidden input hid_bias + Uy and visible input
    vis_bias + U'h; hid_bias is a (b, n) block.

    Each sweep updates all label-bound messages, then all hidden-bound
    messages (parallel within each type).  A non-finite hid_bias or
    vis_bias raises NumericError at sweep 0.  In the expm1 form that one
    check is enough: every message, damped or not, lies in
    [min(U, 0), max(U, 0)], so every later input is a finite bias plus a
    bounded sum.  In the log1pexp form a non-finite input to either
    update raises NumericError naming its sweep, as do non-finite
    messages toward hidden units after the last sweep.  Returns the
    (b, n, C) messages (down, up): toward labels and toward hidden units.
    """
    _check_sweeps(K, beta)
    _check_finite(hid_bias, 0)
    _check_finite(vis_bias, 0)
    b, n = hid_bias.shape
    ones_n, ones_C = np.ones(n), np.ones(U.shape[1])
    coupling, bounded = _coupling(U)
    down = np.zeros((b, n, U.shape[1]))
    up = np.zeros_like(down)
    with np.errstate(over="ignore"):
        for sweep in range(K):
            # message sums over labels and over hidden units as
            # matrix-vector products, which beat ufunc reductions over
            # these short axes
            arg_down = (hid_bias + up @ ones_C)[:, :, None] - up
            if not bounded:
                _check_finite(arg_down, sweep)
            new_down = coupling(arg_down)
            if beta:
                new_down = beta * down + (1 - beta) * new_down
            arg_up = (vis_bias + ones_n @ new_down)[:, None, :] - new_down
            if not bounded:
                _check_finite(arg_up, sweep)
            new_up = coupling(arg_up)
            if beta:
                new_up = beta * up + (1 - beta) * new_up
            down, up = new_down, new_up
    if not bounded:
        # the next sweep's inputs would carry these; only the log1pexp
        # form can make them non-finite from finite inputs
        _check_finite(up, K - 1)
    return down, up


def _check_sweeps(K: int, beta: float) -> None:
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0, 1)")


def _check_finite(arg: np.ndarray, sweep: int) -> None:
    if not np.isfinite(arg).all():
        raise NumericError(f"non-finite message at sweep {sweep}")


def lbp_marginals(x, p: DrbmParams, K: int, beta: float) -> Marginals:
    """K damped sweeps of belief propagation (``lbp_sweeps`` on one
    row); returns singleton and pairwise marginals given the feature
    vector.  The pairwise normalizer includes the (0,0) configuration's
    unit term."""
    x = _check_vec(x, p.D, "x")
    c_data = p.c + p.W @ x
    down, up = lbp_sweeps(c_data[None, :], p.d, p.U, K, beta)
    down, up = down[0], up[0]

    vis = p.d + down.sum(axis=0)
    hid = c_data + up.sum(axis=1)
    # num01 = d + sum of the other hidden units' messages to label j,
    # num10 the same for hidden unit i; the pair is (1,1) with weight
    # e^{U + num01 + num10}, against 1, e^num01 and e^num10, so
    # p(y_j=1, h_i=1 | x) = 1 / (1 + e^-(U+num10) + e^-(U+num01)
    # + e^-(U+num01+num10)); a term that overflows gives the limit 0
    num01 = vis - down
    num10 = hid[:, None] - up
    with np.errstate(over="ignore"):
        minus01 = -p.U - num01
        denom = 1.0 + np.exp(-p.U - num10) + np.exp(minus01)
        denom += np.exp(minus01 - num10)
    pair = 1.0 / denom
    return Marginals(sigm(vis), sigm(hid), pair)


def lbp_scores(X, p: DrbmParams, K: int, beta: float = 0.0) -> np.ndarray:
    """Belief-propagation label marginals p(y_j=1|x) for every row of the
    (B, D) feature matrix X, as a (B, C) array.

    Rows go through ``lbp_sweeps`` in chunks of 2^15 // (n*C) rows (at
    least one), so each (rows, n, C) message block holds about 2^15
    doubles; larger blocks gain nothing and spill out of cache.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != p.D:
        raise ShapeError(f"X must be B x {p.D}, got shape {X.shape}")
    _check_sweeps(K, beta)
    rows = max(1, 2**15 // (p.n * p.C))
    out = np.empty((X.shape[0], p.C))
    for s in range(0, X.shape[0], rows):
        down, _ = lbp_sweeps(p.c + X[s:s + rows] @ p.W.T, p.d, p.U, K, beta)
        out[s:s + rows] = sigm(p.d + down.sum(axis=1))
    return out


def mf_predict(x, p: DrbmParams, K: int) -> np.ndarray:
    """Mean-field label probabilities from the all-zero start.

    Iterates h = sigm(c + Wx + Uy), y = sigm(d + U'h) for K steps or
    until the largest change drops below MF_TOL.
    """
    x = _check_vec(x, p.D, "x")
    return mean_field((p.c + p.W @ x)[None], p.d, p.U, np.zeros((1, p.C)), K,
                      MF_TOL)[0]
