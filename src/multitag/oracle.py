"""Brute-force ground truth for small models: exact partition function,
conditional label distribution, marginals, and the exact conditional
log-likelihood gradient.

Primary path enumerates the 2^C label vectors with hidden units
marginalized analytically; a slower joint (y,h) enumeration is kept as a
secondary cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import (DrbmParams, Gradient, LabeledExample, Params,
                   cond_free_energy, energy, log1pexp, sigm)

ENUM_BITS = 20  # ~10^6 terms keeps a full enumeration under a second
FD_STEP = 1e-5  # finite_diff's step


class CapacityError(ValueError):
    """Raised when an instance is too large to enumerate."""


@dataclass
class Marginals:
    y_marg: np.ndarray     # C,  p(y_j=1|x)
    h_marg: np.ndarray     # n,  p(h_k=1|x)
    pair_marg: np.ndarray  # n x C,  p(y_j=1, h_k=1|x)


def all_bit_vectors(C: int) -> np.ndarray:
    """All 2^C binary vectors of length C as a (2^C, C) float array."""
    if C > ENUM_BITS:
        raise CapacityError(f"enumeration over {C} bits exceeds the {ENUM_BITS}-bit bound")
    cols = [(np.arange(2 ** C) >> j) & 1 for j in range(C)]
    return np.stack(cols, axis=1).astype(float)


def _label_table(X, p: DrbmParams):
    """For every row of the (b, D) features X: the 2^C label vectors A,
    the hidden inputs c + Wx (b x n), the (b, 2^C) block of -F(a|x) and
    log Z(x), log-sum-exp stable, all rows enumerated at once."""
    A = all_bit_vectors(p.C)
    act = p.c + X @ p.W.T                                          # b x n
    neg_F = A @ p.d + np.sum(log1pexp(act[:, None, :] + A @ p.U.T), axis=2)
    m = np.max(neg_F, axis=1)
    log_Z = m + np.log(np.sum(np.exp(neg_F - m[:, None]), axis=1))
    return A, act, neg_F, log_Z


def exact_log_partition(x, p: DrbmParams) -> float:
    """log sum_y e^{-F(y|x)}."""
    *_, log_Z = _label_table(np.asarray(x, dtype=float)[None], p)
    return float(log_Z[0])


def exact_cond_prob(y, x, p: DrbmParams) -> float:
    """p(y|x) = e^{-F(y|x) - log Z(x)}."""
    return float(np.exp(-cond_free_energy(y, x, p) - exact_log_partition(x, p)))


def exact_log_cond_probs(X, Y, p: DrbmParams) -> np.ndarray:
    """log p(y_b|x_b) for every row of the (b, D) features X and (b, C)
    labels Y."""
    _, act, _, log_Z = _label_table(X, p)
    F = -(Y @ p.d) - np.sum(log1pexp(act + Y @ p.U.T), axis=1)
    return -F - log_Z


def exact_marginals(x, p: DrbmParams) -> Marginals:
    """Enumerates the 2^C label vectors (bounded by all_bit_vectors) and
    sums the hidden units analytically, so n is not bounded."""
    A, act, neg_F, log_Z = _label_table(np.asarray(x, dtype=float)[None], p)
    w = np.exp(neg_F[0] - log_Z[0])
    H = sigm(act[0] + A @ p.U.T)  # p(h_k=1 | a, x), 2^C x n
    return Marginals(w @ A, w @ H, (H * w[:, None]).T @ A)


def marginal_gradient(example: LabeledExample, p: DrbmParams,
                      m: Marginals) -> Gradient:
    """The exact data term of log p(y|x) minus the model expectation
    that the marginals m give."""
    x, y = example.x, example.y
    h0 = sigm(p.c + p.W @ x + p.U @ y)  # p(h=1 | y, x), unchecked
    dc = h0 - m.h_marg
    return Gradient(dU=h0[:, None] * y - m.pair_marg, dW=dc[:, None] * x,
                    dc=dc, dd=y - m.y_marg)


def exact_grad(example: LabeledExample, p: DrbmParams) -> Gradient:
    """Exact gradient of log p(y_t|x_t): data term minus model expectation."""
    return marginal_gradient(example, p, exact_marginals(example.x, p))


def finite_diff(f, p: Params) -> np.ndarray:
    """Central finite differences of a scalar function of the
    parameters, entry by entry over ``p.arrays()``: one vector in the
    order of ``Gradient.flat()``."""
    fd = []
    for a in p.arrays().values():
        for idx in np.ndindex(a.shape):
            orig = a[idx]
            a[idx] = orig + FD_STEP
            hi = f(p)
            a[idx] = orig - FD_STEP
            fd.append((hi - f(p)) / (2 * FD_STEP))
            a[idx] = orig
    return np.array(fd)


def log_pl_reference(example: LabeledExample, p: DrbmParams) -> float:
    """Pseudo-likelihood computed purely from free energies:
    sum_j [-F(y|x) - log(e^{-F(y|x)} + e^{-F(y with bit j flipped|x)})].
    """
    y, x = example.y, example.x
    F = cond_free_energy(y, x, p)
    total = 0.0
    for j in range(p.C):
        y_flip = y.copy()
        y_flip[j] = 1 - y_flip[j]
        Fj = cond_free_energy(y_flip, x, p)
        total += -F - np.logaddexp(-F, -Fj)
    return float(total)


def joint_log_partition(x, p: DrbmParams) -> float:
    """Secondary check: direct 2^{C+n} sum over (y, h)."""
    if p.C + p.n > ENUM_BITS:
        raise CapacityError("joint enumeration exceeds the bit bound")
    terms = []
    for y in product((0.0, 1.0), repeat=p.C):
        for h in product((0.0, 1.0), repeat=p.n):
            terms.append(-energy(np.array(y), np.array(h), x, p))
    terms = np.array(terms)
    m = terms.max()
    return float(m + np.log(np.sum(np.exp(terms - m))))


def joint_marginals(x, p: DrbmParams) -> Marginals:
    """Secondary check: marginals from the full (y, h) table."""
    if p.C + p.n > ENUM_BITS:
        raise CapacityError("joint enumeration exceeds the bit bound")
    y_marg = np.zeros(p.C)
    h_marg = np.zeros(p.n)
    pair = np.zeros((p.n, p.C))
    logZ = joint_log_partition(x, p)
    for y in product((0.0, 1.0), repeat=p.C):
        ya = np.array(y)
        for h in product((0.0, 1.0), repeat=p.n):
            ha = np.array(h)
            w = np.exp(-energy(ya, ha, x, p) - logZ)
            y_marg += w * ya
            h_marg += w * ha
            pair += w * np.outer(ha, ya)
    return Marginals(y_marg, h_marg, pair)
