"""Energy function, free energy, and exact conditionals of the
label/hidden bilinear model, the CD chain and mean-field loop that every
model kind runs through, plus shared numeric primitives.

Parameter layout: U couples hidden units to labels (n x C), W couples
hidden units to features (n x D), c are hidden biases (n,), d are label
biases (C,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when an array does not match the model dimensions."""


def sigm(z):
    """Numerically stable logistic function, elementwise.

    Safe for |z| up to at least the float64 exponent range; saturates
    cleanly instead of overflowing.
    """
    z = np.asarray(z, dtype=float)
    out = 0.5 * (1.0 + np.tanh(0.5 * z))
    if out.ndim == 0:
        return float(out)
    return out


def log1pexp(z):
    """log(1 + e^z) without overflow: z + log1p(e^-z) for z > 0."""
    z = np.asarray(z, dtype=float)
    out = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass
class DrbmParams:
    U: np.ndarray  # n x C
    W: np.ndarray  # n x D
    c: np.ndarray  # n
    d: np.ndarray  # C

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        n, C = self.U.shape
        if self.W.ndim != 2 or self.W.shape[0] != n:
            raise ShapeError("W must be n x D with n matching U")
        if self.c.shape != (n,):
            raise ShapeError("c must have length n")
        if self.d.shape != (C,):
            raise ShapeError("d must have length C")
        for a in (self.U, self.W, self.c, self.d):
            if not np.all(np.isfinite(a)):
                raise ValueError("non-finite parameter entry")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def C(self) -> int:
        return self.U.shape[1]

    @property
    def D(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "DrbmParams":
        return DrbmParams(self.U.copy(), self.W.copy(), self.c.copy(), self.d.copy())

    @classmethod
    def zeros(cls, n: int, C: int, D: int) -> "DrbmParams":
        return cls(np.zeros((n, C)), np.zeros((n, D)), np.zeros(n), np.zeros(C))

    @classmethod
    def random_init(cls, n: int, C: int, D: int, rng, scale: float = 0.01) -> "DrbmParams":
        """Small symmetric weight init, zero biases."""
        return cls(
            rng.uniform(-scale, scale, size=(n, C)),
            rng.uniform(-scale, scale, size=(n, D)),
            np.zeros(n),
            np.zeros(C),
        )


@dataclass
class LabeledExample:
    x: np.ndarray  # D
    y: np.ndarray  # C, binary

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite feature entry")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise ValueError("labels must be 0/1")


@dataclass
class Gradient:
    dU: np.ndarray
    dW: np.ndarray
    dc: np.ndarray
    dd: np.ndarray

    def max_abs(self) -> float:
        return max(np.max(np.abs(a), initial=0.0)
                   for a in (self.dU, self.dW, self.dc, self.dd))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.dU.ravel(), self.dW.ravel(), self.dc, self.dd])


def _check_vec(v, length, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise ShapeError(f"{name} must have length {length}, got shape {v.shape}")
    return v


def energy(y, h, x, p: DrbmParams) -> float:
    """E(y,h,x) = -h'Uy - h'Wx - d'y - c'h."""
    y = _check_vec(y, p.C, "y")
    h = _check_vec(h, p.n, "h")
    x = _check_vec(x, p.D, "x")
    return float(-h @ p.U @ y - h @ p.W @ x - p.d @ y - p.c @ h)


def hidden_input(y, x, p: DrbmParams) -> np.ndarray:
    """Total input to the hidden units: c + Wx + Uy."""
    y = _check_vec(y, p.C, "y")
    x = _check_vec(x, p.D, "x")
    return p.c + p.W @ x + p.U @ y


def cond_free_energy(y, x, p: DrbmParams) -> float:
    """F(y|x) = -log sum_h e^{-E(y,h,x)} = -d'y - sum_i log(1+e^{c_i+(Wx)_i+(Uy)_i})."""
    y = _check_vec(y, p.C, "y")
    return float(-p.d @ y - np.sum(log1pexp(hidden_input(y, x, p))))


def p_hidden_given(y, x, p: DrbmParams) -> np.ndarray:
    """p(h_k=1 | y, x) = sigm(c + Wx + Uy), componentwise."""
    return sigm(hidden_input(y, x, p))


def p_label_given(h, p: DrbmParams) -> np.ndarray:
    """p(y_j=1 | h) = sigm(d + U'h), componentwise; h isolates y from x."""
    h = _check_vec(h, p.n, "h")
    return sigm(p.d + p.U.T @ h)


def cd_chain(hid_bias, vis_bias, U, y0, K: int, rng):
    """K block-Gibbs steps h ~ p(h|y), y ~ p(y|h) from y0 in the
    bipartite model with hidden input hid_bias + Uy and visible input
    vis_bias + U'h; uniforms are pre-drawn as a (K, n) then a (K, C)
    block.  Returns (h0, hK, yK), hK the hidden activation at sample yK.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    Ut = np.ascontiguousarray(U.T)
    rh = rng.random((K, U.shape[0]))
    ry = rng.random((K, U.shape[1]))
    y = y0
    for k in range(K):
        h = (rh[k] < sigm(hid_bias + U @ y)).astype(float)
        y = (ry[k] < sigm(vis_bias + Ut @ h)).astype(float)
    return sigm(hid_bias + U @ y0), sigm(hid_bias + U @ y), y


def mean_field(hid_bias, vis_bias, U, y, K: int, tol: float) -> np.ndarray:
    """Mean-field label probabilities of the same bipartite model:
    iterates h = sigm(hid_bias + Uy), y = sigm(vis_bias + U'h) from the
    given y for K steps or until the largest change in y drops below
    ``tol`` (tol=0 always runs K steps)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    for _ in range(K):
        h = sigm(hid_bias + U @ y)
        y_new = sigm(vis_bias + U.T @ h)
        if tol > 0 and np.max(np.abs(y_new - y), initial=0.0) < tol:
            return y_new
        y = y_new
    return y


def sample_bernoulli(probs, rng) -> np.ndarray:
    """Independent Bernoulli draws, one per entry; deterministic given rng state."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    return (rng.random(probs.shape) < probs).astype(float)
