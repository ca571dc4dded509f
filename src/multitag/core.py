"""Energy function and free energy of the label/hidden bilinear model,
the CD chain and mean-field loop that every model kind runs through
(their half-steps are its exact conditionals), plus shared numeric
primitives.

Parameter layout: U couples hidden units to labels (n x C), W couples
hidden units to features (n x D), c are hidden biases (n,), d are label
biases (C,).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import NamedTuple

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


class Params:
    """Base of every parameter class, which declares its model KIND, in
    SHAPES each array with the names of its dimensions, and in FIELDS
    each other value with the names of the sizes it holds, in order (the
    smoother's aux_sizes are its users, tracks and clips).  From these
    alone: the constructor takes the arrays, then the FIELDS, by position
    or by name, checks every shape against ``dims`` and every entry for
    finiteness, and runs ``_check``; a property per dimension (p.n, p.C,
    ...) reads its size; ``arrays``, ``copy`` and ``random_init`` serve
    every kind, and ``zeros``, which takes no fields, every kind without
    FIELDS."""
    KIND = None
    SHAPES = {}
    FIELDS = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name, axes in cls.SHAPES.items():
            for axis, dim in enumerate(axes):
                if not hasattr(cls, dim):
                    setattr(cls, dim, property(
                        lambda self, name=name, axis=axis:
                        getattr(self, name).shape[axis]))
        cls.__signature__ = inspect.Signature(
            [inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
             for name in (*cls.SHAPES, *cls.FIELDS)])

    def __init__(self, *args, **kwargs):
        # bind raises the TypeError of a missing, repeated or unknown field
        values = self.__signature__.bind(*args, **kwargs).arguments
        for name in self.SHAPES:
            values[name] = np.asarray(values[name], dtype=float)
        vars(self).update(values)
        sizes = self.dims
        for name, axes in self.SHAPES.items():
            shape = values[name].shape
            if shape != tuple(sizes.get(d) for d in axes):
                want = "have length" if len(axes) == 1 else "be"
                known = ", ".join(f"{d}={sizes.get(d)}" for d in axes)
                raise ShapeError(f"{name} must {want} {' x '.join(axes)}, "
                                 f"got shape {shape} with {known}")
        for name in self.SHAPES:
            if not np.all(np.isfinite(values[name])):
                raise ValueError(f"array {name}: non-finite entry")
        self._check()

    def _check(self):
        """The checks a kind adds to the constructor's, if any."""

    @classmethod
    def random_init(cls, *sizes_then_rng, scale=0.01, **fields):
        """Parameters of the given sizes in ``dims`` order, then the rng:
        each matrix drawn uniform in +-scale, in SHAPES order, each vector
        zero.  ``fields`` are the class's other fields."""
        *sizes, rng = sizes_then_rng
        return cls._from_sizes(sizes, lambda s: rng.uniform(-scale, scale, s),
                               fields)

    @classmethod
    def zeros(cls, *sizes):
        """All-zero parameters of the given sizes, in ``dims`` order."""
        return cls._from_sizes(sizes, np.zeros, {})

    @classmethod
    def _from_sizes(cls, sizes, matrix, fields):
        dims = dict.fromkeys(d for axes in cls.SHAPES.values() for d in axes)
        size = dict(zip(dims, sizes, strict=True))
        arrays = {name: (matrix if len(axes) == 2 else np.zeros)(
            tuple(map(size.get, axes))) for name, axes in cls.SHAPES.items()}
        return cls(**arrays, **fields)

    @property
    def dims(self) -> dict:
        """Dimension name -> size, in the order SHAPES first names them."""
        sizes = {}
        for name, axes in self.SHAPES.items():
            for dim, size in zip(axes, getattr(self, name).shape):
                sizes.setdefault(dim, size)
        return sizes

    def arrays(self) -> dict:
        """Field name -> array, in SHAPES order."""
        return {name: getattr(self, name) for name in self.SHAPES}

    def copy(self):
        """The same parameters in new storage.  Not checked again: a
        trainer's copy of parameters gone non-finite must reach its
        divergence check."""
        new = object.__new__(type(self))
        new.__dict__ = {**vars(self),
                        **{k: a.copy() for k, a in self.arrays().items()}}
        return new


class DrbmParams(Params):
    """The bipartite label/hidden model; a model kind with more arrays
    (the Gaussian RBM's feature bias) subclasses it and adds them to
    SHAPES."""
    KIND = "drbm"
    SHAPES = {"U": ("n", "C"), "W": ("n", "D"), "c": ("n",), "d": ("C",)}


class LabeledExample(NamedTuple):
    """One row for a per-example gradient, unchecked: trainers check X, Y."""
    x: np.ndarray  # D
    y: np.ndarray  # C, 0/1


@dataclass
class Gradient:
    """The ascent direction of the four DrbmParams arrays; a model kind
    with more arrays subclasses it with their fields.  It iterates over
    its arrays in field order, the SHAPES order of its parameters."""
    dU: np.ndarray
    dW: np.ndarray
    dc: np.ndarray
    dd: np.ndarray

    def __iter__(self):
        # vars() costs less per call than dataclasses.fields()
        return iter(vars(self).values())

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self])


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


def cond_free_energy(y, x, p: DrbmParams) -> float:
    """F(y|x) = -log sum_h e^{-E(y,h,x)} = -d'y - sum_i log(1+e^{c_i+(Wx)_i+(Uy)_i})."""
    y = _check_vec(y, p.C, "y")
    x = _check_vec(x, p.D, "x")
    return float(-p.d @ y - np.sum(log1pexp(p.c + p.W @ x + p.U @ y)))


def _dot_for(v):
    """The product M v for a row v (m,): np.dot, one gemv; for a block
    (b, m), the stacked M @ v[..., None], one gemv per row, same bits."""
    return np.dot if v.ndim == 1 else lambda M, x: (M @ x[..., None])[..., 0]


def cd_chain(hid_bias, vis_bias, U, y0, K: int, rng):
    """Chains of K block-Gibbs steps h ~ p(h|y), y ~ p(y|h) in the
    bipartite model with hidden input hid_bias + Uy and visible input
    vis_bias + U'h, for one row or a block of b rows: hid_bias is (n,) or
    (b, n), y0 the starting labels, (C,) or (b, C), and vis_bias (C,) or
    a (b, C) block.

    The noise is drawn in one call, rng.logistic(size=(..., K*(n+C)));
    each row's slice is split into its (K, n) then its (K, C) block, and
    the products are ``_dot_for``'s.  So a block call equals b serial
    one-row calls bit for bit and leaves rng in the same state.  Returns
    (h0, hK, yK), each with y0's leading shape, hK the hidden activation
    at the sample yK.

    A unit with input z is on when its logistic noise log(u/(1-u)) lies
    below z: the event u < sigm(z), with no sigmoid inside the loop.
    The one caveat: the two forms round differently, so a sample can
    differ from the u < sigm(z) draw where u lies within rounding of
    sigm(z), about 2^-52 per draw; and Generator.logistic redraws a u of
    exactly 0, at 2^-53 per draw, where rng.random would not.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    n, C = U.shape
    lead = y0.shape[:-1]
    e = rng.logistic(size=lead + (K * (n + C),))
    eh = e[..., :K * n].reshape(lead + (K, n))
    ey = e[..., K * n:].reshape(lead + (K, C))
    dot = _dot_for(y0)
    Ut = np.ascontiguousarray(U.T)
    z = hid_bias + dot(U, y0)  # the hidden input
    h0 = sigm(z)
    for k in range(K):
        h = (eh[..., k, :] < z).astype(float)
        y = (ey[..., k, :] < vis_bias + dot(Ut, h)).astype(float)
        z = hid_bias + dot(U, y)
    return h0, sigm(z), y


# mf_predict and smooth_tags stop once no label probability moves by MF_TOL
MF_TOL = 1e-8


def mean_field(hid_bias, vis_bias, U, y, K: int, tol: float) -> np.ndarray:
    """Mean-field label probabilities of the same bipartite model for one
    row or a block of b rows: iterates h = sigm(hid_bias + Uy),
    y = sigm(vis_bias + U'h) from y, (C,) or (b, C), for K steps, with
    ``_dot_for``'s products; hid_bias is (n,) or (b, n), vis_bias (C,)
    or (b, C).  A row whose largest change drops below ``tol`` keeps its
    new value: a one-row call stops there, and in a block the row leaves
    the active set, so every row ends where its one-row call ends (tol=0
    always runs K steps).  Returns y's shape.

    The loop works on exactly scaled quantities with the bits of the
    plain formula: it carries 2h = 1 + tanh(z/2) and 2y, and U/4 in
    place of U (halving is exact, short of subnormal numbers).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    dot = _dot_for(y)
    U4, hid2, vis2 = 0.25 * U, 0.5 * hid_bias, 0.5 * vis_bias
    s = 2.0 * y  # 2y
    rows = np.arange(len(s))  # a block's rows still iterating
    frozen = []  # (rows, 2y) of the block rows that converged
    for _ in range(K):
        s_old, s = s, 1.0 + np.tanh(
            vis2 + dot(U4.T, 1.0 + np.tanh(hid2 + dot(U4, s))))
        if tol <= 0:
            continue
        done = (np.abs(s - s_old) < 2 * tol).all(axis=-1)
        if not done.any():
            continue
        if done.all():  # a one-row call stops where a block freezes its row
            break
        frozen.append((rows[done], s[done]))
        keep = ~done
        rows, hid2, s = rows[keep], hid2[keep], s[keep]
        if vis2.ndim == 2:
            vis2 = vis2[keep]
    if frozen:
        out = np.empty((len(hid_bias),) + s.shape[1:])
        out[rows] = s
        for r, v in frozen:
            out[r] = v
        s = out
    return 0.5 * s
