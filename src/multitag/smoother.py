"""Doubly conditional tag-smoothing model: predicts the tags a user
would apply to a clip from other users' average tags (hidden-side
conditioning) and one-hot user/track/clip identity (visible-side
conditioning).  Its mean-field predictions become soft training targets
for downstream classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import cd_chain, mean_field
from .estimators import TrainConfig, sgd


@dataclass
class SmootherParams:
    U: np.ndarray  # n x C, hidden <-> tags
    W: np.ndarray  # n x C, hidden conditioned on other-users' averages
    V: np.ndarray  # C x A, tags conditioned on the one-hot identity block
    c: np.ndarray  # n
    d: np.ndarray  # C
    aux_sizes: tuple  # (#users, #tracks, #clips), summing to A

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        self.aux_sizes = tuple(int(s) for s in self.aux_sizes)
        n, C = self.U.shape
        if self.W.shape != (n, C):
            raise ValueError("W must match U's shape")
        if self.V.shape[0] != C or self.V.shape[1] != sum(self.aux_sizes):
            raise ValueError("V must be C x sum(aux_sizes)")
        if self.c.shape != (n,) or self.d.shape != (C,):
            raise ValueError("bias length mismatch")

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def C(self):
        return self.U.shape[1]

    @property
    def A(self):
        return self.V.shape[1]

    def copy(self) -> "SmootherParams":
        return SmootherParams(self.U.copy(), self.W.copy(), self.V.copy(),
                              self.c.copy(), self.d.copy(), self.aux_sizes)

    @classmethod
    def random_init(cls, n, C, aux_sizes, rng, scale=0.01):
        A = sum(aux_sizes)
        return cls(rng.uniform(-scale, scale, (n, C)),
                   rng.uniform(-scale, scale, (n, C)),
                   rng.uniform(-scale, scale, (C, A)),
                   np.zeros(n), np.zeros(C), aux_sizes)


@dataclass
class TagEvent:
    user: int
    track: int
    clip: int
    y: np.ndarray  # C, binary


@dataclass
class SmootherGradient:
    dU: np.ndarray
    dW: np.ndarray
    dV: np.ndarray
    dc: np.ndarray
    dd: np.ndarray


def build_aux(user, track, clip, aux_sizes) -> np.ndarray:
    """One-hot blocks for user, track, clip; None leaves a block all
    zero (unknown-user prediction)."""
    a = np.zeros(sum(aux_sizes))
    offset = 0
    for idx, size in zip((user, track, clip), aux_sizes):
        if idx is not None:
            if not (0 <= idx < size):
                raise IndexError(f"id {idx} out of range for block of size {size}")
            a[offset + idx] = 1.0
        offset += size
    return a


def events_by_clip(events) -> dict:
    """clip id -> that clip's events, in their original order."""
    by_clip = {}
    for e in events:
        by_clip.setdefault(e.clip, []).append(e)
    return by_clip


def other_users_avg(events, excluded_user) -> np.ndarray:
    """Componentwise mean tag vector over a clip's events, excluding one
    user; zero vector when nobody else tagged the clip."""
    vecs = [e.y for e in events if e.user != excluded_user]
    if not vecs:
        ref = events[0].y if events else None
        if ref is None:
            raise ValueError("no events and no excluded user to infer C from")
        return np.zeros_like(np.asarray(ref, dtype=float))
    return np.mean(np.asarray(vecs, dtype=float), axis=0)


def smoother_cd_gradient(event: TagEvent, u, a, p: SmootherParams, K: int,
                         rng, l1: float = 0.0) -> SmootherGradient:
    """Conditional CD-K with hidden input c + Wu + Uy and visible input
    d + Va + U'h; the l1 subgradient shrinks only the conditioning
    weights V and W."""
    u = np.asarray(u, dtype=float)
    a = np.asarray(a, dtype=float)
    y0 = np.asarray(event.y, dtype=float)
    h0, hK, y = cd_chain(p.c + p.W @ u, p.d + p.V @ a, p.U, y0, K, rng)
    dV = np.outer(y0 - y, a)
    dW = np.outer(h0 - hK, u)
    if l1 > 0:
        dV = dV - l1 * np.sign(p.V)
        dW = dW - l1 * np.sign(p.W)
    return SmootherGradient(
        dU=np.outer(h0, y0) - np.outer(hK, y),
        dW=dW,
        dV=dV,
        dc=h0 - hK,
        dd=y0 - y,
    )


def _clip_step(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """l1 steps never push a weight through zero; sign flips land at 0."""
    flipped = (old != 0) & (np.sign(new) == -np.sign(old))
    return np.where(flipped, 0.0, new)


def train_smoother(events, p0: SmootherParams, cfg: TrainConfig,
                   log_file=None) -> SmootherParams:
    """Per-event stochastic CD training of the smoother; the l1 penalty
    on V and W uses subgradient steps clipped through zero."""
    events = list(events)
    by_clip = events_by_clip(events)

    def step(p, i, rng):
        e = events[i]
        u = other_users_avg(by_clip[e.clip], e.user)
        a = build_aux(e.user, e.track, e.clip, p.aux_sizes)
        g = smoother_cd_gradient(e, u, a, p, cfg.k, rng, cfg.l1)
        p.U += cfg.lr * g.dU
        p.c += cfg.lr * g.dc
        p.d += cfg.lr * g.dd
        p.W = _clip_step(p.W, p.W + cfg.lr * g.dW)
        p.V = _clip_step(p.V, p.V + cfg.lr * g.dV)

    return sgd(p0, len(events), step, cfg.epochs, cfg.seed, log_file)


def smooth_tags(clip, track, p: SmootherParams, events, tol: float = 1e-8,
                max_iter: int = 500) -> np.ndarray:
    """Predicted tag probabilities for a new (unknown) user on a known
    clip: u averages all users of the clip, the user identity block is
    zeroed, and mean-field runs from y* = u to convergence.  Pass the
    clip's own events (events_by_clip) to avoid scanning all of them."""
    clip_events = [e for e in events if e.clip == clip]
    if not clip_events:
        raise KeyError(f"unknown clip {clip!r}")
    u = np.mean(np.asarray([e.y for e in clip_events], dtype=float), axis=0)
    a = build_aux(None, track, clip, p.aux_sizes)
    return mean_field(p.c + p.W @ u, p.d + p.V @ a, p.U, u, max_iter, tol)


def smoothed_dataset(matrix, smoothed_rows: dict) -> np.ndarray:
    """Training targets: each item row becomes its smoothed probability
    vector; items without a smoothing output fall back to the hard
    positive/not-positive binarization.  Test folds should never be fed
    through this (evaluation stays on the raw labels)."""
    from .data import POSITIVE

    targets = np.zeros((len(matrix.items), matrix.C))
    for i, item in enumerate(matrix.items):
        if item in smoothed_rows:
            row = np.asarray(smoothed_rows[item], dtype=float)
            if np.any(row < 0) or np.any(row > 1):
                raise ValueError("smoothed targets must lie in [0, 1]")
            targets[i] = row
        else:
            targets[i] = (matrix.cells[i] == POSITIVE).astype(float)
    return targets
