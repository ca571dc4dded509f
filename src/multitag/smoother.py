"""Doubly conditional tag-smoothing model: predicts the tags a user
would apply to a clip from other users' average tags (hidden-side
conditioning) and one-hot user/track/clip identity (visible-side
conditioning).  Its mean-field predictions become soft training targets
for downstream classifiers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (MF_TOL, Gradient, Params, ShapeError, cd_chain,
                   mean_field)
from .estimators import TrainConfig, _phase_difference, sgd

# smooth_tags runs mean field for at most SMOOTH_MAX_ITER steps
SMOOTH_MAX_ITER = 500


class SmootherParams(Params):
    """U couples hidden units to tags, W conditions them on other users'
    average tags, V conditions the tags on the one-hot identity block,
    whose (#users, #tracks, #clips) aux_sizes sum to A."""
    KIND = "smoother"
    SHAPES = {"U": ("n", "C"), "W": ("n", "C"), "V": ("C", "A"), "c": ("n",),
              "d": ("C",)}
    FIELDS = {"aux_sizes": ("users", "tracks", "clips")}

    def _check(self):
        self.aux_sizes = tuple(int(s) for s in self.aux_sizes)
        if len(self.aux_sizes) != 3 or sum(self.aux_sizes) != self.A:
            raise ShapeError("aux_sizes must be three block sizes summing "
                             f"to A={self.A}, got {self.aux_sizes}")

    @classmethod
    def random_init(cls, n, C, aux_sizes, rng, scale=0.01):
        return super().random_init(n, C, sum(aux_sizes), rng, scale=scale,
                                   aux_sizes=aux_sizes)


class TagEvent(NamedTuple):
    user: int
    track: int
    clip: int
    y: np.ndarray  # C, binary


class Events(NamedTuple):
    """The smoother's (user, clip) events as arrays: ids holds each
    event's (user, track, clip) ids as an (E, 3) integer block and Y its
    (E, C) labels."""
    ids: np.ndarray
    Y: np.ndarray

    @classmethod
    def from_tag_events(cls, events) -> "Events":
        """The arrays of a sequence of TagEvents, in their order."""
        ids = np.array([e[:3] for e in events], dtype=np.intp).reshape(-1, 3)
        return cls(ids, np.array([e.y for e in events], dtype=float))


def _block_columns(ids, aux_sizes, first=0):
    """Columns of V that the one-hot identity blocks select, for a (b, k)
    block of ids in the k blocks from block ``first`` on (``first=1``
    leaves the user block out, for an unknown user); the first row and
    block with an id out of range raise its IndexError."""
    sizes = np.array(aux_sizes)[first:first + ids.shape[1]]
    bad = np.argwhere((ids < 0) | (ids >= sizes))
    if bad.size:
        r, b = bad[0]
        raise IndexError(f"id {ids[r, b]} out of range for block of size "
                         f"{sizes[b]}")
    return ids + np.cumsum([0, *aux_sizes])[first:first + ids.shape[1]]


def build_aux(user, track, clip, aux_sizes) -> np.ndarray:
    """The dense conditioning vector a: one-hot blocks for user, track,
    clip at ``_block_columns``' columns, so V @ a is the sum of those
    columns of V; user None leaves its block out."""
    ids = [track, clip] if user is None else [user, track, clip]
    a = np.zeros(sum(aux_sizes))
    a[_block_columns(np.array([ids]), aux_sizes, first=3 - len(ids))] = 1.0
    return a


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


def smoother_cd_gradient(y, u, V, p: SmootherParams, K: int,
                         rng) -> Gradient:
    """Conditional CD-K for one event with labels y and other-users
    average u: hidden input c + Wu + Uy and visible input d + Va + U'h.
    The conditioning vector a is one-hot on k columns of p.V, and V is
    the C x k block of their current values, so Va = V.sum(axis=1); each
    of those columns' gradient is dd, and every other column's is zero.
    y and u are not checked: ``train_smoother`` checks its events once."""
    h0, hK, yK = cd_chain((p.c + p.W @ u)[None], p.d + V.sum(axis=1), p.U,
                          y[None], K, rng)
    return _phase_difference(h0[0], y, hK[0], yK[0], u)


def _clip_step(sign_old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """l1 steps never push a weight through zero; sign flips land at 0.
    sign_old is np.sign of the old weights.  A flip is sign_old * new < 0:
    the product is exact, and it is NaN, so no flip, where either factor
    is NaN or a zero meets an infinity."""
    return np.where(sign_old * new < 0, 0.0, new)


def _shrink(v: np.ndarray, amount) -> np.ndarray:
    """Soft threshold sign(v) * max(|v| - amount, 0): in exact arithmetic,
    the clipped l1 steps of total size ``amount`` that a weight with no
    data gradient takes.  NaN stays NaN for the divergence check."""
    out = v - np.sign(v) * amount
    out[np.abs(v) <= amount] = 0.0
    return out


def _clip_sums(clips, Y, n_clips):
    """The label sum of each of n_clips clips, its events added in their
    order (as ``np.mean`` adds a clip's rows), and its event count."""
    sums = np.zeros((n_clips, Y.shape[1]))
    np.add.at(sums, clips, Y)
    return sums, np.bincount(clips, minlength=n_clips)


def _event_inputs(events: Events, p: SmootherParams):
    """The events' (E, C) 0/1 label block, each event's other-users
    average (E x C) and its three columns of V (E x 3), by array ops.
    The average is (S_clip - S_clip,user) / (n_clip - n_clip,user), zero
    where nobody else tagged the clip; the labels must be 0/1, so the
    sums are exact and each average has the bits of ``other_users_avg``.
    """
    ids = np.asarray(events.ids, dtype=np.intp)
    Y = np.asarray(events.Y, dtype=float)
    if ids.shape != (len(ids), 3) or Y.shape != (len(ids), p.C):
        raise ShapeError(f"events must be (E, 3) ids and (E, {p.C}) labels, "
                         f"got {ids.shape} and {Y.shape}")
    cols = _block_columns(ids, p.aux_sizes)
    if not np.all((Y == 0) | (Y == 1)):
        raise ValueError("labels must be 0/1")
    clips = ids[:, 2]
    pairs, pair = np.unique(clips * p.aux_sizes[0] + ids[:, 0],
                            return_inverse=True)
    clip_sum, clip_n = _clip_sums(clips, Y, p.aux_sizes[2])
    pair_sum, pair_n = _clip_sums(pair, Y, len(pairs))
    others = (clip_n[clips] - pair_n[pair])[:, None]
    return Y, np.divide(clip_sum[clips] - pair_sum[pair], others,
                        out=np.zeros_like(Y), where=others > 0), cols


def train_smoother(events: Events, p0: SmootherParams, cfg: TrainConfig,
                   record_file=None) -> SmootherParams:
    """Per-event stochastic CD training of the smoother; each step
    adds the l1 subgradient -l1 * sign to the CD gradient of the
    conditioning weights V and W and clips the step through zero.

    An event's conditioning vector is one-hot on three columns of V, and
    every other column only shrinks under l1.  That shrinkage is applied
    lazily: each column remembers how many events it is up to date with
    and catches up in one soft threshold when an event reads it, and
    every column catches up at the end of each epoch.  A step reads its
    three columns once, as a block that it brings up to date, trains on
    and writes back once.
    """
    Y, avgs, cols = _event_inputs(events, p0)
    per_step = cfg.lr * cfg.l1
    t = 0  # events seen so far
    done = np.zeros(p0.A, dtype=np.int64)  # t when each column caught up

    def step(p, i, rng):
        nonlocal t
        c = cols[i]
        # take: the gather of p.V[:, c] at about a quarter of its cost
        V = _shrink(p.V.take(c, axis=1), (t - done[c]) * per_step)
        sign_W, sign_V = np.sign(p.W), np.sign(V)
        g = smoother_cd_gradient(Y[i], avgs[i], V, p, cfg.k, rng)
        p.U += cfg.lr * g.dU
        p.c += cfg.lr * g.dc
        p.d += cfg.lr * g.dd
        p.W = _clip_step(sign_W, p.W + cfg.lr * (g.dW - cfg.l1 * sign_W))
        p.V[:, c] = _clip_step(sign_V,
                               V + cfg.lr * (g.dd[:, None] - cfg.l1 * sign_V))
        t += 1
        done[c] = t
        if t % len(Y) == 0:
            # last event of the epoch: the divergence check and the
            # caller see the true V
            p.V[:] = _shrink(p.V, (t - done) * per_step)
            done[:] = t

    return sgd(p0, len(Y), step, cfg, record_file, estimator="cd")


def smooth_tags(p: SmootherParams, events: Events) -> np.ndarray:
    """Predicted tag probabilities for a new (unknown) user on every clip
    that has an event, as a (clips, C) block in clip-id order; each clip
    takes the track its first event carries.  u averages all users of
    the clip, the user identity block is left out, and mean-field runs
    from y* = u to convergence (MF_TOL, at most SMOOTH_MAX_ITER steps),
    every clip in one batched ``mean_field`` call.  Each clip's average
    is ``_clip_sums``'s sum over its count."""
    ids = np.asarray(events.ids, dtype=np.intp)
    clips, first_event = np.unique(ids[:, 2], return_index=True)
    cols = _block_columns(ids[first_event, 1:], p.aux_sizes, first=1)
    sums, counts = _clip_sums(ids[:, 2], np.asarray(events.Y, dtype=float),
                              p.aux_sizes[2])
    u = sums[clips] / counts[clips, None]
    return mean_field(p.c + (p.W @ u[:, :, None])[:, :, 0],
                      p.d + p.V.T[cols].sum(axis=1), p.U, u, SMOOTH_MAX_ITER,
                      MF_TOL)


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
