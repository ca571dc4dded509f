"""Seeded synthetic corpora for experiments and the desk-scale
end-to-end pipeline: a generic feature->tags corpus, a label-dependency
corpus where one tag is a noisy copy of another, and a co-occurrence
corpus with under-reported tags for the smoothing experiments.
"""

from __future__ import annotations

import os

import numpy as np

from .core import sigm
from .data import FeatureTable, write_features, write_rows
from .smoother import TagEvent


def make_tag_corpus(n_items, C, D, seed):
    """Features drawn standard normal; each tag Bernoulli with logit
    linear in x, its weights normal with standard deviation 2.  Returns
    (X, Y)."""
    rng = np.random.default_rng(seed)
    w_true = rng.normal(size=(D, C)) * 2.0
    X = rng.normal(size=(n_items, D))
    Y = (rng.random((n_items, C)) < sigm(X @ w_true)).astype(float)
    return X, Y


def make_dependency_corpus(n_items, seed):
    """Two tags: tag 0 depends on 5 standard normal features through
    normal weights of standard deviation 1.5, tag 1 is tag 0 with each
    entry flipped with probability 0.1.  Returns (X, Y)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=5) * 1.5
    X = rng.normal(size=(n_items, 5))
    y0 = (rng.random(n_items) < sigm(X @ w)).astype(float)
    flips = rng.random(n_items) < 0.1
    y1 = np.where(flips, 1 - y0, y0)
    return X, np.stack([y0, y1], axis=1)


def make_cooccurrence_corpus(n_clips, seed, drop=0.5):
    """Tags 0 and 1 always co-occur in truth, present with logit linear
    in 3 standard normal features (normal weights of standard deviation
    2); users report tag 0 reliably but omit tag 1 with probability
    ``drop``.  A third tag is independent noise.

    Returns (X, Y_true, events) with one TagEvent per (user, clip): 3
    users of 6 per clip, and each clip is its own track.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(size=3) * 2.0
    X = rng.normal(size=(n_clips, 3))
    present = (rng.random(n_clips) < sigm(X @ w)).astype(float)
    extra = (rng.random(n_clips) < 0.3).astype(float)
    Y_true = np.stack([present, present, extra], axis=1)
    events = []
    for clip in range(n_clips):
        for u in range(3):
            user = (clip * 3 + u) % 6
            y = Y_true[clip].copy()
            if y[1] == 1 and rng.random() < drop:
                y[1] = 0.0
            if y[2] == 1 and rng.random() < 0.5:
                y[2] = 0.0
            events.append(TagEvent(user=user, track=clip, clip=clip, y=y))
    return X, Y_true, events


def write_corpus_files(outdir, X, Y, tags):
    """Write triples/features/items files for a (X, Y) corpus so the
    ingestion pipeline can consume it.  Each positive cell becomes one
    (user0, item, tag) triple."""
    os.makedirs(outdir, exist_ok=True)
    items = [f"item{i:04d}" for i in range(X.shape[0])]
    paths = [os.path.join(outdir, name)
             for name in ("triples.tsv", "features.tsv", "items.tsv")]
    write_rows(paths[0], (("user0", items[i], tags[j])
                          for i, j in zip(*np.nonzero(Y))))
    write_features(paths[1], FeatureTable(items, np.asarray(X, dtype=float)))
    write_rows(paths[2], ((item, "track_" + item) for item in items))
    return tuple(paths)
