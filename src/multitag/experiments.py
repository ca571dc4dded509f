"""Desk-scale synthetic experiments mirroring the qualitative findings:
damping insensitivity, the label-dependency advantage over per-tag
logistic regression, and smoothing helping tag-independent models.
Shared by the experiment scripts and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .data import NEGATIVE, POSITIVE, normalize_features
from .estimators import TrainConfig
from .evaluation import AucReport, auc
from .kinds import KIND_TABLE, score
from .smoother import Events, _clip_sums, smooth_tags
from .synthetic import (make_cooccurrence_corpus, make_dependency_corpus,
                        make_tag_corpus)


def _grand_mean_auc(scores, Y):
    """The grand mean AUC that `multitag eval` reports, of the one fold
    of (B, C) scores against the 0/1 labels Y."""
    cells = np.where(Y > 0, POSITIVE, NEGATIVE)
    return AucReport.from_folds(range(Y.shape[1]),
                                [(scores, cells)]).grand_mean()


def damping_experiment(seed=0, n_items=500, betas=(0.0, 0.5, 0.9)):
    """Train with belief-propagation gradients at several damping
    factors on ``make_tag_corpus(n_items, 8, 10, seed)``, the last 150
    items held out: 10 hidden units, 5 epochs, 30 sweeps, lr 0.01.
    Returns {beta: grand-mean test AUC}.  A bad beta, seed or item
    count is a ValueError before any draw."""
    if n_items <= 150:
        raise ValueError(f"need more than 150 items, got {n_items}")
    cfgs = {beta: TrainConfig(estimator="lbp", k=30, lr=0.01, beta=beta,
                              epochs=5, seed=seed) for beta in betas}
    X, Y = make_tag_corpus(n_items, 8, 10, seed)
    X = normalize_features(X)
    Xtr, Ytr = X[:-150], Y[:-150]
    Xte, Yte = X[-150:], Y[-150:]
    fit = KIND_TABLE["drbm"].fit
    return {beta: _grand_mean_auc(score(fit(Xtr, Ytr, None, 10, cfg), Xte,
                                        K=50, beta=beta), Yte)
            for beta, cfg in cfgs.items()}


def label_dependency_experiment(seeds=(0, 1, 2, 3, 4)):
    """Tag 1 is a noisy copy of tag 0 and only tag 0 depends on x.  Per
    seed, 60 training and 300 test items; a drbm with 8 hidden units
    (CD-1, lr 0.05) and logistic regression (lr 0.5) each train for 50
    epochs.  Returns per-seed (drbm AUC, logreg AUC) on tag 1.  A
    negative seed is a ValueError before any draw."""
    n_train, epochs = 60, 50
    cfgs = [TrainConfig(estimator="cd", k=1, lr=0.05, epochs=epochs,
                        seed=seed) for seed in seeds]
    results = []
    for seed, cfg in zip(seeds, cfgs):
        X, Y = make_dependency_corpus(n_train + 300, seed)
        X = normalize_features(X)
        Xtr, Ytr = X[:n_train], Y[:n_train]
        Xte, Yte = X[n_train:], Y[n_train:]
        drbm = KIND_TABLE["drbm"].fit(Xtr, Ytr, None, 8, cfg)
        logreg = KIND_TABLE["logreg"].fit(Xtr, Ytr, None, None, TrainConfig(
            lr=0.5, epochs=epochs, seed=seed))
        labels = np.where(Yte[:, 1] > 0, POSITIVE, NEGATIVE)
        results.append(tuple(auc(score(model, Xte)[:, 1], labels)
                             for model in (drbm, logreg)))
    return results


def smoothing_experiment(seeds=(0, 1, 2, 3, 4), drop=0.8):
    """Under-reported co-occurring tags: does training logistic
    regression on smoothed targets beat training on the raw observed
    tags?  Per seed, 300 clips of which the first 200 train; a smoother
    with 4 hidden units (CD-1, lr 0.05, l1 0.001, 20 epochs) and
    logistic regression (lr 0.5, 30 epochs).  Returns per-seed (smoothed
    AUC, raw AUC), held-out, scored against the observed (unsmoothed)
    labels.  A negative seed is a ValueError before any draw."""
    n_clips, n_train = 300, 200
    cfgs = [TrainConfig(estimator="cd", k=1, lr=0.05, epochs=20, seed=seed,
                        l1=0.001) for seed in seeds]
    results = []
    for seed, cfg in zip(seeds, cfgs):
        X, _, tag_events = make_cooccurrence_corpus(n_clips, seed, drop=drop)
        X = normalize_features(X)
        events = Events.from_tag_events(tag_events)
        # any-user-reported tags of each clip
        observed = _clip_sums(events.ids[:, 2], events.Y, n_clips)[0] > 0
        train = events.ids[:, 2] < n_train
        train_events = Events(events.ids[train], events.Y[train])

        # every clip is its own track here, so the identity blocks are
        # (users, tracks=clips, clips)
        n_users = int(events.ids[:, 0].max()) + 1
        sm = KIND_TABLE["smoother"].fit(
            train_events, (n_users, n_clips, n_clips), 4, cfg)

        smoothed = smooth_tags(sm, train_events)  # clips 0..n_train-1

        Xtr, Xte = X[:n_train], X[n_train:]
        sc = TrainConfig(lr=0.5, epochs=30, seed=seed)
        fit = KIND_TABLE["logreg"].fit
        results.append(tuple(
            _grand_mean_auc(score(fit(Xtr, Y, None, None, sc), Xte),
                            observed[n_train:])
            for Y in (smoothed, observed[:n_train])))
    return results
