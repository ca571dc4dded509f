"""Desk-scale synthetic experiments mirroring the qualitative findings:
damping insensitivity, the label-dependency advantage over per-tag
logistic regression, and smoothing helping tag-independent models.
Shared by the experiment scripts and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .baselines import logreg_predict, logreg_train
from .core import DrbmParams
from .data import NEGATIVE, POSITIVE, normalize_features
from .estimators import TrainConfig, sgd_train
from .evaluation import AucReport, auc
from .inference import lbp_scores
from .smoother import (Events, SmootherParams, _clip_sums, smooth_tags,
                       train_smoother)
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
    p0 = DrbmParams.random_init(10, 8, 10, np.random.default_rng(seed))
    results = {}
    for beta, cfg in cfgs.items():
        scores = lbp_scores(Xte, sgd_train(Xtr, Ytr, p0, cfg), K=50,
                            beta=beta)
        results[beta] = _grand_mean_auc(scores, Yte)
    return results


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

        p0 = DrbmParams.random_init(8, Y.shape[1], X.shape[1],
                                    np.random.default_rng(seed))
        drbm = lbp_scores(Xte, sgd_train(Xtr, Ytr, p0, cfg), K=10)

        lr_model = logreg_train(Xtr, Ytr, None,
                                TrainConfig(lr=0.5, epochs=epochs, seed=seed))
        lr_scores = logreg_predict(Xte, lr_model)

        labels = np.where(Yte[:, 1] > 0, POSITIVE, NEGATIVE)
        results.append((auc(drbm[:, 1], labels), auc(lr_scores[:, 1], labels)))
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
        C = events.Y.shape[1]
        # any-user-reported tags of each clip
        observed = _clip_sums(events.ids[:, 2], events.Y, n_clips)[0] > 0
        train = events.ids[:, 2] < n_train
        train_events = Events(events.ids[train], events.Y[train])

        rng = np.random.default_rng(seed)
        # every clip is its own track here, so the identity blocks are
        # (users, tracks=clips, clips)
        n_users = int(events.ids[:, 0].max()) + 1
        p0 = SmootherParams.random_init(4, C, (n_users, n_clips, n_clips),
                                        rng)
        sm = train_smoother(train_events, p0, cfg)

        smoothed = smooth_tags(sm, train_events)  # clips 0..n_train-1

        Xtr, Xte = X[:n_train], X[n_train:]
        sc = TrainConfig(lr=0.5, epochs=30, seed=seed)
        s_smooth = logreg_predict(Xte, logreg_train(Xtr, smoothed, None, sc))
        s_raw = logreg_predict(Xte, logreg_train(Xtr, observed[:n_train],
                                                 None, sc))
        results.append((_grand_mean_auc(s_smooth, observed[n_train:]),
                        _grand_mean_auc(s_raw, observed[n_train:])))
    return results
