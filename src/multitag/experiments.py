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
from .evaluation import AucReport, auc, score_matrix_auc
from .inference import lbp_scores
from .smoother import (Events, SmootherParams, _clip_sums, smooth_tags,
                       train_smoother)
from .synthetic import (make_cooccurrence_corpus, make_dependency_corpus,
                        make_tag_corpus)


def _grand_mean_auc(scores, Y):
    """The grand mean AUC that `multitag eval` reports, of the one fold
    of (B, C) scores against the 0/1 labels Y."""
    tags = list(range(Y.shape[1]))
    cells = np.where(Y > 0, POSITIVE, NEGATIVE)
    values = score_matrix_auc(scores, cells, tags)[:, None]  # one fold
    return AucReport(tags, values).grand_mean()


def damping_experiment(seed=0, n_items=500, C=8, D=10, betas=(0.0, 0.5, 0.9),
                       n_hidden=10, epochs=5, lr=0.01, k=30, n_test=150):
    """Train with belief-propagation gradients at several damping
    factors; returns {beta: grand-mean test AUC}."""
    X, Y = make_tag_corpus(n_items, C, D, seed)
    X = normalize_features(X)
    Xtr, Ytr = X[:-n_test], Y[:-n_test]
    Xte, Yte = X[-n_test:], Y[-n_test:]
    p0 = DrbmParams.random_init(n_hidden, C, D, np.random.default_rng(seed))
    results = {}
    for beta in betas:
        cfg = TrainConfig(estimator="lbp", k=k, lr=lr, beta=beta,
                          epochs=epochs, seed=seed)
        scores = lbp_scores(Xte, sgd_train(Xtr, Ytr, p0, cfg), K=50,
                            beta=beta)
        results[beta] = _grand_mean_auc(scores, Yte)
    return results


def label_dependency_experiment(seeds=(0, 1, 2, 3, 4), n_train=60, n_test=300,
                                n_hidden=8, epochs=50, drbm_lr=0.05,
                                logreg_lr=0.5):
    """Tag 1 is a noisy copy of tag 0 and only tag 0 depends on x.
    Returns per-seed (drbm AUC, logreg AUC) on tag 1."""
    results = []
    for seed in seeds:
        X, Y = make_dependency_corpus(n_train + n_test, seed)
        X = normalize_features(X)
        Xtr, Ytr = X[:n_train], Y[:n_train]
        Xte, Yte = X[n_train:], Y[n_train:]

        cfg = TrainConfig(estimator="cd", k=1, lr=drbm_lr, epochs=epochs,
                          seed=seed)
        p0 = DrbmParams.random_init(n_hidden, Y.shape[1], X.shape[1],
                                    np.random.default_rng(seed))
        drbm = lbp_scores(Xte, sgd_train(Xtr, Ytr, p0, cfg), K=10)

        lr_model = logreg_train(Xtr, Ytr, None,
                                TrainConfig(lr=logreg_lr, epochs=epochs,
                                            seed=seed))
        lr_scores = logreg_predict(Xte, lr_model)

        labels = np.where(Yte[:, 1] > 0, POSITIVE, NEGATIVE)
        results.append((auc(drbm[:, 1], labels), auc(lr_scores[:, 1], labels)))
    return results


def smoothing_experiment(seeds=(0, 1, 2, 3, 4), n_clips=300, n_train=200,
                         drop=0.8, smoother_hidden=4, smoother_epochs=20,
                         l1=0.001, logreg_lr=0.5, logreg_epochs=30):
    """Under-reported co-occurring tags: does training logistic
    regression on smoothed targets beat training on the raw observed
    tags?  Returns per-seed (smoothed AUC, raw AUC), held-out, scored
    against the observed (unsmoothed) labels."""
    results = []
    for seed in seeds:
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
        p0 = SmootherParams.random_init(smoother_hidden, C,
                                        (n_users, n_clips, n_clips), rng)
        cfg = TrainConfig(estimator="cd", k=1, lr=0.05,
                          epochs=smoother_epochs, seed=seed, l1=l1)
        sm = train_smoother(train_events, p0, cfg)

        smoothed = smooth_tags(sm, train_events)  # clips 0..n_train-1

        Xtr, Xte = X[:n_train], X[n_train:]
        sc = TrainConfig(lr=logreg_lr, epochs=logreg_epochs, seed=seed)
        s_smooth = logreg_predict(Xte, logreg_train(Xtr, smoothed, None, sc))
        s_raw = logreg_predict(Xte, logreg_train(Xtr, observed[:n_train],
                                                 None, sc))
        results.append((_grand_mean_auc(s_smooth, observed[n_train:]),
                        _grand_mean_auc(s_raw, observed[n_train:])))
    return results
