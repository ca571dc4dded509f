"""Every model kind in one table: its parameter class, the `train`
options it reads, its fit, its scorer and its UNKNOWN policy.  Fits and
scorers call trainers and predictors by this module's names, which
perfbench's tracing patches.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .baselines import (LOGREG_DEFAULT_LR, MLP_DEFAULT_HIDDEN, MLP_DEFAULT_LR,
                        LogRegParams, MlpParams, logreg_predict, logreg_train,
                        mlp_predict, mlp_train)
from .core import DrbmParams
from .data import POSITIVE, UNKNOWN
from .estimators import GaussianRbmParams, sgd_train, sgd_train_generative
from .inference import lbp_scores
from .smoother import SmootherParams, train_smoother


class Kind(NamedTuple):
    """How one model kind is stored, read, fitted and scored."""
    params: type    # its parameter class, whose KIND names the kind
    options: tuple  # the kind-specific train options that it reads
    fit: Callable   # (*data, hidden, cfg, record_file=None) -> Params
    masked: bool = False    # UNKNOWN cells: out of the loss, or negatives
    score: Callable = None  # (p, X, **options) -> (B, C); None: not scorable
    defaults: dict = {}     # built-in train defaults that it replaces


def _init(cls, cfg, *sizes):
    """Initial parameters of the given sizes, drawn from
    ``default_rng(cfg.seed)``: the one seed rule of every fit."""
    return cls.random_init(*sizes, np.random.default_rng(cfg.seed))


def _fit_drbm(X, Y, mask, hidden, cfg, record_file=None):
    p0 = _init(DrbmParams, cfg, hidden, Y.shape[1], X.shape[1])
    return sgd_train(X, Y, p0, cfg, record_file)


def _fit_grbm(X, Y, mask, hidden, cfg, record_file=None):
    p0 = _init(GaussianRbmParams, cfg, hidden, Y.shape[1], X.shape[1])
    return sgd_train_generative(X, Y, p0, cfg, record_file)


def _fit_mlp(X, Y, mask, hidden, cfg, record_file=None):
    p0 = _init(MlpParams, cfg, X.shape[1], hidden, Y.shape[1])
    return mlp_train(X, Y, mask, cfg, p0, record_file)


def _fit_logreg(X, Y, mask, hidden, cfg, record_file=None):
    return logreg_train(X, Y, mask, cfg, record_file)


def _fit_smoother(events, sizes, hidden, cfg, record_file=None):
    p0 = _init(SmootherParams, cfg, hidden, events.Y.shape[1], sizes)
    return train_smoother(events, p0, cfg, record_file)


def _lbp(p, X, K=10, beta=0.0):
    return lbp_scores(X, p, K=K, beta=beta)


# model kind (its parameter class's KIND) -> Kind
KIND_TABLE = {kind.params.KIND: kind for kind in (
    Kind(DrbmParams, ("estimator", "k", "hidden", "data"), _fit_drbm,
         score=_lbp),
    Kind(GaussianRbmParams, ("k", "hidden", "data"), _fit_grbm, score=_lbp),
    Kind(MlpParams, ("hidden", "data"), _fit_mlp, masked=True,
         score=lambda p, X: mlp_predict(X, p),
         defaults={"hidden": MLP_DEFAULT_HIDDEN, "lr": MLP_DEFAULT_LR}),
    Kind(LogRegParams, ("data",), _fit_logreg, masked=True,
         score=lambda p, X: logreg_predict(X, p),
         defaults={"lr": LOGREG_DEFAULT_LR}),
    Kind(SmootherParams, ("k", "hidden", "l1", "triples", "items",
                          "vocab_size"), _fit_smoother),
)}


def lookup(name):
    """The Kind of the model kind ``name``; any other name is the one
    unknown-kind ValueError."""
    if name not in KIND_TABLE:
        raise ValueError(f"unknown model kind {name!r}; expected one of "
                         f"{', '.join(KIND_TABLE)}")
    return KIND_TABLE[name]


def targets(kind, cells):
    """The (Y, mask) that ``kind`` fits on a block of cells: Y is 1 on
    POSITIVE cells; a masked kind (mlp, logreg) leaves UNKNOWN cells out
    of its loss (mask 1 on known cells), drbm and grbm train on them as
    negatives (mask None)."""
    mask = (cells != UNKNOWN).astype(float)
    return ((cells == POSITIVE).astype(float),
            mask if KIND_TABLE[kind].masked else None)


def score(model, X, **options):
    """(B, C) scores of X's rows by the scorer of ``model``'s kind; drbm
    and grbm take LBP's ``K`` (10) and damping ``beta`` (0.0)."""
    scorer = KIND_TABLE[model.KIND].score
    if scorer is None:
        raise ValueError(f"cannot score model type {type(model).__name__}")
    return scorer(model, X, **options)
