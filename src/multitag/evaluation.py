"""Retrieval evaluation: per-tag area under the ROC curve, the
cross-validation driver with hyper-parameter selection on validation
folds only, and paired significance testing between models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kinds
from .data import NEGATIVE, POSITIVE, UNKNOWN, FoldSplit, write_rows

ALPHA = 0.05  # the significance level of significance_counts


@dataclass
class AucReport:
    tags: list
    values: np.ndarray  # tags x folds, NaN for undefined cells

    @classmethod
    def from_folds(cls, tags, folds):
        """The report of one column per fold, each a (scores, cells)
        block scored by ``score_matrix_auc``."""
        tags = list(tags)
        return cls(tags, np.stack([score_matrix_auc(scores, cells, tags)
                                   for scores, cells in folds], axis=1))

    def grand_mean(self) -> float:
        valid = self.values[~np.isnan(self.values)]
        if valid.size == 0:
            return float("nan")
        return float(np.mean(valid))


@dataclass
class SignificanceReport:
    tags: list
    p_values: np.ndarray    # per tag, NaN where untestable
    winners: list           # 'a', 'b', or None per tag
    a_better: int
    b_better: int


def auc(scores, labels):
    """Mann-Whitney AUC of one tag: ``score_matrix_auc`` of its one
    column, as a float, or None when either class is empty.  Raises
    ValueError on a NaN or infinite score."""
    value = score_matrix_auc(np.reshape(scores, (-1, 1)),
                             np.reshape(labels, (-1, 1)), [None])[0]
    return None if math.isnan(value) else float(value)


def t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t at an integer df: one
    minus the finite series for P(|T| < |t|) of Abramowitz & Stegun
    26.7.3 (odd df) and 26.7.4 (even df), in theta = atan(|t| / sqrt(df))."""
    if df < 1 or df != int(df):
        raise ValueError("df must be an integer >= 1")
    df = int(df)
    theta = math.atan(abs(float(t)) / math.sqrt(df))
    s, c = math.sin(theta), math.cos(theta)
    term = total = 1.0
    for j in range(2 + df % 2, df - 1, 2):
        term *= (j - 1) / j * c * c
        total += term
    if df % 2 == 0:
        return 1.0 - s * total
    return 1.0 - 2.0 / math.pi * (theta + (s * c * total if df > 1 else 0.0))


def paired_ttest(a, b) -> float:
    """Two-sided paired t-test p-value; identical samples give 1.0 by
    convention, zero-variance nonzero differences give 0.0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length vectors of >= 2 paired values")
    d = a - b
    if np.all(d == 0):
        return 1.0
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        return 0.0
    t = float(np.mean(d)) / (sd / math.sqrt(d.size))
    return t_sf_two_sided(t, d.size - 1)


def significance_counts(report_a: AucReport,
                        report_b: AucReport) -> SignificanceReport:
    """Per-tag paired t-test across folds; a tag counts for the model
    with the higher mean AUC when p < ALPHA, undecided tags count for
    neither."""
    if report_a.tags != report_b.tags:
        raise ValueError("mismatched tag sets")
    if report_a.values.shape[1] != report_b.values.shape[1]:
        raise ValueError("mismatched fold counts")
    p_values = np.full(len(report_a.tags), np.nan)
    winners = [None] * len(report_a.tags)
    for j in range(len(report_a.tags)):
        va, vb = report_a.values[j], report_b.values[j]
        ok = ~(np.isnan(va) | np.isnan(vb))
        if ok.sum() < 2:
            continue
        p = paired_ttest(va[ok], vb[ok])
        p_values[j] = p
        mean_a, mean_b = np.mean(va[ok]), np.mean(vb[ok])
        if p < ALPHA and mean_a != mean_b:
            winners[j] = "a" if mean_a > mean_b else "b"
    return SignificanceReport(list(report_a.tags), p_values, winners,
                              winners.count("a"), winners.count("b"))


def score_matrix_auc(scores: np.ndarray, cells: np.ndarray, tags) -> np.ndarray:
    """Per-tag Mann-Whitney AUC of one evaluation block, the fraction of
    (positive, negative) pairs ranked correctly with ties counted half;
    NaN for a tag with an empty class.

    ``scores`` and ``cells`` are (rows, len(tags)).  UNKNOWN cells are
    left out.  Raises ValueError on a NaN or infinite score, UNKNOWN
    cells included, since it has no rank.

    One sort ranks every tag: each row of the transposed scores, UNKNOWN
    cells keyed +inf so they sort last, and the positives' sorted
    positions summed by one matrix product.  Tied scores share their
    average rank, so each run of equal finite keys moves its positives
    from their own positions to the run's mean.  Every rank is a
    half-integer, so each sum is exact in any order.
    """
    scores = np.asarray(scores, dtype=float)
    cells = np.asarray(cells)
    if scores.shape != cells.shape or scores.shape[1:] != (len(tags),):
        raise ValueError(f"scores {scores.shape} and cells {cells.shape} "
                         f"must both be (rows, {len(tags)})")
    if not np.isfinite(scores).all():
        raise ValueError("auc: scores must be finite")
    rows, C = scores.shape
    state = cells.T.copy()
    keys = np.where(state == UNKNOWN, np.inf, scores.T)  # (C, rows)
    # flat (C * rows) indices of each row's keys in ascending order; a
    # stable sort is much slower and tie order does not move a mean rank
    order = np.argsort(keys, axis=1)
    order += rows * np.arange(C)[:, None]
    keys = keys.ravel()[order]
    positive = (state == POSITIVE).ravel()[order]
    position = np.arange(1.0, rows + 1.0)  # 1-based, in each sorted row
    n_pos, rank_sum = (positive @ np.stack([np.ones(rows), position], 1)).T
    n_neg = np.count_nonzero(state == NEGATIVE, axis=1)

    # number the runs of equal keys in flat order and give each key its
    # run's mean position; the +inf tail holds no positive, so only a
    # finite tie moves a rank
    tied = keys[:, 1:] == keys[:, :-1]
    if (tied & (keys[:, 1:] < np.inf)).any():
        starts = np.ones((C, rows), dtype=bool)  # where a run starts
        starts[:, 1:] = ~tied
        first = np.flatnonzero(starts)  # each run's first key, 0-based flat
        size = np.diff(first, append=C * rows)
        mean = (first % rows + (size + 1) / 2.0)[np.cumsum(starts) - 1]
        rank_sum += (positive * (mean.reshape(C, rows) - position)).sum(axis=1)

    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return np.divide(u, n_pos * n_neg, out=np.full(C, np.nan),
                     where=(n_pos > 0) & (n_neg > 0))


def cv_run(X: np.ndarray, cells: np.ndarray, tags, split: FoldSplit,
           kind: str, grid):
    """Hyper-parameter selection and test scoring of a model ``kind``
    (a name in ``kinds.KIND_TABLE``), fitted and scored through that
    table, over a grid of (hidden, TrainConfig) points.  Selection sees
    only validation-rotation reports; the winning grid point is refitted
    on all non-test folds and scored on each held-out fold.

    Returns (test AucReport, selected grid point, validation grand means).
    A kind not in the table, one that cannot be fitted on (X, Y, mask)
    and scored, or a grid point whose hidden is not an integer >= 1 for
    a kind that reads --hidden, is a ValueError before any fit.
    """
    entry = kinds.lookup(kind)
    if entry.score is None:
        raise ValueError(f"model kind {kind!r} cannot be fitted on features "
                         f"and labels and scored")
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyper-parameter grid")
    if "hidden" in entry.options:
        for hidden, _ in grid:
            if not (isinstance(hidden, (int, np.integer)) and hidden >= 1):
                raise ValueError(f"hidden must be an integer >= 1, got "
                                 f"{hidden!r}")
    n_folds = len(split.folds)

    def fold(point, train_idx, test_idx):
        model = entry.fit(X[train_idx], *kinds.targets(kind, cells[train_idx]),
                          *point)
        return kinds.score(model, X[test_idx]), cells[test_idx]

    val_means = []
    for point in grid:
        report = AucReport.from_folds(tags, (
            fold(point, train_idx, val_idx) for test_fold in range(n_folds)
            for val_idx, train_idx in split.rotations(test_fold)))
        val_means.append(report.grand_mean())
    if np.all(np.isnan(val_means)):
        raise ValueError("no grid point has a defined validation AUC")
    point = grid[int(np.nanargmax(val_means))]
    report = AucReport.from_folds(tags, (
        fold(point, split.train_items(f), split.folds[f])
        for f in range(n_folds)))
    return report, point, val_means


def write_auc_report(path, model_name: str, report: AucReport):
    """One row per (model, tag, fold, AUC)."""
    write_rows(path, [("model", "tag", "fold", "auc"), *(
        (model_name, tag, f, "NA" if math.isnan(v) else v)
        for tag, row in zip(report.tags, report.values.tolist())
        for f, v in enumerate(row))])


def write_summary(path, rows):
    """Summary rows: (model, dataset, smoothed flag, grand mean AUC)."""
    write_rows(path, [("model", "dataset", "smoothed", "grand_mean_auc"), *(
        (model, dataset, "+" if smoothed else "-", float(mean))
        for model, dataset, smoothed, mean in rows)])
