"""Tag-triple ingestion, count condensation, three-state binarization,
vocabulary selection, feature normalization, and cross-validation fold
construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

POSITIVE = 1
NEGATIVE = 0
UNKNOWN = -1


@dataclass
class TagTriple:
    user: str
    item: str
    tag: str

    def __post_init__(self):
        if not (self.user and self.item and self.tag):
            raise ValueError("triple fields must be nonempty")


@dataclass
class ThreeStateTagMatrix:
    items: list            # item ids, row order
    vocab: list            # tag names, column order
    cells: np.ndarray      # items x C, values in {POSITIVE, NEGATIVE, UNKNOWN}

    @property
    def C(self):
        return len(self.vocab)


@dataclass
class FeatureTable:
    items: list
    X: np.ndarray          # items x D

    @property
    def D(self):
        return self.X.shape[1]


@dataclass
class FoldSplit:
    """5-way item partition; per held-out fold, 4 rotations each using
    one remaining fold for validation and the other 3 for training."""
    folds: list            # 5 lists of item indices
    seed: int

    def rotations(self, test_fold: int):
        others = [f for f in range(len(self.folds)) if f != test_fold]
        for val_fold in others:
            train = [i for f in others if f != val_fold for i in self.folds[f]]
            yield list(self.folds[val_fold]), train

    def train_items(self, test_fold: int):
        return [i for f in range(len(self.folds)) if f != test_fold
                for i in self.folds[f]]


def condense(triples):
    """(user, item, tag) occurrences -> {(item, tag): distinct-user count}.

    A user repeating the same triple counts once.
    """
    seen = set()
    counts = Counter()
    for t in triples:
        key = (t.user, t.item, t.tag)
        if key in seen:
            continue
        seen.add(key)
        counts[(t.item, t.tag)] += 1
    return dict(counts)


def select_vocab(records: dict, K: int) -> list:
    """Top-K tags by total count, ties broken lexicographically."""
    totals = Counter()
    for (_, tag), count in records.items():
        totals[tag] += count
    if len(totals) < K:
        raise ValueError(f"only {len(totals)} distinct tags, need {K}")
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return [tag for tag, _ in ranked[:K]]


def binarize(records: dict, vocab, min_positive: int,
             items=None) -> ThreeStateTagMatrix:
    """count >= min_positive -> POSITIVE, count 0 -> NEGATIVE,
    in between -> UNKNOWN (single counts are too plausible to be
    negatives)."""
    if min_positive not in (1, 2):
        raise ValueError("min_positive must be 1 or 2")
    if items is None:
        items = sorted({item for item, _ in records})
    col = {tag: j for j, tag in enumerate(vocab)}
    cells = np.full((len(items), len(vocab)), NEGATIVE, dtype=np.int8)
    row = {item: i for i, item in enumerate(items)}
    for (item, tag), count in records.items():
        if item not in row or tag not in col:
            continue
        if count >= min_positive:
            cells[row[item], col[tag]] = POSITIVE
        elif count > 0:
            cells[row[item], col[tag]] = UNKNOWN
    return ThreeStateTagMatrix(list(items), list(vocab), cells)


def normalize_features(table: FeatureTable) -> FeatureTable:
    """Per-dimension standardization with population statistics, then
    per-row unit Euclidean norm; constant dimensions map to zero."""
    if table.X.shape[0] < 2:
        raise ValueError("need at least 2 items to standardize")
    mean = table.X.mean(axis=0)
    std = table.X.std(axis=0)  # population variance
    Z = np.where(std > 0, (table.X - mean) / np.where(std > 0, std, 1.0), 0.0)
    norms = np.linalg.norm(Z, axis=1)
    Z = np.where(norms[:, None] > 0, Z / np.where(norms[:, None] > 0, norms[:, None], 1.0), 0.0)
    return FeatureTable(list(table.items), Z)


def make_folds(n_items: int, seed: int, n_folds: int = 5) -> FoldSplit:
    """Seeded uniform partition into near-equal folds."""
    if n_items < n_folds:
        raise ValueError(f"need at least {n_folds} items")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_items)
    folds = [sorted(order[f::n_folds].tolist()) for f in range(n_folds)]
    return FoldSplit(folds, seed)


def _tab_rows(path):
    """(line number, tab-separated fields) for each nonempty line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line:
                yield lineno, line.split("\t")


def read_triples(path):
    """Triples file: user, item, tag per line."""
    triples = []
    for lineno, parts in _tab_rows(path):
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        try:
            triples.append(TagTriple(*parts))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return triples


def read_features(path) -> FeatureTable:
    """Features file: item id, then D finite floats per line; item ids
    must be unique."""
    items, rows, linenos, seen = [], [], [], set()
    width = None
    for lineno, parts in _tab_rows(path):
        if parts[0] in seen:
            raise ValueError(f"{path}:{lineno}: duplicate item id {parts[0]!r}")
        seen.add(parts[0])
        items.append(parts[0])
        linenos.append(lineno)
        if width is None:
            width = len(parts) - 1
        elif len(parts) - 1 != width:
            raise ValueError(f"{path}:{lineno}: expected {width} features, "
                             f"got {len(parts) - 1}")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad float") from exc
    X = np.asarray(rows, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{path}: no feature rows")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{linenos[np.argmax(bad)]}: non-finite "
                         f"feature value")
    return FeatureTable(items, X)


def read_items(path) -> dict:
    """Optional items file: item id -> track id."""
    mapping = {}
    for lineno, parts in _tab_rows(path):
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: expected item and track columns")
        mapping[parts[0]] = parts[1]
    return mapping
