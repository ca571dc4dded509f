"""Tag-triple ingestion, count condensation, three-state binarization,
vocabulary selection, feature normalization, cross-validation fold
construction, and every tab-separated file multitag reads or writes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

POSITIVE = 1
NEGATIVE = 0
UNKNOWN = -1
STATE_CHARS = {POSITIVE: "P", NEGATIVE: "N", UNKNOWN: "U"}  # matrix.tsv cells
CHAR_STATES = {v: k for k, v in STATE_CHARS.items()}


class Triples(NamedTuple):
    """(user, item, tag) triples, integer-coded: each column's distinct
    names in sorted order, and one row of codes into them per triple,
    in file order.  Sorted names give sorted codes."""
    users: list
    items: list
    tags: list
    codes: np.ndarray  # (N, 3) int64: user, item, tag

    @classmethod
    def from_rows(cls, rows):
        """Code a sequence of (user, item, tag) name rows."""
        names, codes = [], []
        for k in range(3):
            column = [row[k] for row in rows]
            distinct = sorted(set(column))
            index = {name: i for i, name in enumerate(distinct)}
            names.append(distinct)
            codes.append(np.fromiter(map(index.__getitem__, column),
                                     np.int64, len(column)))
        return cls(*names, np.stack(codes, axis=1))


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


def condense(triples: Triples) -> dict:
    """Coded triples -> {(item, tag): distinct-user count}.

    A user repeating the same triple counts once.
    """
    dims = tuple(map(len, triples[:3]))  # users, items, tags
    # return_counts makes np.unique sort: without it numpy 2.4 builds a
    # hash set, 25 times slower on 404k keys (one 2.1 GHz Xeon core)
    distinct, _ = np.unique(np.ravel_multi_index(triples.codes.T, dims),
                            return_counts=True)
    pairs, counts = np.unique(distinct % (dims[1] * dims[2]),
                              return_counts=True)
    item, tag = np.divmod(pairs, dims[2])
    return dict(zip(zip(map(triples.items.__getitem__, item.tolist()),
                        map(triples.tags.__getitem__, tag.tolist())),
                    counts.tolist()))


def select_vocab(records: dict, K: int) -> list:
    """Top-K tags by total count, ties broken lexicographically."""
    if K < 1:
        raise ValueError(f"vocabulary size must be at least 1, got {K}")
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


def _tab_rows(path, columns=None):
    """(line number, tab-separated fields) for each nonempty line; a line
    without ``columns`` fields, when given, is an error."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line:
                parts = line.split("\t")
                if columns and len(parts) != columns:
                    raise ValueError(f"{path}:{lineno}: expected {columns} "
                                     f"columns, got {len(parts)}")
                yield lineno, parts


def write_rows(path, rows):
    """Every tab-separated file multitag writes: one line per row, each
    field as ``str`` writes it (a Python float as its ``repr``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def read_triples(path) -> Triples:
    """Triples file: user, item, tag per line, no field empty."""
    rows = []
    for lineno, parts in _tab_rows(path, 3):
        if "" in parts:
            raise ValueError(f"{path}:{lineno}: triple fields must be nonempty")
        rows.append(tuple(parts))  # the cyclic collector untracks string tuples
    return Triples.from_rows(rows)


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


def write_features(path, table: FeatureTable):
    write_rows(path, ([item, *row] for item, row in
                      zip(table.items, table.X.tolist())))


def read_matrix(path) -> ThreeStateTagMatrix:
    """Matrix file: a header of ``item`` and the vocabulary, then one
    item id and C cells of P, N or U per line."""
    rows = _tab_rows(path)
    vocab = next(rows, (0, [""]))[1][1:]
    items, cells = [], []
    for lineno, parts in rows:
        if len(parts) - 1 != len(vocab):
            raise ValueError(f"{path}:{lineno}: expected {len(vocab)} "
                             f"cells, got {len(parts) - 1}")
        try:
            cells.append([CHAR_STATES[c] for c in parts[1:]])
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: unknown cell "
                             f"{exc.args[0]!r}") from exc
        items.append(parts[0])
    return ThreeStateTagMatrix(items, vocab, np.asarray(
        cells, dtype=np.int8).reshape(len(items), len(vocab)))


def write_matrix(path, matrix: ThreeStateTagMatrix):
    write_rows(path, [["item", *matrix.vocab]] + [
        [item, *map(STATE_CHARS.__getitem__, row)]
        for item, row in zip(matrix.items, matrix.cells.tolist())])


def read_items(path) -> dict:
    """Optional items file: item id -> track id; item ids must be
    unique."""
    mapping = {}
    for lineno, (item, track) in _tab_rows(path, 2):
        if item in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate item id {item!r}")
        mapping[item] = track
    return mapping
