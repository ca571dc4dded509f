"""Tag-triple ingestion, count condensation, three-state binarization,
vocabulary selection, feature normalization, cross-validation fold
construction, every tab-separated file multitag reads or writes, and
the ingested directory that `ingest` writes and `train` and `eval` read.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

POSITIVE = 1
NEGATIVE = 0
UNKNOWN = -1
STATE_CHARS = {POSITIVE: "P", NEGATIVE: "N", UNKNOWN: "U"}  # matrix.tsv cells
CHAR_STATES = {v: k for k, v in STATE_CHARS.items()}
# a state -> its matrix.tsv byte, indexed by the state (UNKNOWN, -1, last)
_STATE_BYTES = np.zeros(len(STATE_CHARS), dtype=np.uint8)
_STATE_BYTES[list(STATE_CHARS)] = [ord(c) for c in STATE_CHARS.values()]
# a matrix.tsv cell's byte -> its state; _NOT_A_CELL for any other byte
_NOT_A_CELL = 2
_CELL_BYTES = np.full(256, _NOT_A_CELL, dtype=np.int8)
_CELL_BYTES[[ord(c) for c in CHAR_STATES]] = list(CHAR_STATES.values())
BLOCK = 1 << 17  # characters of whole lines a tab-file reader takes at once
ROWS = 4096      # rows of an array a tab-file writer converts at once
N_FOLDS = 5      # the folds of make_folds


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
        columns = list(zip(*rows))
        return _code([columns] if columns else [])


def _code(column_blocks) -> Triples:
    """Triples from blocks of (users, items, tags) name columns: each
    name gets its first-seen code as its block arrives, and the codes are
    renumbered in sorted name order at the end."""
    index, blocks = ({}, {}, {}), []  # per column: name -> first-seen code
    for columns in column_blocks:
        block = np.empty((len(columns[0]), 3), dtype=np.int64)
        for k, (codes, column) in enumerate(zip(index, columns)):
            new = [name for name in dict.fromkeys(column) if name not in codes]
            codes.update(zip(new, range(len(codes), len(codes) + len(new))))
            block[:, k] = np.fromiter(map(codes.__getitem__, column),
                                      np.int64, len(column))
        blocks.append(block)
    coded = (np.concatenate(blocks) if blocks
             else np.empty((0, 3), dtype=np.int64))
    names = []
    for k, codes in enumerate(index):
        distinct = sorted(codes)
        rank = np.empty(len(distinct), dtype=np.int64)
        rank[np.fromiter(map(codes.__getitem__, distinct), np.int64,
                         len(distinct))] = np.arange(len(distinct))
        coded[:, k] = rank[coded[:, k]]
        names.append(distinct)
    return Triples(*names, coded)


@dataclass
class ThreeStateTagMatrix:
    items: list            # item ids, row order
    vocab: list            # tag names, column order
    cells: np.ndarray      # items x C, values in {POSITIVE, NEGATIVE, UNKNOWN}

    @property
    def C(self):
        return len(self.vocab)


@dataclass
class FoldSplit:
    """5-way item partition; per held-out fold, 4 rotations each using
    one remaining fold for validation and the other 3 for training."""
    folds: list            # 5 lists of item indices

    def rotations(self, test_fold: int):
        others = [f for f in range(len(self.folds)) if f != test_fold]
        for val_fold in others:
            train = [i for f in others if f != val_fold for i in self.folds[f]]
            yield list(self.folds[val_fold]), train

    def train_items(self, test_fold: int):
        return [i for f in range(len(self.folds)) if f != test_fold
                for i in self.folds[f]]


class Counts(NamedTuple):
    """Distinct-user counts per (item, tag) pair, integer-coded: one
    entry per pair that some user tagged, in (item, tag) code order.
    ``item`` and ``tag`` index the sorted name lists ``items`` and
    ``tags``; every listed tag has a count."""
    items: list
    tags: list
    item: np.ndarray   # int64 item codes
    tag: np.ndarray    # int64 tag codes
    users: np.ndarray  # distinct users who gave the pair


def condense(triples: Triples) -> Counts:
    """Coded triples -> distinct-user count per (item, tag) pair.

    A user repeating the same triple counts once.
    """
    dims = tuple(map(len, triples[:3]))  # users, items, tags
    # return_counts makes np.unique sort: without it numpy 2.4 builds a
    # hash set, 25 times slower on 404k keys (one 2.1 GHz Xeon core)
    distinct, _ = np.unique(np.ravel_multi_index(triples.codes.T, dims),
                            return_counts=True)
    pairs, users = np.unique(distinct % (dims[1] * dims[2]),
                             return_counts=True)
    item, tag = np.divmod(pairs, dims[2])
    return Counts(triples.items, triples.tags, item, tag, users)


def select_vocab(counts: Counts, K: int) -> list:
    """Top-K tags by total count, ties broken lexicographically."""
    if K < 1:
        raise ValueError(f"vocabulary size must be at least 1, got {K}")
    if len(counts.tags) < K:
        raise ValueError(f"only {len(counts.tags)} distinct tags, need {K}")
    totals = np.bincount(counts.tag, weights=counts.users,
                         minlength=len(counts.tags))
    # codes follow sorted names, so the stable sort breaks ties by name
    ranked = np.argsort(-totals, kind="stable")[:K]
    return [counts.tags[j] for j in ranked.tolist()]


def _positions(names, chosen) -> np.ndarray:
    """Each of ``names``' position in ``chosen``, -1 where absent."""
    at = {name: i for i, name in enumerate(chosen)}
    return np.array([at.get(name, -1) for name in names], dtype=np.intp)


def binarize(counts: Counts, vocab, min_positive: int,
             items=None) -> ThreeStateTagMatrix:
    """count >= min_positive -> POSITIVE, count 0 -> NEGATIVE,
    in between -> UNKNOWN (single counts are too plausible to be
    negatives)."""
    if min_positive not in (1, 2):
        raise ValueError("min_positive must be 1 or 2")
    if items is None:
        items = [counts.items[i] for i in np.unique(counts.item).tolist()]
    row = _positions(counts.items, items)[counts.item]
    col = _positions(counts.tags, vocab)[counts.tag]
    keep = (row >= 0) & (col >= 0)
    cells = np.full((len(items), len(vocab)), NEGATIVE, dtype=np.int8)
    cells[row[keep], col[keep]] = np.where(
        counts.users[keep] >= min_positive, POSITIVE, UNKNOWN)
    return ThreeStateTagMatrix(list(items), list(vocab), cells)


def normalize_features(X: np.ndarray) -> np.ndarray:
    """The (N, D) features X standardized per dimension with population
    statistics, then scaled to unit Euclidean norm per row; constant
    dimensions map to zero."""
    if X.shape[0] < 2:
        raise ValueError("need at least 2 items to standardize")
    std = X.std(axis=0)  # population variance
    Z = X - X.mean(axis=0)  # the one (N, D) array built
    Z /= np.where(std > 0, std, 1.0)
    Z[:, ~(std > 0)] = 0.0  # a NaN or inf std too
    norms = np.linalg.norm(Z, axis=1)
    Z /= np.where(norms > 0, norms, 1.0)[:, None]
    Z[~(norms > 0)] = 0.0  # -0.0 and NaN rows too
    return Z


def make_folds(n_items: int, seed: int) -> FoldSplit:
    """Seeded uniform partition into N_FOLDS near-equal folds."""
    if n_items < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} items")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_items)
    folds = [sorted(order[f::N_FOLDS].tolist()) for f in range(N_FOLDS)]
    return FoldSplit(folds)


def _blocks(path):
    """(number of its first line, text) for each run of whole lines of
    about BLOCK characters in the tab file at ``path``, every line ending
    in a newline.  The file is read as UTF-8 with universal newlines; a
    leading byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        first, carry = 1, ""
        while chunk := fh.read(BLOCK):
            text = carry + chunk
            cut = text.rfind("\n") + 1
            carry = text[cut:]
            if cut:
                yield first, text[:cut]
                first += text.count("\n", 0, cut)
        if carry:
            yield first, carry + "\n"


# read_triples and read_matrix check each block whole, walking its lines
# only to name the first fault: checked line by line (tests/test_data.py's
# references), corpus-20k's 404k triples, read by every ingest, took 0.56 s
# not 0.31, and its 20k-row matrix, read by every train and eval, 0.087 s
# not 0.027 (min of 9, one Xeon core).  read_features and read_items check
# line by line only: float() per field costs the same either way.
def _split(text):
    """A block's nonblank lines, for whole-block checks: the number of
    tabs on each line, and all their tab-separated fields in one list."""
    if text.startswith("\n") or "\n\n" in text:
        text = "".join(line + "\n" for line in text.split("\n") if line)
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(raw[(raw == 9) | (raw == 10)] == 10)
    fields = text.replace("\n", "\t").split("\t")
    fields.pop()  # after the last newline
    return np.diff(ends, prepend=-1) - 1, fields


def _lines(first, text):
    """(line number, line) for each nonblank line of a block."""
    return ((lineno, line) for lineno, line in
            enumerate(text.split("\n")[:-1], first) if line)


def _first_fault(first, text, check, skip=0):
    """Walk a block that failed a whole-block check line by line, after
    its first ``skip`` nonblank lines: ``check(lineno, fields)`` raises
    at the first bad line."""
    for lineno, line in itertools.islice(_lines(first, text), skip, None):
        check(lineno, line.split("\t"))
    raise AssertionError("a block failed its check but none of its lines")


def rows_of(labels, array):
    """(label, row as a list) for each row of a 2-D array, converted ROWS
    rows at a time, so no whole-table list is built."""
    for start in range(0, len(array), ROWS):
        yield from zip(labels[start:start + ROWS],
                       array[start:start + ROWS].tolist())


def write_rows(path, rows):
    """Every tab-separated file multitag writes: one line per row, each
    field as ``str`` writes it (a Python float as its ``repr``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def read_triples(path) -> Triples:
    """Triples file: user, item, tag per line, no field empty."""
    def check(lineno, parts):
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 columns, "
                             f"got {len(parts)}")
        if "" in parts:
            raise ValueError(f"{path}:{lineno}: triple fields must be "
                             f"nonempty")

    def name_columns():
        for first, text in _blocks(path):
            tabs, fields = _split(text)
            if (tabs != 2).any() or "" in fields:
                _first_fault(first, text, check)
            yield fields[0::3], fields[1::3], fields[2::3]

    return _code(name_columns())


def read_features(path):
    """Features file: item id, then D finite floats per line; item ids
    must be unique.  Returns the ids in file order and their (N, D)
    array."""
    items, blocks, width = {}, [], None  # items: id -> line, file order
    for first, text in _blocks(path):
        values, start = [], len(items)
        for lineno, line in _lines(first, text):
            item, *fields = line.split("\t")
            if item in items:
                raise ValueError(f"{path}:{lineno}: duplicate item id "
                                 f"{item!r}")
            items[item] = lineno
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} "
                                 f"features, got {len(fields)}")
            try:
                values += map(float, fields)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad float") from exc
        if len(items) > start:
            blocks.append(np.array(values).reshape(len(items) - start, width))
    if not items:
        raise ValueError(f"{path}: no feature rows")
    X = np.concatenate(blocks)
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        lineno = list(items.values())[int(np.argmax(bad))]
        raise ValueError(f"{path}:{lineno}: non-finite feature value")
    return list(items), X


def write_features(path, items, X):
    write_rows(path, ([item, *row] for item, row in rows_of(items, X)))


def write_ingested(directory, matrix: ThreeStateTagMatrix, X):
    """The ingested ``directory``, made if need be: vocab.txt, the
    matrix's tags one per line; matrix.tsv; features.tsv, the (N, D)
    features X as text for people, which no command reads; features.npy,
    X's array; and, last, items.txt, the matrix's item ids one per line
    in row order."""
    os.makedirs(directory, exist_ok=True)
    write_rows(os.path.join(directory, "vocab.txt"),
               ([tag] for tag in matrix.vocab))
    write_matrix(os.path.join(directory, "matrix.tsv"), matrix)
    write_features(os.path.join(directory, "features.tsv"), matrix.items, X)
    np.save(os.path.join(directory, "features.npy"), X)
    write_rows(os.path.join(directory, "items.txt"),
               ([item] for item in matrix.items))


def read_ingested(directory):
    """The (matrix, X) of an ingested directory: matrix.tsv, which must
    have a tag column, and features.npy, a finite float64 (N, D) array
    with one row per id of items.txt, which must list matrix.tsv's items
    in order.  Any fault is a ValueError that names the file."""
    table = os.path.join(directory, "matrix.tsv")
    matrix = read_matrix(table)
    if not matrix.vocab:
        raise ValueError(f"{table}: no tag columns")
    listed = path = os.path.join(directory, "items.txt")
    try:
        with open(path, encoding="utf-8") as fh:
            items = fh.read().split("\n")[:-1]  # a blank line is an empty id
        path = os.path.join(directory, "features.npy")
        with open(path, "rb") as fh:
            X = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file; re-run ingest") from None
    except ValueError as exc:  # not UTF-8; truncated, pickled or not .npy
        raise ValueError(f"{path}: {exc}") from None
    if X.dtype != np.float64 or X.ndim != 2 or len(X) != len(items):
        raise ValueError(f"{path}: expected a float64 ({len(items)}, D) "
                         f"array, one row per id of items.txt, got "
                         f"{X.dtype} {X.shape}")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: non-finite feature value for item "
                         f"{items[int(np.argmax(bad))]!r}")
    if items != matrix.items:
        row = next((row for row, pair in enumerate(zip(items, matrix.items))
                    if pair[0] != pair[1]), None)
        if row is None:  # one file lists the other's items and more
            raise ValueError(f"{listed} lists {len(items)} items, {table} "
                             f"{len(matrix.items)}")
        raise ValueError(f"{listed}:{row + 1} and {table}:{row + 2} name "
                         f"different items")
    return matrix, X


def read_matrix(path) -> ThreeStateTagMatrix:
    """Matrix file: a header of ``item`` and the vocabulary, then one
    item id and C cells of P, N or U per line; item ids must be
    unique."""
    vocab, items, blocks = None, [], []
    seen = set()  # the ids of the lines read so far

    def check(lineno, parts):
        if parts[0] in seen:
            raise ValueError(f"{path}:{lineno}: duplicate item id "
                             f"{parts[0]!r}")
        seen.add(parts[0])
        if len(parts) - 1 != len(vocab):
            raise ValueError(f"{path}:{lineno}: expected {len(vocab)} "
                             f"cells, got {len(parts) - 1}")
        for cell in parts[1:]:
            if cell not in CHAR_STATES:
                raise ValueError(f"{path}:{lineno}: unknown cell {cell!r}")

    for first, text in _blocks(path):
        tabs, fields = _split(text)
        skip = 0
        if vocab is None and tabs.size:
            head = int(tabs[0]) + 1
            vocab, fields, tabs, skip = fields[1:head], fields[head:], \
                tabs[1:], 1
        if not tabs.size:
            continue
        C = len(vocab)
        ids = fields[::C + 1]
        del fields[::C + 1]
        # each cell one byte exactly when the joined cells alternate with
        # the tabs between them
        raw = np.frombuffer("\t".join(fields).encode("utf-8"), np.uint8)
        states = _CELL_BYTES[raw[::2]]
        fresh = set(ids)
        if ((tabs != C).any() or raw.size != max(2 * len(fields) - 1, 0)
                or (states == _NOT_A_CELL).any() or len(fresh) < len(ids)
                or not seen.isdisjoint(fresh)):
            _first_fault(first, text, check, skip)
        seen |= fresh
        items += ids
        blocks.append(states.reshape(len(ids), C))
    vocab = vocab or []
    cells = (np.concatenate(blocks) if blocks
             else np.empty((0, len(vocab)), dtype=np.int8))
    return ThreeStateTagMatrix(items, vocab, cells)


def write_matrix(path, matrix: ThreeStateTagMatrix):
    """The matrix file ``read_matrix`` reads, in ``write_rows``' format.
    What follows each item id, a tab before each cell and the newline,
    is built for every row at once as one block of bytes."""
    width = 2 * matrix.cells.shape[1] + 1
    block = np.full((len(matrix.cells), width), ord("\t"), dtype=np.uint8)
    block[:, 1::2] = _STATE_BYTES[matrix.cells]
    block[:, -1] = ord("\n")
    text = block.tobytes().decode("ascii")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["item", *matrix.vocab]) + "\n")
        fh.writelines(item + text[k:k + width] for k, item in
                      zip(range(0, len(text), width), matrix.items))


def read_items(path) -> dict:
    """Optional items file: item id -> track id; item ids must be
    unique."""
    mapping = {}
    for first, text in _blocks(path):
        for lineno, line in _lines(first, text):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, "
                                 f"got {len(parts)}")
            if parts[0] in mapping:
                raise ValueError(f"{path}:{lineno}: duplicate item id "
                                 f"{parts[0]!r}")
            mapping[parts[0]] = parts[1]
    return mapping
