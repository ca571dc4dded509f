"""Shared model file format: a self-describing text document holding the
model kind, dimensions, the tag vocabulary, and every parameter array as
named rows of decimal floats.  Floats are written with shortest
round-trip precision, so save -> load reproduces every value bit-exactly.
Lines are read by `data.read_lines`: a line ends at "\n" only (universal
newlines fold "\r\n" and "\r" into it), so a tag may hold any other
character, form feeds included.
"""

from __future__ import annotations

from itertools import chain, islice

import numpy as np

from .baselines import LogRegParams, MlpParams
from .core import DrbmParams
from .data import read_lines
from .estimators import GaussianRbmParams
from .smoother import SmootherParams

FORMAT_HEADER = "multitag-model 1"
# kind name -> parameter class; a class writes its dims and arrays as
# its SHAPES declare them, and its other fields as its FIELDS do
KINDS = {cls.KIND: cls for cls in (DrbmParams, GaussianRbmParams,
                                   SmootherParams, MlpParams, LogRegParams)}


class ModelFormatError(ValueError):
    pass


def save_model(path, model, vocab):
    """Write any KINDS parameter object with its tag vocabulary: its
    dims, the sizes its FIELDS hold, and its arrays in declared order."""
    if KINDS.get(getattr(model, "KIND", None)) is not type(model):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if len(vocab) != model.C:
        raise ValueError(f"{len(vocab)} vocabulary entries for C={model.C} "
                         "tags")
    for tag in vocab:
        if "\n" in tag or "\r" in tag:
            raise ValueError(f"vocabulary entry {tag!r} holds a line end")
    dims = model.dims
    for field, names in model.FIELDS.items():
        dims.update(zip(names, getattr(model, field), strict=True))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write(f"kind {model.KIND}\n")
        for k, v in dims.items():
            fh.write(f"dim {k} {v}\n")
        fh.write(f"vocab {len(vocab)}\n")
        for tag in vocab:
            fh.write(tag + "\n")
        for name, a in model.arrays().items():
            a = np.atleast_2d(a)
            fh.write(f"array {name} {a.shape[0]} {a.shape[1]}\n")
            fh.writelines(" ".join(map(repr, row)) + "\n"
                          for row in a.tolist())


def load_model(path):
    """Read a model file; returns (parameter object, vocabulary).  The
    file must hold the lines `save_model` writes, in its order: the
    header, the kind, one dim line per dim in SHAPES order and then per
    size that FIELDS names, `vocab C` and its C tags, each array in
    SHAPES order headed by the shape its dims give, and nothing after
    the last array.  The parameter class checks the values."""
    lines = iter(read_lines(path))

    def expect(want):
        """The last word of the next line, whose words must be those of
        ``want``; a last word "..." in ``want`` stands for any word."""
        line = next(lines, None)
        words, head = ("" if line is None else line).split(), want.split()
        if (len(words) != len(head) or words[:-1] != head[:-1]
                or head[-1] not in ("...", words[-1])):
            found = "the end of the file" if line is None else repr(line)
            raise ModelFormatError(f"{path}: expected {want!r}, found {found}")
        return words[-1]

    expect(FORMAT_HEADER)
    kind = expect("kind ...")
    cls = KINDS.get(kind)
    if cls is None:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    dims = {}
    for dim in dict.fromkeys(chain(*cls.SHAPES.values(),
                                   *cls.FIELDS.values())):
        size = expect(f"dim {dim} ...")
        if not (size.isascii() and size.isdigit()):
            raise ModelFormatError(f"{path}: bad count in 'dim {dim} {size}'")
        dims[dim] = int(size)
    expect(f"vocab {dims['C']}")
    vocab = list(islice(lines, dims["C"]))
    fields = {field: tuple(dims[d] for d in names)
              for field, names in cls.FIELDS.items()}
    for name, axes in cls.SHAPES.items():
        shape = tuple(dims[d] for d in axes)
        rows, cols = shape if len(shape) == 2 else (1, *shape)
        expect(f"array {name} {rows} {cols}")
        block = list(islice(lines, rows))
        if len(block) < rows:
            raise ModelFormatError(f"{path}: array {name} truncated")
        try:
            data = [[float(v) for v in row.split()] for row in block]
        except ValueError:
            raise ModelFormatError(f"{path}: array {name}: non-numeric "
                                   "entry") from None
        if any(len(row) != cols for row in data):
            raise ModelFormatError(f"{path}: array {name} shape mismatch")
        fields[name] = np.asarray(data, dtype=float).reshape(shape)
    rest = next(lines, None)
    if rest is not None:
        raise ModelFormatError(f"{path}: expected the end of the file, found "
                               f"{rest!r}")
    try:
        return cls(**fields), vocab
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
