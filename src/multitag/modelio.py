"""Shared model file format: a self-describing text document holding the
model kind, dimensions, the tag vocabulary, and every parameter array as
named rows of decimal floats.  Floats are written with shortest
round-trip precision, so save -> load reproduces every value bit-exactly.
A line ends at "\n" only (universal newlines fold "\r\n" and "\r" into
it), so a tag may hold any other character, form feeds included.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .baselines import LogRegParams, MlpParams
from .core import DrbmParams
from .estimators import GaussianRbmParams
from .smoother import SmootherParams

FORMAT_HEADER = "multitag-model 1"
# kind name -> parameter class; a class writes its dims and arrays as
# its SHAPES declare them
KINDS = {cls.KIND: cls for cls in (DrbmParams, GaussianRbmParams,
                                   SmootherParams, MlpParams, LogRegParams)}
# the dim lines of a smoother's aux_sizes
AUX_DIMS = ("users", "tracks", "clips")
# keyword -> the number of words on its line
ARITY = {"kind": 2, "dim": 3, "vocab": 2, "array": 4}


class ModelFormatError(ValueError):
    pass


def _write_array(fh, name, a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    fh.write(f"array {name} {a.shape[0]} {a.shape[1]}\n")
    for row in a:
        fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _file_dims(model) -> dict:
    """The dim lines of a model: its dims, and a smoother's aux_sizes."""
    aux = dict(zip(AUX_DIMS, getattr(model, "aux_sizes", ())))
    return {**model.dims, **aux}


def save_model(path, model, vocab):
    """Write any KINDS parameter object with its tag vocabulary: its
    dims, then its arrays in declared order."""
    if KINDS.get(getattr(model, "KIND", None)) is not type(model):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if len(vocab) != model.C:
        raise ValueError(f"{len(vocab)} vocabulary entries for C={model.C} "
                         "tags")
    for tag in vocab:
        if "\n" in tag or "\r" in tag:
            raise ValueError(f"vocabulary entry {tag!r} holds a line end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write(f"kind {model.KIND}\n")
        for k, v in _file_dims(model).items():
            fh.write(f"dim {k} {v}\n")
        fh.write(f"vocab {len(vocab)}\n")
        for tag in vocab:
            fh.write(tag + "\n")
        for name, a in model.arrays().items():
            _write_array(fh, name, a)


def _counts(path, words, line):
    """The non-negative integers of a dim, vocab or array line."""
    try:
        counts = [int(w) for w in words]
    except ValueError:
        counts = [-1]
    if min(counts) < 0:
        raise ModelFormatError(f"{path}: bad count in {line!r}")
    return counts


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        lines = iter(fh.read().removesuffix("\n").split("\n"))
    if next(lines, None) != FORMAT_HEADER:
        raise ModelFormatError(f"{path}: missing format header")
    kind, dims, vocab, arrays = None, {}, [], {}
    seen = set()  # kind, vocab, (dim, name) and (array, name)
    for line in lines:
        if not line.strip():
            continue
        parts = line.split()
        if ARITY.get(parts[0]) != len(parts):
            raise ModelFormatError(f"{path}: unrecognized line {line!r}")
        key = tuple(parts[:2 if parts[0] in ("dim", "array") else 1])
        if key in seen:
            raise ModelFormatError(f"{path}: repeated line {line!r}")
        seen.add(key)
        if parts[0] == "kind":
            kind = parts[1]
        elif parts[0] == "dim":
            dims[parts[1]] = _counts(path, parts[2:], line)[0]
        elif parts[0] == "vocab":
            vocab = list(islice(lines, _counts(path, parts[1:], line)[0]))
        elif parts[0] == "array":
            name = parts[1]
            rows, cols = _counts(path, parts[2:], line)
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
            a = np.asarray(data, dtype=float).reshape(rows, cols)
            if not np.all(np.isfinite(a)):
                raise ModelFormatError(f"{path}: array {name}: non-finite entry")
            arrays[name] = a
    if kind is None:
        raise ModelFormatError(f"{path}: no model kind")
    return kind, dims, arrays, vocab


def load_model(path):
    """Read a model file; returns (parameter object, vocabulary).  Its
    dim lines and vocabulary length must agree with its arrays."""
    kind, dims, arrays, vocab = _parse(path)
    cls = KINDS.get(kind)
    if cls is None:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    odd = sorted(cls.SHAPES.keys() ^ arrays.keys())
    if odd:
        what = "missing" if odd[0] in cls.SHAPES else "unexpected"
        raise ModelFormatError(f"{path}: {what} array {odd[0]!r}")
    fields = {name: arrays[name].ravel() if len(axes) == 1 else arrays[name]
              for name, axes in cls.SHAPES.items()}
    if cls is SmootherParams:
        fields["aux_sizes"] = [dims.get(k, 0) for k in AUX_DIMS]
    try:
        model = cls(**fields)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    if dims != _file_dims(model):
        raise ModelFormatError(f"{path}: dim lines {dims} do not match the "
                               f"arrays' {_file_dims(model)}")
    if len(vocab) != model.C:
        raise ModelFormatError(f"{path}: {len(vocab)} vocabulary entries "
                               f"for C={model.C} tags")
    return model, vocab
