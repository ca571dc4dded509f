"""Shared model file format: a self-describing text document holding the
model kind, dimensions, the tag vocabulary, and every parameter array as
named rows of decimal floats.  Floats are written with shortest
round-trip precision, so save -> load reproduces every value bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .baselines import LogRegParams, MlpParams
from .core import DrbmParams
from .estimators import GaussianRbmParams
from .smoother import SmootherParams

FORMAT_HEADER = "multitag-model 1"


class ModelFormatError(ValueError):
    pass


def _write_array(fh, name, a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    fh.write(f"array {name} {a.shape[0]} {a.shape[1]}\n")
    for row in a:
        fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _emit(fh, kind, dims, arrays, vocab):
    fh.write(FORMAT_HEADER + "\n")
    fh.write(f"kind {kind}\n")
    for k, v in dims.items():
        fh.write(f"dim {k} {v}\n")
    fh.write(f"vocab {len(vocab)}\n")
    for tag in vocab:
        fh.write(tag + "\n")
    for name, a in arrays.items():
        _write_array(fh, name, a)


def save_model(path, model, vocab):
    """Write any supported parameter object with its tag vocabulary."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(model, GaussianRbmParams):  # before its DrbmParams base
            _emit(fh, "grbm", {"n": model.n, "C": model.C, "D": model.D},
                  {"U": model.U, "W": model.W, "c": model.c, "d": model.d,
                   "bx": model.bx}, vocab)
        elif isinstance(model, DrbmParams):
            _emit(fh, "drbm", {"n": model.n, "C": model.C, "D": model.D},
                  {"U": model.U, "W": model.W, "c": model.c, "d": model.d}, vocab)
        elif isinstance(model, SmootherParams):
            users, tracks, clips = model.aux_sizes
            _emit(fh, "smoother",
                  {"n": model.n, "C": model.C, "A": model.A,
                   "users": users, "tracks": tracks, "clips": clips},
                  {"U": model.U, "W": model.W, "V": model.V,
                   "c": model.c, "d": model.d}, vocab)
        elif isinstance(model, MlpParams):
            _emit(fh, "mlp", {"D": model.D, "H": model.H, "C": model.C},
                  {"W1": model.W1, "b1": model.b1, "W2": model.W2,
                   "b2": model.b2}, vocab)
        elif isinstance(model, LogRegParams):
            _emit(fh, "logreg", {"D": model.D, "C": model.C},
                  {"W": model.W, "b": model.b}, vocab)
        else:
            raise TypeError(f"unsupported model type {type(model).__name__}")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ModelFormatError(f"{path}: missing format header")
    i = 1
    kind = None
    dims = {}
    vocab = []
    arrays = {}
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "kind":
            kind = parts[1]
        elif parts[0] == "dim":
            dims[parts[1]] = int(parts[2])
        elif parts[0] == "vocab":
            count = int(parts[1])
            vocab = lines[i:i + count]
            i += count
        elif parts[0] == "array":
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
            data = [[float(v) for v in lines[i + r].split()] for r in range(rows)]
            i += rows
            a = np.asarray(data, dtype=float)
            if a.shape != (rows, cols):
                raise ModelFormatError(f"{path}: array {name} shape mismatch")
            if not np.all(np.isfinite(a)):
                raise ModelFormatError(f"{path}: array {name}: non-finite entry")
            arrays[name] = a
        else:
            raise ModelFormatError(f"{path}: unrecognized line {line!r}")
    if kind is None:
        raise ModelFormatError(f"{path}: no model kind")
    return kind, dims, arrays, vocab


def load_model(path):
    """Read a model file; returns (parameter object, vocabulary)."""
    kind, dims, arrays, vocab = _parse(path)
    vec = lambda name: arrays[name].ravel()
    try:
        if kind == "drbm":
            return DrbmParams(arrays["U"], arrays["W"], vec("c"), vec("d")), vocab
        if kind == "grbm":
            return GaussianRbmParams(arrays["U"], arrays["W"], vec("c"),
                                     vec("d"), vec("bx")), vocab
        if kind == "smoother":
            sizes = (dims["users"], dims["tracks"], dims["clips"])
            return SmootherParams(arrays["U"], arrays["W"], arrays["V"],
                                  vec("c"), vec("d"), sizes), vocab
        if kind == "mlp":
            return MlpParams(arrays["W1"], vec("b1"), arrays["W2"], vec("b2")), vocab
        if kind == "logreg":
            return LogRegParams(arrays["W"], vec("b")), vocab
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing array {exc}") from exc
    raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
