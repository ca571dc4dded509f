import codecs

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitag.baselines import LogRegParams, MlpParams
from multitag.core import DrbmParams, Params
from multitag.estimators import GaussianRbmParams
from multitag.kinds import KIND_TABLE, Kind
from multitag.modelio import (FORMAT_HEADER, ModelFormatError, load_model,
                              save_model)
from multitag.smoother import SmootherParams


def awkward(rng, shape):
    """Values that stress float serialization."""
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    flat = a.reshape(-1)
    flat[0] = 0.0
    if flat.size > 1:
        flat[1] = -1.0 / 3.0
    if flat.size > 2:
        flat[2] = 5e-324  # smallest subnormal
    return a


def declared_fields(cls, size):
    """Each of the class's FIELDS as the sizes its names have in
    ``size``."""
    return {field: tuple(size[d] for d in names)
            for field, names in cls.FIELDS.items()}


def small_model(kind, draw):
    """A model of ``kind`` at (n, C, D, H, A) = (2, 3, 4, 5, 6), A being
    (users, tracks, clips) = (1, 2, 3), every array drawn by
    ``draw(shape)``."""
    cls = KIND_TABLE[kind].params
    size = {"n": 2, "C": 3, "D": 4, "H": 5, "A": 6, "users": 1, "tracks": 2,
            "clips": 3}
    return cls(**{name: draw(tuple(size[d] for d in axes))
                  for name, axes in cls.SHAPES.items()},
               **declared_fields(cls, size))


def assert_loads_to(path, p, vocab):
    """Load ``path``, asserting p's type, arrays bit for bit, FIELDS and
    vocab."""
    q, vocab_q = load_model(path)
    assert type(q) is type(p) and vocab_q == vocab
    assert {f: getattr(q, f) for f in p.FIELDS} == {
        f: getattr(p, f) for f in p.FIELDS}
    for name, a in p.arrays().items():
        b = getattr(q, name)
        assert (b.shape, b.tobytes()) == (a.shape, a.tobytes())
    return q


class TestRoundTrip:
    def test_drbm_bit_exact(self, rng, tmp_path):
        p = DrbmParams(awkward(rng, (3, 4)), awkward(rng, (3, 5)),
                       awkward(rng, 3), awkward(rng, 4))
        save_model(tmp_path / "m.model", p, ["a", "b", "c", "d"])
        assert_loads_to(tmp_path / "m.model", p, ["a", "b", "c", "d"])

    def test_grbm_bit_exact(self, rng, tmp_path):
        p = GaussianRbmParams(awkward(rng, (2, 3)), awkward(rng, (2, 4)),
                              awkward(rng, 2), awkward(rng, 3), awkward(rng, 4))
        path = tmp_path / "m.model"
        save_model(path, p, ["a", "b", "c"])
        # a GaussianRbmParams is a DrbmParams too, but keeps its own kind
        assert path.read_text().splitlines()[1] == "kind grbm"
        assert_loads_to(path, p, ["a", "b", "c"])

    def test_smoother_bit_exact(self, rng, tmp_path):
        p = SmootherParams(awkward(rng, (2, 3)), awkward(rng, (2, 3)),
                           awkward(rng, (3, 6)), awkward(rng, 2),
                           awkward(rng, 3), (2, 2, 2))
        save_model(tmp_path / "m.model", p, ["a", "b", "c"])
        q = assert_loads_to(tmp_path / "m.model", p, ["a", "b", "c"])
        assert q.aux_sizes == (2, 2, 2)

    def test_mlp_bit_exact(self, rng, tmp_path):
        p = MlpParams(awkward(rng, (4, 3)), awkward(rng, 3),
                      awkward(rng, (3, 2)), awkward(rng, 2))
        save_model(tmp_path / "m.model", p, ["a", "b"])
        assert_loads_to(tmp_path / "m.model", p, ["a", "b"])

    def test_logreg_bit_exact(self, rng, tmp_path):
        p = LogRegParams(awkward(rng, (4, 2)), awkward(rng, 2))
        save_model(tmp_path / "m.model", p, ["a", "b"])
        assert_loads_to(tmp_path / "m.model", p, ["a", "b"])

    # every line boundary of str.splitlines but "\n" and "\r"
    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"],
                             ids=lambda sep: f"U+{ord(sep):04X}")
    def test_tag_holding_a_line_separator(self, tmp_path, sep):
        path = tmp_path / "m.model"
        vocab = [f"form{sep}feed", sep]
        save_model(path, LogRegParams(np.zeros((3, 2)), np.zeros(2)), vocab)
        assert load_model(path)[1] == vocab

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(KIND_TABLE)),
           sizes=st.lists(st.integers(1, 4), min_size=7, max_size=7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_save_load_save_is_identity(self, tmp_path_factory, kind, sizes,
                                        seed):
        # every kind at random shapes: the second save writes the bytes
        # of the first, and load gives back the type and every array
        cls = KIND_TABLE[kind].params
        size = dict(zip(("n", "C", "D", "H", "users", "tracks", "clips"),
                        sizes))
        # the identity block spans the users, tracks and clips blocks
        size["A"] = size["users"] + size["tracks"] + size["clips"]
        rng = np.random.default_rng(seed)
        p = cls(**{name: awkward(rng, tuple(size[d] for d in axes))
                   for name, axes in cls.SHAPES.items()},
                **declared_fields(cls, size))
        vocab = [f"tag{j}" for j in range(size["C"])]
        root = tmp_path_factory.mktemp("round-trip")
        first, second = root / "first.model", root / "second.model"
        save_model(first, p, vocab)
        q = assert_loads_to(first, p, vocab)
        save_model(second, q, vocab)
        assert second.read_bytes() == first.read_bytes()
        assert q.arrays().keys() == p.arrays().keys()

    @pytest.mark.parametrize("kind", sorted(KIND_TABLE))
    def test_crlf_line_ends_load_as_lf(self, rng, tmp_path, kind):
        p, path = small_model(kind, lambda s: awkward(rng, s)), tmp_path / "m"
        save_model(path, p, ["t0", "t 1", "t\f2"])
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert_loads_to(path, p, ["t0", "t 1", "t\f2"])

    @pytest.mark.parametrize("kind", sorted(KIND_TABLE))
    def test_a_byte_order_mark_is_dropped(self, rng, tmp_path, kind):
        # as in every other input file; the mark was read as part of the
        # header, which failed
        p, path = small_model(kind, lambda s: awkward(rng, s)), tmp_path / "m"
        save_model(path, p, ["t0", "t 1", "t\f2"])
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert_loads_to(path, p, ["t0", "t 1", "t\f2"])

    def test_dim_lines_follow_the_declared_shapes(self, rng, tmp_path):
        p = SmootherParams.random_init(2, 3, (1, 2, 4), rng)
        path = tmp_path / "m.model"
        save_model(path, p, ["a", "b", "c"])
        assert [line for line in path.read_text().splitlines()
                if line.startswith("dim ")] == [
            "dim n 2", "dim C 3", "dim A 7", "dim users 1", "dim tracks 2",
            "dim clips 4"]

    def test_save_is_deterministic(self, rng, tmp_path):
        p = DrbmParams(awkward(rng, (2, 2)), awkward(rng, (2, 3)),
                       awkward(rng, 2), awkward(rng, 2))
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        save_model(a, p, ["t0", "t1"])
        save_model(b, p, ["t0", "t1"])
        assert a.read_bytes() == b.read_bytes()


class SpanParams(Params):
    """A kind declared only here, with a field that is not an array."""
    KIND = "span"
    SHAPES = {"W": ("D", "C"), "b": ("C",)}
    FIELDS = {"span": ("first", "last")}


class TestAKindFromItsDeclaration:
    def test_a_new_field_round_trips(self, rng, tmp_path, monkeypatch):
        # save_model and load_model read the kind's SHAPES and FIELDS,
        # so a new kind needs no change to the model file's code
        monkeypatch.setitem(KIND_TABLE, SpanParams.KIND,
                            Kind(SpanParams, (), fit=None))
        p = SpanParams(awkward(rng, (4, 2)), awkward(rng, 2), (7, 11))
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        save_model(first, p, ["a", "b"])
        assert first.read_text().split("\n")[:7] == [
            FORMAT_HEADER, "kind span", "dim D 4", "dim C 2", "dim first 7",
            "dim last 11", "vocab 2"]
        q = assert_loads_to(first, p, ["a", "b"])
        assert q.span == (7, 11)
        save_model(second, q, ["a", "b"])
        assert second.read_bytes() == first.read_bytes()


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("something else\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.model"
        path.write_bytes(b"")
        with pytest.raises(ModelFormatError, match=f"expected "
                           f"'{FORMAT_HEADER}', found the end of the file$"):
            load_model(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(f"{FORMAT_HEADER}\nkind mystery\nvocab 0\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_array(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(f"{FORMAT_HEADER}\nkind logreg\ndim D 2\ndim C 1\n"
                        "vocab 1\nt0\narray W 2 1\n0.5\n0.25\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_entry(self, tmp_path, value):
        path = tmp_path / "bad.model"
        path.write_text(f"{FORMAT_HEADER}\nkind logreg\ndim D 2\ndim C 1\n"
                        f"vocab 1\nt0\narray W 2 1\n0.5\n{value}\n"
                        "array b 1 1\n0.0\n")
        with pytest.raises(ModelFormatError,
                           match=f"^{path}: array W: non-finite entry$"):
            load_model(path)

    def test_not_utf8_names_file_and_line(self, rng, tmp_path):
        path = tmp_path / "m.model"
        save_model(path, DrbmParams.random_init(2, 3, 4, rng), ["a", "b", "c"])
        lines = path.read_bytes().split(b"\n")
        lines[5] = b"\xff\xfe" + lines[5]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}:6: not UTF-8: byte 0xff"

    def test_garbage_line(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(f"{FORMAT_HEADER}\nkind logreg\nwhatnow 3\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "m.model", object(), [])

    @pytest.mark.parametrize("old, new, message", [
        # a vector one entry long was broadcast to its C or H entries
        ("array b 1 2\n0.5 -0.5\n", "array b 1 1\n0.5\n",
         "expected 'array b 1 2', found 'array b 1 1'"),
        ("vocab 2\nt0\nt1\n", "vocab 1\nt0\n",
         "expected 'vocab 2', found 'vocab 1'"),
        ("dim D 3\n", "dim D 4\n",
         "expected 'array W 4 2', found 'array W 3 2'"),
        ("dim C 2\n", "", "expected 'dim C ...', found 'vocab 2'"),
        ("array b 1 2\n0.5 -0.5\n", "array b 1 2\n0.5 -0.5\narray V 1 1\n0.0\n",
         "expected the end of the file, found 'array V 1 1'"),
        ("array b 1 2\n0.5 -0.5\n", "array b 2 2\n0.5 -0.5\n",
         "expected 'array b 1 2', found 'array b 2 2'"),
        ("array b 1 2\n0.5 -0.5\n", "array b 1 2\n", "array b truncated"),
        ("kind logreg\n", "kind\n", "expected 'kind ...', found 'kind'"),
        # a count or entry that was no number was a bare ValueError, and
        # a negative vocab count sent the parser back in a loop
        ("dim C 2\n", "dim C two\n", "bad count in 'dim C two'"),
        ("dim D 3\n", "dim D -3\n", "bad count in 'dim D -3'"),
        ("vocab 2\n", "vocab 2.0\n", "expected 'vocab 2', found 'vocab 2.0'"),
        ("vocab 2\n", "vocab -1\n", "expected 'vocab 2', found 'vocab -1'"),
        ("array b 1 2\n", "array b one 2\n",
         "expected 'array b 1 2', found 'array b one 2'"),
        ("array b 1 2\n0.5 -0.5\n", "array b 1 2\n0.5 half\n",
         "array b: non-numeric entry"),
        ("array b 1 2\n0.5 -0.5\n", "array b 1 2\n0.5 -0.5 1.0\n",
         "array b shape mismatch"),
        # a second line of one kind, vocab, dim or array: the last won
        ("kind logreg\n", "kind logreg\nkind logreg\n",
         "expected 'dim D ...', found 'kind logreg'"),
        ("vocab 2\nt0\nt1\n", "vocab 2\nt0\nt1\nvocab 2\nt1\nt0\n",
         "expected 'array W 3 2', found 'vocab 2'"),
        ("dim C 2\n", "dim C 2\ndim C 2\n",
         "expected 'vocab 2', found 'dim C 2'"),
        ("array b 1 2\n0.5 -0.5\n",
         "array b 1 2\n0.5 -0.5\narray b 1 2\n1.0 2.0\n",
         "expected the end of the file, found 'array b 1 2'"),
    ], ids=["short-b", "vocab-count", "dim-value", "dim-missing",
            "extra-array", "truncated", "truncated-end", "short-line",
            "dim-word", "dim-negative", "vocab-float", "vocab-negative",
            "array-count", "array-entry", "array-ragged", "repeated-kind",
            "repeated-vocab", "repeated-dim", "repeated-array"])
    def test_file_disagreeing_with_its_arrays(self, tmp_path, old, new,
                                              message):
        path = tmp_path / "bad.model"
        save_model(path, LogRegParams(np.zeros((3, 2)), [0.5, -0.5]),
                   ["t0", "t1"])
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)

    @pytest.mark.parametrize("kind", sorted(KIND_TABLE))
    def test_structural_edits_are_rejected(self, rng, tmp_path, kind):
        # each line has one place, the one save_model writes it in: a line
        # deleted or doubled, or two neighbouring keyword lines swapped,
        # is an error (a swap of "dim n" and "dim C" once loaded)
        path = tmp_path / "m.model"
        model = small_model(kind, lambda shape: rng.normal(size=shape))
        save_model(path, model, ["t0", "t1", "t2"])
        lines = path.read_text().split("\n")[:-1]
        edits = {}
        for i, line in enumerate(lines):
            edits[f"delete {line!r}"] = lines[:i] + lines[i + 1:]
            edits[f"double {line!r}"] = lines[:i + 1] + lines[i:]
        keyword = [i for i, line in enumerate(lines)
                   if line.split()[0] in ("kind", "dim", "vocab", "array")]
        for i, j in zip(keyword, keyword[1:]):
            swapped = list(lines)
            swapped[i], swapped[j] = lines[j], lines[i]
            edits[f"swap {lines[i]!r} and {lines[j]!r}"] = swapped
        accepted = []
        for name, edit in edits.items():
            if edit == lines:
                continue
            path.write_text("".join(line + "\n" for line in edit))
            try:
                load_model(path)
            except ModelFormatError:
                continue
            accepted.append(name)
        assert accepted == []

    def test_smoother_blocks_not_summing_to_its_aux_width(self, rng,
                                                          tmp_path):
        path = tmp_path / "bad.model"
        save_model(path, SmootherParams.random_init(2, 3, (1, 2, 4), rng),
                   ["a", "b", "c"])
        path.write_text(path.read_text().replace("dim users 1\n",
                                                 "dim users 2\n"))
        with pytest.raises(ModelFormatError, match="aux_sizes must be three "
                           r"block sizes summing to A=7, got \(2, 2, 4\)$"):
            load_model(path)

    def test_short_mlp_hidden_bias(self, rng, tmp_path):
        path = tmp_path / "bad.model"
        save_model(path, MlpParams.random_init(2, 3, 2, rng), ["t0", "t1"])
        text = path.read_text()
        assert "array b1 1 3\n0.0 0.0 0.0\n" in text
        path.write_text(text.replace("array b1 1 3\n0.0 0.0 0.0\n",
                                     "array b1 1 1\n0.0\n"))
        with pytest.raises(ModelFormatError, match="expected 'array b1 1 3', "
                           "found 'array b1 1 1'"):
            load_model(path)

    @pytest.mark.parametrize("model, vocab", [
        (LogRegParams(np.zeros((3, 2)), np.zeros(2)), ["a", "b", "c"]),
        (LogRegParams(np.zeros((3, 2)), np.zeros(2)), ["a"]),
        (DrbmParams(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2),
                    np.zeros(3)), []),
    ], ids=["logreg-long", "logreg-short", "drbm-empty"])
    def test_save_refuses_a_vocabulary_of_the_wrong_length(self, tmp_path,
                                                           model, vocab):
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match=f"^{len(vocab)} vocabulary "
                           f"entries for C={model.C} tags$"):
            save_model(path, model, vocab)
        assert not path.exists()

    @pytest.mark.parametrize("tag", ["a\nb", "a\r", "\r\n"])
    def test_save_refuses_a_tag_holding_a_line_end(self, tmp_path, tag):
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match="holds a line end$"):
            save_model(path, LogRegParams(np.zeros((3, 2)), np.zeros(2)),
                       ["t0", tag])
        assert not path.exists()
