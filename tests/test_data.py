import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INGESTED_DEFECTS, as_dict, break_ingested, coded
from multitag import data as dt
from multitag.data import (CHAR_STATES, NEGATIVE, POSITIVE, UNKNOWN,
                           ThreeStateTagMatrix, Triples, binarize, condense,
                           make_folds, normalize_features, read_features,
                           read_ingested, read_items, read_matrix,
                           read_triples, select_vocab, write_features,
                           write_ingested, write_matrix)

NAMES = st.sampled_from(["u1", "u2", "a", "b", "rock", "jazz"])


class TestTriples:
    @given(st.lists(st.tuples(NAMES, NAMES, NAMES), max_size=20))
    @settings(max_examples=50)
    def test_codes_decode_to_the_rows(self, rows):
        triples = Triples.from_rows(rows)
        for names, column in zip(triples[:3], zip(*rows) if rows else
                                 ((), (), ())):
            assert names == sorted(set(column))
        assert triples.codes.shape == (len(rows), 3)
        assert [(triples.users[u], triples.items[i], triples.tags[t])
                for u, i, t in triples.codes.tolist()] == list(map(tuple, rows))


class TestCondense:
    def test_distinct_users_counted(self):
        triples = Triples.from_rows([("u1", "a", "rock"), ("u2", "a", "rock"),
                                     ("u1", "b", "rock")])
        assert as_dict(condense(triples)) == {("a", "rock"): 2,
                                              ("b", "rock"): 1}

    def test_repeated_vote_counts_once(self):
        triples = Triples.from_rows([("u1", "a", "rock")] * 3)
        assert as_dict(condense(triples)) == {("a", "rock"): 1}

    def test_empty(self):
        assert as_dict(condense(Triples.from_rows([]))) == {}

    @given(st.lists(st.tuples(NAMES, NAMES, NAMES), max_size=30))
    @settings(max_examples=50)
    def test_counts_distinct_users_per_item_and_tag(self, rows):
        want = {}
        for user, item, tag in set(rows):
            want[(item, tag)] = want.get((item, tag), 0) + 1
        assert as_dict(condense(Triples.from_rows(rows))) == want


class TestSelectVocab:
    def test_top_k_by_total_count(self):
        records = {("a", "rock"): 3, ("b", "rock"): 2, ("a", "jazz"): 4,
                   ("a", "pop"): 1}
        assert select_vocab(coded(records), 2) == ["rock", "jazz"]

    def test_lexicographic_tie_break(self):
        records = {("a", "zeta"): 2, ("a", "alpha"): 2, ("a", "mid"): 2}
        assert select_vocab(coded(records), 3) == ["alpha", "mid", "zeta"]

    def test_too_few_tags(self):
        with pytest.raises(ValueError):
            select_vocab(coded({("a", "rock"): 1}), 2)

    @pytest.mark.parametrize("K", [0, -1])
    def test_size_below_one_rejected(self, K):
        # 0 would write a matrix without tag columns, -1 drop the last tag
        with pytest.raises(ValueError, match=f"at least 1, got {K}"):
            select_vocab(coded({("a", "rock"): 1, ("a", "jazz"): 2}), K)

    @given(st.dictionaries(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.sampled_from(["t0", "t1", "t2", "t3"])),
        st.integers(min_value=1, max_value=9), min_size=4))
    @settings(max_examples=50)
    def test_stable_under_record_reordering(self, records):
        tags = {t for _, t in records}
        K = min(2, len(tags))
        shuffled = dict(sorted(records.items(), reverse=True))
        assert (select_vocab(coded(records), K)
                == select_vocab(coded(shuffled), K))


class TestBinarize:
    def test_three_states_at_threshold_two(self):
        records = {("a", "t0"): 2, ("a", "t1"): 1, ("b", "t0"): 5}
        m = binarize(coded(records), ["t0", "t1"], min_positive=2)
        assert m.items == ["a", "b"]
        np.testing.assert_array_equal(m.cells,
                                      [[POSITIVE, UNKNOWN],
                                       [POSITIVE, NEGATIVE]])

    def test_threshold_one_has_no_unknowns(self):
        records = {("a", "t0"): 1, ("b", "t1"): 3}
        m = binarize(coded(records), ["t0", "t1"], min_positive=1)
        assert not np.any(m.cells == UNKNOWN)

    def test_explicit_item_order_kept(self):
        records = {("a", "t0"): 1}
        m = binarize(coded(records), ["t0"], 1, items=["b", "a"])
        assert m.items == ["b", "a"]
        np.testing.assert_array_equal(m.cells[:, 0], [NEGATIVE, POSITIVE])

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            binarize(coded({}), [], min_positive=3)

    @given(st.dictionaries(
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["t0", "t1"])),
        st.integers(min_value=1, max_value=5), min_size=1))
    @settings(max_examples=50)
    def test_monotone_in_threshold(self, records):
        # raising the positive threshold never creates new positives
        m1 = binarize(coded(records), ["t0", "t1"], 1)
        m2 = binarize(coded(records), ["t0", "t1"], 2)
        assert not np.any((m2.cells == POSITIVE) & (m1.cells != POSITIVE))
        # zero counts stay negative in both
        assert np.array_equal(m1.cells == NEGATIVE, m2.cells == NEGATIVE)


class TestNormalizeFeatures:
    def test_rows_have_unit_norm(self, rng):
        out = normalize_features(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0,
                                   atol=1e-12)

    def test_constant_dimension_zeroed(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
        out = normalize_features(X)
        np.testing.assert_array_equal(out[:, 1], 0.0)
        np.testing.assert_allclose(np.abs(out[:, 0]), 1.0)

    def test_population_standardization(self):
        X = np.array([[0.0], [2.0]])
        out = normalize_features(X)
        # (x - 1) / 1 then unit rows: signs survive
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0])

    def test_needs_two_items(self):
        with pytest.raises(ValueError):
            normalize_features(np.ones((1, 2)))

    @given(st.data())
    @settings(max_examples=300)
    def test_same_bits_as_the_two_where_formula(self, data):
        # constant columns, rows equal to the mean, zero rows, signed
        # zeros, NaN, +-inf and overflowing statistics
        N, D = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 4))
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, np.nan, np.inf,
                             -np.inf, 1e308, -1e308, 5e-324]),
            st.floats())
        X = np.array(data.draw(st.lists(values, min_size=N * D,
                                        max_size=N * D))).reshape(N, D)
        with np.errstate(all="ignore"):
            if data.draw(st.booleans()):
                X[:, 0] = X[0, 0]
            if data.draw(st.booleans()):  # the mean of all rows too
                X[-1] = X[:-1].mean(axis=0)
            got = normalize_features(X.copy())
            mean, std = X.mean(axis=0), X.std(axis=0)
            Z = np.where(std > 0, (X - mean) / np.where(std > 0, std, 1.0),
                         0.0)
            norms = np.linalg.norm(Z, axis=1)[:, None]
            want = np.where(norms > 0, Z / np.where(norms > 0, norms, 1.0),
                            0.0)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestMakeFolds:
    def test_partition_properties(self):
        split = make_folds(23, seed=4)
        all_items = sorted(i for f in split.folds for i in f)
        assert all_items == list(range(23))
        sizes = sorted(len(f) for f in split.folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_seed_determinism(self):
        a = make_folds(50, seed=9)
        b = make_folds(50, seed=9)
        assert a.folds == b.folds
        assert make_folds(50, seed=10).folds != a.folds

    def test_rotations_cover_training_folds(self):
        split = make_folds(25, seed=0)
        rotations = list(split.rotations(0))
        assert len(rotations) == 4
        for val, train in rotations:
            assert not set(val) & set(train)
            assert not set(val) & set(split.folds[0])
            assert sorted(val + train) == sorted(split.train_items(0))

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            make_folds(3, seed=0)


class TestReaders:
    def test_triples_round_trip(self, tmp_path):
        path = tmp_path / "triples.tsv"
        path.write_text("u1\ta\trock\nu2\tb\tjazz\n\n")
        triples = read_triples(path)
        assert triples[:3] == (["u1", "u2"], ["a", "b"], ["jazz", "rock"])
        np.testing.assert_array_equal(triples.codes, [[0, 0, 1], [1, 1, 0]])
        built = Triples.from_rows([("u1", "a", "rock"), ("u2", "b", "jazz")])
        assert built[:3] == triples[:3]
        np.testing.assert_array_equal(built.codes, triples.codes)

    def test_triples_bad_columns_report_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\ta\trock\nu2\tb\n")
        with pytest.raises(ValueError, match="2"):
            read_triples(path)

    def test_triples_empty_field_reports_line(self, tmp_path):
        # the blank line 2 is skipped but still counted
        path = tmp_path / "bad.tsv"
        path.write_text("u1\ta\trock\n\n\tb\tjazz\n")
        with pytest.raises(ValueError, match=r"bad.tsv:3: triple fields "
                                             r"must be nonempty"):
            read_triples(path)

    def test_features_parse(self, tmp_path):
        path = tmp_path / "features.tsv"
        path.write_text("a\t1.0\t-2.5\nb\t0.0\t3.0\n")
        items, X = read_features(path)
        assert items == ["a", "b"]
        np.testing.assert_allclose(X, [[1.0, -2.5], [0.0, 3.0]])

    def test_features_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "features.tsv"
        path.write_text("a\t1.0\nb\toops\n")
        with pytest.raises(ValueError, match="2"):
            read_features(path)

    def test_features_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "features.tsv"
        path.write_text("a\t1.0\t2.0\nb\t3.0\t4.0\nc\t5.0\n")
        with pytest.raises(ValueError,
                           match=r"features.tsv:3: expected 2 features, got 1"):
            read_features(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_features_non_finite_reports_line(self, tmp_path, value):
        # the blank line 2 is skipped but still counted
        path = tmp_path / "features.tsv"
        path.write_text(f"a\t1.0\t2.0\n\nb\t3.0\t4.0\nc\t5.0\t{value}\n"
                        f"d\tnan\t0.0\n")
        with pytest.raises(ValueError,
                           match=r"features.tsv:4: non-finite feature value"):
            read_features(path)

    def test_items_mapping(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text("clip1\ttrackA\nclip2\ttrackB\n")
        assert read_items(path) == {"clip1": "trackA", "clip2": "trackB"}

    def test_items_duplicate_id_reports_line(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text("clip1\ttrackA\nclip2\ttrackB\nclip1\ttrackB\n")
        with pytest.raises(ValueError, match=r"items.tsv:3: duplicate item "
                                             r"id 'clip1'"):
            read_items(path)

    def test_items_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "items.tsv"
        path.write_text("clip1\ttrackA\nclip2\ttrackB\textra\n")
        with pytest.raises(ValueError, match=r"items.tsv:2: expected 2 "
                                             r"columns, got 3"):
            read_items(path)

    def test_triples_byte_order_mark_dropped(self, tmp_path):
        # with the mark kept, '\ufeffu1' would be a second user
        path = tmp_path / "triples.tsv"
        path.write_text("u1\ta\trock\nu1\tb\tjazz\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        triples = read_triples(path)
        assert triples[:3] == (["u1"], ["a", "b"], ["jazz", "rock"])
        np.testing.assert_array_equal(triples.codes, [[0, 0, 1], [0, 1, 0]])

    def test_features_byte_order_mark_dropped(self, tmp_path):
        # with the mark kept, the first item would match no triple
        path = tmp_path / "features.tsv"
        path.write_text("a\t1.0\nb\t2.0\n", encoding="utf-8-sig")
        assert read_features(path)[0] == ["a", "b"]


# The per-line readers that the block readers replaced, frozen as the
# reference: a block reader returns the same values, or raises the same
# message at the same line.

def reference_tab_rows(path, columns=None):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line:
                parts = line.split("\t")
                if columns and len(parts) != columns:
                    raise ValueError(f"{path}:{lineno}: expected {columns} "
                                     f"columns, got {len(parts)}")
                yield lineno, parts


def reference_read_triples(path):
    rows = []
    for lineno, parts in reference_tab_rows(path, 3):
        if "" in parts:
            raise ValueError(f"{path}:{lineno}: triple fields must be nonempty")
        rows.append(tuple(parts))
    names, codes = [], []
    for k in range(3):
        column = [row[k] for row in rows]
        distinct = sorted(set(column))
        index = {name: i for i, name in enumerate(distinct)}
        names.append(distinct)
        codes.append(np.fromiter(map(index.__getitem__, column),
                                 np.int64, len(column)))
    return Triples(*names, np.stack(codes, axis=1))


def reference_read_features(path):
    items, rows, linenos, seen = [], [], [], set()
    width = None
    for lineno, parts in reference_tab_rows(path):
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
    return items, X


def reference_read_matrix(path):
    rows = reference_tab_rows(path)
    vocab = next(rows, (0, [""]))[1][1:]
    items, cells = [], []
    for lineno, parts in rows:
        if parts[0] in items:
            raise ValueError(f"{path}:{lineno}: duplicate item id {parts[0]!r}")
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


def reference_read_items(path):
    mapping = {}
    for lineno, (item, track) in reference_tab_rows(path, 2):
        if item in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate item id {item!r}")
        mapping[item] = track
    return mapping


def plain(value):
    """A reader's result as comparable values, arrays as dtype, shape and
    bytes (so float bits count)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, ThreeStateTagMatrix):
        value = astuple(value)
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value


def outcome(read, path):
    try:
        return "ok", plain(read(path))
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def tab_texts(draw, first, rest, width):
    """A tab file's text: mostly rows of ``width`` fields (a ``first``
    then ``rest``), some blank or ragged, with LF, CRLF or CR line ends
    and perhaps no final one."""
    row = st.builds(lambda a, b: [a, *b], first,
                    st.lists(rest, min_size=width - 1, max_size=width - 1))
    ragged = st.lists(st.one_of(first, rest), max_size=width + 2)
    rows = draw(st.lists(st.one_of(row, row, row, st.just([]), ragged),
                         max_size=12))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in rows]
    text = "".join("\t".join(r) + end for r, end in zip(rows, ends))
    if rows and draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return text


IDS = st.sampled_from(["a", "b", "c", "d", "é", "u1", ""])
FLOATS = st.sampled_from(["0", "1.5", "-2.25", "-0.0", "1e-310", "3", " 4 ",
                          "1_0", "0.1", "-7", "nan", "-inf", "1e999", "oops",
                          ""])
CELLS = st.sampled_from(["P", "N", "U", "P", "N", "U", "X", "", "PN", "é"])

# reader, its frozen reference, the first field and the rest of a row
PARITY = {
    "triples": (read_triples, reference_read_triples, IDS, IDS),
    "features": (read_features, reference_read_features, IDS, FLOATS),
    "matrix": (read_matrix, reference_read_matrix, IDS, CELLS),
    "items": (read_items, reference_read_items, IDS, IDS),
}


class TestBlockReadersMatchPerLineReaders:
    @pytest.mark.parametrize("name", sorted(PARITY))
    @given(data=st.data(),
           block=st.sampled_from([1, 2, 3, 5, 8, 13, 64, dt.BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_same_values_or_same_fault(self, tmp_path_factory, name, data,
                                       block):
        read, reference, first, rest = PARITY[name]
        width = 3 if name == "triples" else 2 if name == "items" else \
            data.draw(st.integers(1, 4))
        path = tmp_path_factory.mktemp(name) / f"{name}.tsv"
        path.write_bytes(data.draw(tab_texts(first, rest, width))
                         .encode("utf-8"))
        # a small block puts faults and lines across block boundaries
        with mock.patch.object(dt, "BLOCK", block):
            got = outcome(read, path)
        assert got == outcome(reference, path)


def test_triples_memory_per_line(tmp_path):
    # the per-line reader peaked near 300 B per triple: one tuple of three
    # strings per line, then three whole-file columns and a dict of counts
    n = 50_000
    rng = np.random.default_rng(0)
    users, items, tags = (rng.integers(0, k, n) for k in (100, n // 10, 20))
    path = tmp_path / "triples.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"user{u}\titem{i:06d}\ttag{t:02d}\n"
                      for u, i, t in zip(users, items, tags))
    tracemalloc.start()
    try:
        counts = condense(read_triples(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.users.sum() <= n
    assert peak / n < 150, f"{peak / n:.0f} B per triple"


# ids and tag names: nonempty, and free of the tab and line separators
FIELDS = st.text(st.characters(blacklist_characters="\t\n\r",
                               blacklist_categories=("Cs",)), min_size=1)


class TestFileRoundTrips:
    @given(st.lists(FIELDS, min_size=1, max_size=6, unique=True),
           st.lists(FIELDS, max_size=4), st.data())
    @settings(max_examples=50)
    def test_matrix(self, tmp_path_factory, items, vocab, data):
        cells = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([POSITIVE, NEGATIVE, UNKNOWN]),
                     min_size=len(vocab), max_size=len(vocab)),
            min_size=len(items), max_size=len(items))),
            dtype=np.int8).reshape(len(items), len(vocab))
        path = tmp_path_factory.mktemp("matrix") / "matrix.tsv"
        write_matrix(path, ThreeStateTagMatrix(items, vocab, cells))
        back = read_matrix(path)
        assert (back.items, back.vocab) == (items, vocab)
        assert back.cells.dtype == np.int8
        np.testing.assert_array_equal(back.cells, cells)

    def test_matrix_bytes(self, tmp_path):
        cells = np.array([[POSITIVE, NEGATIVE, UNKNOWN],
                          [UNKNOWN, POSITIVE, NEGATIVE]], dtype=np.int8)
        path = tmp_path / "matrix.tsv"
        write_matrix(path, ThreeStateTagMatrix(["i1", "i2"],
                                               ["rock", "pop", "jazz"], cells))
        assert path.read_bytes() == (b"item\trock\tpop\tjazz\n"
                                     b"i1\tP\tN\tU\ni2\tU\tP\tN\n")

    def test_matrix_with_no_tag_columns(self, tmp_path):
        path = tmp_path / "matrix.tsv"
        write_matrix(path, ThreeStateTagMatrix(
            ["i1", "i2"], [], np.empty((2, 0), dtype=np.int8)))
        assert path.read_bytes() == b"item\ni1\ni2\n"

    def test_matrix_with_non_ascii_ids_is_utf8(self, tmp_path):
        path = tmp_path / "matrix.tsv"
        write_matrix(path, ThreeStateTagMatrix(
            ["caf\u00e9", "\u65e5\u672c"], ["m\u00e9tal"],
            np.array([[POSITIVE], [NEGATIVE]], dtype=np.int8)))
        assert path.read_bytes() == ("item\tm\u00e9tal\ncaf\u00e9\tP\n"
                                     "\u65e5\u672c\tN\n").encode("utf-8")

    @given(st.lists(FIELDS, min_size=1, max_size=6, unique=True),
           st.integers(1, 4), st.data())
    @settings(max_examples=50)
    def test_features(self, tmp_path_factory, items, D, data):
        X = np.array(data.draw(st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=D, max_size=D),
            min_size=len(items), max_size=len(items))))
        path = tmp_path_factory.mktemp("features") / "features.tsv"
        write_features(path, items, X)
        items_back, X_back = read_features(path)
        assert items_back == items
        # the same float bits, signed zeros and subnormals included
        np.testing.assert_array_equal(X_back.view(np.int64),
                                      X.view(np.int64))


class TestIngestedFeatures:
    """An ingested directory's features: features.tsv for people, and the
    items.txt and features.npy that train and eval read."""

    @pytest.fixture
    def written(self, tmp_path):
        # signed zeros, subnormals, huge values and 17-digit values, with
        # an empty and a non-ASCII id
        X = np.array([[-0.0, 0.0, 5e-324, -2.225073858507201e-308],
                      [1e300, -1e300, 0.1 + 0.2, 1 / 3],
                      [2.718281828459045, -1.7976931348623157e308,
                       123456789.12345679, -9.999999999999999e-301]])
        matrix = ThreeStateTagMatrix(["b", "", "é"], ["t"],
                                     np.array([[1], [0], [-1]], np.int8))
        write_ingested(tmp_path, matrix, X)
        return tmp_path, matrix, X

    def test_copy_carries_the_texts_bits(self, written):
        # read back through items.txt and features.npy; the features.tsv
        # export, which no command reads, parses to the same bits
        directory, matrix, X = written
        back, X_back = read_ingested(directory)
        assert plain(back) == plain(matrix)
        assert X_back.view(np.int64).tolist() == X.view(np.int64).tolist()
        assert (directory / "items.txt").read_bytes() == "b\n\né\n".encode()
        assert plain(read_features(directory / "features.tsv")) == plain(
            (matrix.items, X_back))

    @pytest.mark.parametrize("defect", INGESTED_DEFECTS)
    def test_a_faulty_file_is_an_error_naming_it(self, written, defect):
        message = break_ingested(written[0], defect)
        with pytest.raises(ValueError) as exc:
            read_ingested(written[0])
        assert str(exc.value).startswith(message)
