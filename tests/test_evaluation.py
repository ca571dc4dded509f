import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multitag import kinds
from multitag.data import NEGATIVE, POSITIVE, UNKNOWN, make_folds
from multitag.estimators import TrainConfig
from multitag.evaluation import (AucReport, auc, cv_run,
                                 paired_ttest, score_matrix_auc,
                                 significance_counts, t_sf_two_sided,
                                 write_auc_report, write_summary)

scipy_stats = pytest.importorskip("scipy.stats")


def pair_count_auc(scores, labels):
    """Brute-force pair counting with half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l == POSITIVE]
    neg = [s for s, l in zip(scores, labels) if l == NEGATIVE]
    if not pos or not neg:
        return None
    total = 0.0
    for sp, sn in itertools.product(pos, neg):
        if sp > sn:
            total += 1.0
        elif sp == sn:
            total += 0.5
    return total / (len(pos) * len(neg))


def _reference_average_ranks(a):
    """1-based ranks with ties sharing their average rank."""
    _, inv, counts = np.unique(a, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    avg = cum - counts + (counts + 1) / 2.0
    return avg[inv]


def _reference_auc(scores, labels):
    """The one-tag AUC with one np.unique rank pass, kept as the
    reference the one-sort kernel must match bit for bit."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if not np.all(np.isfinite(scores)):
        raise ValueError("auc: scores must be finite")
    keep = labels != UNKNOWN
    scores, labels = scores[keep], labels[keep]
    pos = labels == POSITIVE
    neg = labels == NEGATIVE
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _reference_average_ranks(scores)
    u = float(np.sum(ranks[pos])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def reference_score_matrix_auc(scores, cells, tags):
    """The per-tag loop over `_reference_auc`."""
    out = np.full(len(tags), np.nan)
    for j in range(len(tags)):
        val = _reference_auc(scores[:, j], cells[:, j])
        if val is not None:
            out[j] = val
    return out


@st.composite
def tied_blocks(draw):
    """(scores, cells) of 0-60 rows x 1-8 tags: 1-5 score levels, so
    ties are heavy, and cells from a random subset of P, N and U, so
    empty classes are common."""
    shape = (draw(st.integers(0, 60)), draw(st.integers(1, 8)))
    levels = draw(st.integers(1, 5))
    scores = draw(hnp.arrays(np.int64, shape, elements=st.integers(
        0, levels - 1))) * 0.3 - 0.45
    states = draw(st.lists(st.sampled_from([POSITIVE, NEGATIVE, UNKNOWN]),
                           min_size=1, max_size=3, unique=True))
    cells = draw(hnp.arrays(np.int8, shape, elements=st.sampled_from(states)))
    return scores, cells


class TestScoreMatrixAuc:
    @given(tied_blocks())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_tag_loop_bit_for_bit(self, block):
        scores, cells = block
        tags = list(range(scores.shape[1]))
        got = score_matrix_auc(scores, cells, tags)
        want = reference_score_matrix_auc(scores, cells, tags)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_matches_the_per_tag_loop_on_a_large_fold(self, rng):
        # continuous scores with a tied patch and 10% UNKNOWN cells, at
        # a corpus-20k fold's shape
        scores = rng.random((4000, 20))
        scores[:300] = np.round(scores[:300], 1)
        cells = rng.choice(np.array([UNKNOWN, NEGATIVE, POSITIVE], np.int8),
                           size=scores.shape, p=[0.1, 0.7, 0.2])
        tags = list(range(20))
        np.testing.assert_array_equal(
            score_matrix_auc(scores, cells, tags).view(np.int64),
            reference_score_matrix_auc(scores, cells, tags).view(np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_in_an_unknown_cell_rejected(self, bad):
        # finiteness is checked before UNKNOWN cells are left out
        scores = np.array([[0.9, 0.1], [0.2, bad], [0.4, 0.3]])
        cells = np.array([[POSITIVE, POSITIVE], [NEGATIVE, UNKNOWN],
                          [NEGATIVE, NEGATIVE]], dtype=np.int8)
        with pytest.raises(ValueError, match="auc: scores must be finite"):
            score_matrix_auc(scores, cells, ["t0", "t1"])
        with pytest.raises(ValueError, match="auc: scores must be finite"):
            auc(scores[:, 1], cells[:, 1])

    def test_shapes_must_match_the_tags(self):
        with pytest.raises(ValueError, match="must both be"):
            score_matrix_auc(np.zeros((3, 2)), np.zeros((3, 2)), ["t0"])
        with pytest.raises(ValueError, match="must both be"):
            auc([0.1, 0.2, 0.3], [POSITIVE, NEGATIVE])


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.1], [POSITIVE, POSITIVE, NEGATIVE]) == 1.0

    def test_reversed_ranking(self):
        assert auc([0.1, 0.9], [POSITIVE, NEGATIVE]) == 0.0

    def test_worked_three_item_example(self):
        # [DERIVED] pair counting: of the two (positive, negative) pairs,
        # (0.9, 0.8) is ranked correctly and (0.3, 0.8) is not -> 0.5
        assert auc([0.9, 0.8, 0.3],
                   [POSITIVE, NEGATIVE, POSITIVE]) == pytest.approx(0.5)

    def test_all_tied_scores(self):
        assert auc([0.5, 0.5, 0.5, 0.5],
                   [POSITIVE, NEGATIVE, POSITIVE, NEGATIVE]) == 0.5

    def test_unknowns_excluded(self):
        with_unknown = auc([0.9, 0.2, 0.6], [POSITIVE, NEGATIVE, UNKNOWN])
        assert with_unknown == auc([0.9, 0.2], [POSITIVE, NEGATIVE]) == 1.0

    @pytest.mark.parametrize("scores", [[0.9, np.nan, 0.1, 0.4],
                                        [np.nan, np.nan, 0.1, 0.4],
                                        [0.9, 0.8, np.inf, 0.4]])
    def test_non_finite_scores_rejected(self, scores):
        with pytest.raises(ValueError, match="finite"):
            auc(scores, [POSITIVE, NEGATIVE, POSITIVE, NEGATIVE])

    def test_degenerate_returns_none(self):
        assert auc([0.1, 0.9], [POSITIVE, POSITIVE]) is None
        assert auc([0.1, 0.9], [NEGATIVE, NEGATIVE]) is None
        assert auc([0.5], [UNKNOWN]) is None
        assert auc([], []) is None

    def test_matches_pair_counting_on_random_data(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 15))
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            labels = rng.integers(-1, 2, size=n)
            got = auc(scores, labels)
            want = pair_count_auc(scores, labels)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(min_value=-5, max_value=5),
                              st.sampled_from([POSITIVE, NEGATIVE])),
                    min_size=4, max_size=20))
    @settings(max_examples=60)
    def test_invariant_under_monotone_transform(self, pairs):
        # coarse rounding keeps the transforms strictly order preserving
        # in floating point (exp can merge values closer than its ulp)
        scores = np.round([s for s, _ in pairs], 3)
        labels = np.array([l for _, l in pairs])
        base = auc(scores, labels)
        if base is None:
            return
        # strictly increasing maps preserve the ranking exactly
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


class TestStudentTail:
    def test_tail_matches_scipy(self, rng):
        for _ in range(100):
            t = float(rng.normal(scale=3))
            df = int(rng.integers(1, 30))
            expected = 2 * float(scipy_stats.t.sf(abs(t), df))
            assert t_sf_two_sided(t, df) == pytest.approx(expected, abs=1e-10)

    def test_boundaries(self):
        assert t_sf_two_sided(0.0, 5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1e-9, -0.3, 1.0, 2.5, -40.0, 1e6])
    def test_closed_forms_at_one_and_two_df(self, t):
        # Cauchy at df=1; at df=2, P(|T| > t) = 1 - |t| / sqrt(t^2 + 2)
        assert t_sf_two_sided(t, 1) == pytest.approx(
            1 - 2 * math.atan(abs(t)) / math.pi, abs=1e-15)
        assert t_sf_two_sided(t, 2) == pytest.approx(
            1 - abs(t) / math.sqrt(t * t + 2), abs=1e-15)

    @pytest.mark.parametrize("df", [0, -1, 2.5])
    def test_rejects_df_that_is_not_a_positive_integer(self, df):
        with pytest.raises(ValueError, match="df must be an integer >= 1"):
            t_sf_two_sided(1.0, df)


class TestPairedTtest:
    def test_matches_scipy(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 12))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.5, size=n) + 0.2
            expected = float(scipy_stats.ttest_rel(a, b).pvalue)
            assert paired_ttest(a, b) == pytest.approx(expected, abs=1e-10)

    def test_identical_samples_give_one(self):
        a = np.array([0.7, 0.8, 0.6])
        assert paired_ttest(a, a.copy()) == 1.0

    def test_constant_nonzero_difference_gives_zero(self):
        a = np.array([0.7, 0.8, 0.6])
        assert paired_ttest(a, a + 0.1) == 0.0

    def test_validates_input(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0], [2.0])


class TestSignificanceCounts:
    def test_clear_winner_counted(self):
        tags = ["t0", "t1"]
        a = AucReport(tags, np.array([[0.9, 0.91, 0.89, 0.9, 0.9],
                                      [0.5, 0.52, 0.48, 0.5, 0.51]]))
        b = AucReport(tags, np.array([[0.6, 0.61, 0.59, 0.6, 0.6],
                                      [0.5, 0.52, 0.48, 0.5, 0.51]]))
        rep = significance_counts(a, b)
        assert rep.winners == ["a", None]
        assert rep.a_better == 1 and rep.b_better == 0
        assert rep.p_values[1] == 1.0

    def test_nan_cells_skipped(self):
        tags = ["t0"]
        a = AucReport(tags, np.array([[0.9, np.nan, np.nan, np.nan, np.nan]]))
        b = AucReport(tags, np.array([[0.5, np.nan, np.nan, np.nan, np.nan]]))
        rep = significance_counts(a, b)
        assert rep.winners == [None]
        assert np.isnan(rep.p_values[0])

    def test_mismatched_reports_rejected(self):
        a = AucReport(["t0"], np.zeros((1, 5)))
        b = AucReport(["t1"], np.zeros((1, 5)))
        with pytest.raises(ValueError):
            significance_counts(a, b)


class TestAucReport:
    def test_means_skip_nan(self):
        r = AucReport(["t0", "t1"], np.array([[0.8, np.nan], [0.6, 0.4]]))
        assert r.grand_mean() == pytest.approx(0.6)

    def test_all_nan(self):
        r = AucReport(["t0"], np.full((1, 2), np.nan))
        assert np.isnan(r.grand_mean())


class TestCvRun:
    def test_selects_the_better_hyperparameter(self, rng):
        # logistic regression on one feature that orders the labels: at
        # lr 0 every score is 0.5, at lr 2 every fold ranks them right
        n = 60
        X = rng.normal(size=(n, 1))
        cells = np.where(X > 0, POSITIVE, NEGATIVE).astype(np.int8)
        split = make_folds(n, seed=1)
        grid = [(None, TrainConfig(lr=lr, epochs=2)) for lr in (0.0, 2.0)]
        report, point, val_means = cv_run(X, cells, ["t0"], split, "logreg",
                                          grid)
        assert point is grid[1]
        assert val_means[0] == 0.5
        assert val_means[1] > val_means[0]
        assert report.grand_mean() == pytest.approx(1.0)
        assert report.values.shape == (1, 5)

    def test_empty_grid_rejected(self, rng):
        split = make_folds(10, seed=0)
        with pytest.raises(ValueError, match="empty hyper-parameter grid"):
            cv_run(np.zeros((10, 1)), np.zeros((10, 1), dtype=np.int8),
                   ["t0"], split, "logreg", grid=[])

    def test_no_defined_validation_auc_rejected(self, rng):
        # every cell NEGATIVE: every fold's AUC is undefined
        split = make_folds(10, seed=0)
        with pytest.raises(ValueError, match="no grid point has a defined "
                                             "validation AUC"):
            cv_run(rng.normal(size=(10, 1)),
                   np.full((10, 1), NEGATIVE, dtype=np.int8), ["t0"], split,
                   "logreg", grid=[(None, TrainConfig(epochs=1))])


    @pytest.mark.parametrize("kind, message", [
        ("svm", "unknown model kind 'svm'; expected one of drbm, grbm, mlp, "
                "logreg, smoother"),
        ("smoother", "model kind 'smoother' cannot be fitted on features "
                     "and labels and scored"),
    ], ids=["unknown", "smoother"])
    def test_kind_checked_before_any_fit(self, rng, monkeypatch, kind,
                                         message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted")

        monkeypatch.setattr(kinds, "KIND_TABLE", {
            name: k._replace(fit=no_fit)
            for name, k in kinds.KIND_TABLE.items()})
        split = make_folds(10, seed=0)
        with pytest.raises(ValueError) as info:
            cv_run(rng.normal(size=(10, 1)),
                   np.full((10, 1), POSITIVE, dtype=np.int8), ["t0"], split,
                   kind, grid=[(None, TrainConfig(epochs=1))])
        assert str(info.value) == message


class TestReportWriters:
    def test_auc_report_round_trip(self, tmp_path):
        r = AucReport(["t0"], np.array([[0.75, np.nan]]))
        path = tmp_path / "auc.tsv"
        write_auc_report(path, "drbm", r)
        lines = path.read_text().splitlines()
        assert lines[0] == "model\ttag\tfold\tauc"
        assert lines[1] == "drbm\tt0\t0\t0.75"
        assert lines[2] == "drbm\tt0\t1\tNA"

    def test_summary_rows(self, tmp_path):
        path = tmp_path / "summary.tsv"
        write_summary(path, [("mlp", "corpus", True, 0.8125)])
        lines = path.read_text().splitlines()
        assert lines[1] == "mlp\tcorpus\t+\t0.8125"


def test_score_matrix_auc_mixed_columns():
    scores = np.array([[0.9, 0.1], [0.2, 0.3]])
    cells = np.array([[POSITIVE, POSITIVE], [NEGATIVE, POSITIVE]], dtype=np.int8)
    out = score_matrix_auc(scores, cells, ["t0", "t1"])
    assert out[0] == 1.0
    assert np.isnan(out[1])
