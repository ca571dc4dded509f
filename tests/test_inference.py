import numpy as np
import pytest

from multitag.core import DrbmParams, log1pexp, sigm
from multitag.inference import (NumericError, _coupling_log, lbp_marginals,
                                lbp_scores, mf_predict)
from multitag.oracle import exact_marginals
from conftest import random_instance


class TestLbpMarginals:
    def test_y_marg_exact_on_tree(self, rng):
        ex, p = random_instance(rng, C=6, n=1)
        scores = lbp_marginals(ex.x, p, 25, 0.0).y_marg
        np.testing.assert_allclose(scores, exact_marginals(ex.x, p).y_marg,
                                   atol=1e-8)

    def test_no_coupling_reduces_to_biases(self, rng):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        x = rng.normal(size=p.D)
        for beta in (0.0, 0.5, 0.9):
            m = lbp_marginals(x, p, K=7, beta=beta)
            np.testing.assert_allclose(m.y_marg, sigm(p.d), atol=1e-12)
            np.testing.assert_allclose(m.h_marg, sigm(p.c + p.W @ x), atol=1e-12)
            np.testing.assert_allclose(m.pair_marg,
                                       np.outer(m.h_marg, m.y_marg), atol=1e-10)

    def test_exact_on_single_hidden_unit(self, rng):
        for _ in range(10):
            C = int(rng.integers(2, 13))
            ex, p = random_instance(rng, C=C, n=1, D=3)
            m = lbp_marginals(ex.x, p, K=25, beta=0.0)
            e = exact_marginals(ex.x, p)
            np.testing.assert_allclose(m.y_marg, e.y_marg, atol=1e-8)
            np.testing.assert_allclose(m.h_marg, e.h_marg, atol=1e-8)
            np.testing.assert_allclose(m.pair_marg, e.pair_marg, atol=1e-8)

    def test_damping_reaches_same_fixed_point(self, rng):
        # weakly coupled instances have a unique fixed point
        for _ in range(5):
            ex, p = random_instance(rng, C=5, n=4, scale=0.12)
            assert np.max(np.abs(p.U)) <= 0.5
            a = lbp_marginals(ex.x, p, K=200, beta=0.0)
            b = lbp_marginals(ex.x, p, K=200, beta=0.9)
            np.testing.assert_allclose(a.y_marg, b.y_marg, atol=1e-6)

    def test_probabilities_and_frechet_bounds(self, rng):
        for _ in range(20):
            ex, p = random_instance(rng, scale=1.0)
            m = lbp_marginals(ex.x, p, K=50, beta=0.3)
            for arr in (m.y_marg, m.h_marg, m.pair_marg):
                assert np.all(arr >= -1e-9) and np.all(arr <= 1 + 1e-9)
            upper = np.minimum.outer(m.h_marg, m.y_marg)
            lower = np.add.outer(m.h_marg, m.y_marg) - 1.0
            assert np.all(m.pair_marg <= upper + 1e-9)
            assert np.all(m.pair_marg >= lower - 1e-9)

    def test_printed_normalizer_breaks_independence(self, rng):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        x = rng.normal(size=p.D)
        m = lbp_marginals(x, p, K=7, beta=0.0, printed_pair_normalizer=True)
        assert not np.allclose(m.pair_marg, np.outer(m.h_marg, m.y_marg),
                               atol=1e-10)

    def test_parameter_validation(self, rng):
        ex, p = random_instance(rng)
        with pytest.raises(ValueError):
            lbp_marginals(ex.x, p, K=0, beta=0.0)
        with pytest.raises(ValueError):
            lbp_marginals(ex.x, p, K=5, beta=1.0)


class TestLbpScores:
    @pytest.mark.parametrize("C, n", [(8, 16), (50, 100)],
                             ids=["small", "wide"])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_matches_row_marginals_across_chunk_edges(self, rng, C, n, beta):
        _, p = random_instance(rng, C=C, n=n, D=6)
        chunk = 2**15 // (n * C)
        X = rng.normal(size=(3 * chunk + 5, p.D))
        rows = np.stack([lbp_marginals(x, p, 10, beta).y_marg for x in X])
        for B in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            np.testing.assert_allclose(lbp_scores(X[:B], p, 10, beta),
                                       rows[:B], rtol=0, atol=1e-12)

    def test_empty_batch_and_shape_check(self, rng):
        _, p = random_instance(rng)
        assert lbp_scores(np.zeros((0, p.D)), p, 5).shape == (0, p.C)
        with pytest.raises(ValueError):
            lbp_scores(np.zeros((2, p.D + 1)), p, 5)

    @pytest.mark.parametrize("w", [(2.0, 0.0), (1.0, -1.0)],
                             ids=["inf", "inf-minus-inf"])
    def test_overflowing_messages_raise(self, rng, w):
        # one row's hidden input overflows to inf (or inf - inf = NaN),
        # which makes that row's messages non-finite in the first sweep
        _, p = random_instance(rng)
        X = rng.normal(size=(7, p.D))
        p.W[0, :2] = w
        X[4] = 0.0
        X[4, :2] = (1e308, -1e308)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="sweep 0"):
            lbp_scores(X, p, 10)


def _where_log1pexp(z):
    """log1pexp as first written, with np.where (reference)."""
    z = np.asarray(z, dtype=float)
    return np.where(z > 0, z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _logaddexp_coupling(U, arg):
    """The coupling as first written, through np.logaddexp (reference)."""
    return np.logaddexp(-_where_log1pexp(arg), U - _where_log1pexp(-arg))


class TestNumericPrimitives:
    def test_log1pexp_bitwise_equals_where_form(self, rng):
        z = np.concatenate([rng.normal(scale=30.0, size=5000),
                            rng.normal(size=5000),
                            [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0,
                             -745.0, 1e300, -1e300]])
        got, want = log1pexp(z), _where_log1pexp(z)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        numbers = ~np.isnan(want)
        assert np.array_equal(got[numbers].view(np.uint64),
                              want[numbers].view(np.uint64))
        assert np.isnan(want).sum() == 1

    def test_coupling_within_4_ulp_of_logaddexp_form(self, rng):
        def magnitudes(size):
            signs = rng.choice([-1.0, 1.0], size=size)
            return signs * 10.0 ** rng.uniform(-6, 6, size=size)

        grid = np.array([0.0, 1e-300, 1.0, 30.0, 709.0, 1e6])
        grid = np.concatenate([grid, -grid])
        U = np.concatenate([magnitudes(20000), np.repeat(grid, grid.size)])
        a = np.concatenate([magnitudes(20000), np.tile(grid, grid.size)])
        got = _coupling_log(U, a)
        want = _logaddexp_coupling(U, a)
        scale = np.maximum(1.0, np.maximum(np.abs(U), np.abs(a)))
        assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))


class TestMfPredict:
    def test_decoupled_model_matches_lbp_marginals(self, rng):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        x = rng.normal(size=p.D)
        np.testing.assert_allclose(lbp_marginals(x, p, 5, 0.0).y_marg,
                                   sigm(p.d), atol=1e-12)
        np.testing.assert_allclose(mf_predict(x, p, K=5), sigm(p.d),
                                   atol=1e-12)

    def test_no_coupling(self, rng):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        np.testing.assert_allclose(mf_predict(rng.normal(size=p.D), p, K=1),
                                   sigm(p.d), atol=1e-12)

    def test_strongly_negative_bias_saturates(self, rng):
        _, p = random_instance(rng, scale=0.05)
        p.d[:] = -50.0
        y = mf_predict(rng.normal(size=p.D), p, K=50)
        assert np.all(y < 1e-10)

    def test_deterministic_and_idempotent(self, rng):
        ex, p = random_instance(rng)
        a = mf_predict(ex.x, p, K=30)
        b = mf_predict(ex.x, p, K=30)
        np.testing.assert_array_equal(a, b)

    def test_discrepancy_from_exact_is_reported_not_asserted(self, rng, capsys):
        # mean field is not exact even on trees; record the gap
        ex, p = random_instance(rng, C=4, n=1)
        y = mf_predict(ex.x, p, K=100)
        e = exact_marginals(ex.x, p)
        gap = float(np.max(np.abs(y - e.y_marg)))
        print(f"mean-field vs exact singleton gap on a tree: {gap:.3e}")
        assert np.all((y >= 0) & (y <= 1))
