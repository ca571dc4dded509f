import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multitag import inference
from multitag.core import DrbmParams, log1pexp, sigm
from multitag.inference import (U_BOUND, NumericError, _coupling, lbp_marginals,
                                lbp_scores, lbp_sweeps, mf_predict)
from multitag.oracle import exact_marginals
from conftest import printed_lbp_marginals, random_instance, reference_pair


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
        m = printed_lbp_marginals(x, p, K=7, beta=0.0)
        assert not np.allclose(m.pair_marg, np.outer(m.h_marg, m.y_marg),
                               atol=1e-10)

    def test_last_sweeps_overflowing_message_raises(self):
        # U + d overflows in the log1pexp form's hidden-bound message,
        # which no later sweep reads; every input of the sweep is finite
        p = DrbmParams(np.array([[1e308]]), np.zeros((1, 2)),
                       np.array([-1e308]), np.array([1e308]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="sweep 0"):
            lbp_marginals(np.zeros(2), p, K=1, beta=0.0)

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

    @pytest.mark.parametrize("K, beta, match", [(0, 0.0, "K must"),
                                                (5, 1.5, "beta must")])
    def test_sweep_parameters_checked_without_rows(self, rng, K, beta, match):
        _, p = random_instance(rng)
        with pytest.raises(ValueError, match=match):
            lbp_scores(np.zeros((0, p.D)), p, K, beta)

    @pytest.mark.parametrize("w", [(2.0, 0.0), (1.0, -1.0), (-2.0, 0.0)],
                             ids=["inf", "inf-minus-inf", "minus-inf"])
    def test_overflowing_messages_raise(self, rng, w):
        # one row's hidden input overflows to inf, -inf or inf - inf = NaN,
        # a non-finite input to the first sweep's label-bound messages
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


def _reference_sweeps(hid_bias, vis_bias, U, K, beta):
    """lbp_sweeps as it was before the expm1 form (frozen reference):
    every message is log1pexp(U + a) - log1pexp(a), and a non-finite
    message raises after its sweep."""
    b, n = hid_bias.shape
    ones_n, ones_C = np.ones(n), np.ones(U.shape[1])
    down = np.zeros((b, n, U.shape[1]))
    up = np.zeros_like(down)
    for sweep in range(K):
        arg_down = (hid_bias + up @ ones_C)[:, :, None] - up
        new_down = log1pexp(U + arg_down) - log1pexp(arg_down)
        if beta:
            new_down = beta * down + (1 - beta) * new_down
        arg_up = (vis_bias + ones_n @ new_down)[:, None, :] - new_down
        new_up = log1pexp(U + arg_up) - log1pexp(arg_up)
        if beta:
            new_up = beta * up + (1 - beta) * new_up
        if not (np.all(np.isfinite(new_down)) and np.all(np.isfinite(new_up))):
            raise NumericError(f"non-finite message at sweep {sweep}")
        down, up = new_down, new_up
    return down, up


def _lbp_outputs(X, p, beta):
    """lbp_marginals of X's first rows and lbp_scores of all of X."""
    marginals = [lbp_marginals(x, p, 10, beta) for x in X[:3]]
    return ([m.y_marg for m in marginals] + [m.h_marg for m in marginals]
            + [m.pair_marg for m in marginals] + [lbp_scores(X, p, 10, beta)])


class TestAgainstReferenceSweeps:
    @pytest.mark.parametrize("C, n", [(8, 16), (50, 100)],
                             ids=["small", "wide"])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_marginals_and_scores_match(self, rng, monkeypatch, C, n, beta):
        _, p = random_instance(rng, C=C, n=n, D=6, scale=1.0)
        X = rng.normal(size=(2**15 // (n * C) + 3, p.D))
        got = _lbp_outputs(X, p, beta)
        monkeypatch.setattr(inference, "lbp_sweeps", _reference_sweeps)
        want = _lbp_outputs(X, p, beta)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_coupling_beyond_bound_is_the_reference_bitwise(self, rng,
                                                            monkeypatch, beta):
        _, p = random_instance(rng, C=8, n=16, D=6)
        p.U[3, 5] = -1.01 * U_BOUND
        X = rng.normal(size=(20, p.D))
        got = _lbp_outputs(X, p, beta)
        monkeypatch.setattr(inference, "lbp_sweeps", _reference_sweeps)
        want = _lbp_outputs(X, p, beta)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308])
BOUNDED = st.floats(-U_BOUND, U_BOUND) | st.sampled_from([U_BOUND, -U_BOUND])


@st.composite
def sweep_inputs(draw, couplings=BOUNDED):
    """(hid_bias, vis_bias, U, K, beta) with finite biases; vis_bias is
    (C,) or (b, C)."""
    b, n, C = (draw(st.integers(1, 3)) for _ in range(3))
    hid_bias = draw(arrays(float, (b, n), elements=FINITE))
    vis_shape = draw(st.sampled_from([(C,), (b, C)]))
    vis_bias = draw(arrays(float, vis_shape, elements=FINITE))
    U = draw(arrays(float, (n, C), elements=couplings))
    return (hid_bias, vis_bias, U, draw(st.integers(1, 6)),
            draw(st.floats(0.0, 1.0, exclude_max=True)))


class TestOneFinitenessCheck:
    """In the expm1 form ``lbp_sweeps`` checks only hid_bias and vis_bias,
    before its loop; these tests show that check misses no fault."""

    @given(sweep_inputs())
    @settings(max_examples=300, deadline=None)
    def test_bounded_coupling_keeps_every_sweep_within_its_range(self,
                                                                 inputs):
        # every message lies in [min(U, 0), max(U, 0)], so every later
        # input is a finite bias plus a bounded sum: finite
        hid_bias, vis_bias, U, K, beta = inputs
        low, high = np.minimum(U, 0.0), np.maximum(U, 0.0)
        ulps = 4 * np.spacing(np.abs(U))
        for k in range(1, K + 1):
            for messages in lbp_sweeps(hid_bias, vis_bias, U, k, beta):
                assert np.isfinite(messages).all()
                assert np.all(messages >= low - ulps)
                assert np.all(messages <= high + ulps)

    @given(sweep_inputs(couplings=st.floats(-1.0, 1.0)),
           st.sampled_from([np.nan, np.inf, -np.inf]),
           st.sampled_from(["hid", "vis"]), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_non_finite_bias_raises_at_sweep_0_in_both_forms(
            self, inputs, bad, which, bounded, data):
        hid_bias, vis_bias, U, K, beta = inputs
        if not bounded:
            U[0, 0] = 1.01 * U_BOUND  # the whole call in the log1pexp form
        target = hid_bias if which == "hid" else vis_bias
        index = data.draw(st.tuples(*(st.integers(0, m - 1)
                                      for m in target.shape)))
        target[index] = bad
        with pytest.raises(NumericError,
                           match="^non-finite message at sweep 0$"):
            lbp_sweeps(hid_bias, vis_bias, U, K, beta)


class TestClosedFormPair:
    """``lbp_marginals`` on given messages (``lbp_sweeps`` patched to
    return them), fields c and d, and couplings U; x = 0, so the hidden
    field is c."""

    @staticmethod
    def _pair(monkeypatch, down, up, p):
        monkeypatch.setattr(inference, "lbp_sweeps",
                            lambda *args: (down[None], up[None]))
        return lbp_marginals(np.zeros(p.D), p, 1, 0.0).pair_marg

    def test_within_4_ulp_of_the_log_sum_exp(self, rng, monkeypatch):
        for _ in range(300):
            n, C = rng.integers(1, 12, size=2)
            scale = 10.0 ** rng.uniform(-3, 2.5)
            U, down, up = (rng.normal(scale=scale, size=(n, C))
                           for _ in range(3))
            c, d = (rng.normal(scale=scale, size=m) for m in (n, C))
            p = DrbmParams(U, np.zeros((n, 2)), c, d)
            got = self._pair(monkeypatch, down, up, p)
            want, num01, num10 = reference_pair(down, up, p, p.c, False)
            # each exponent carries a rounding error of its largest part
            size = np.maximum.reduce([np.ones_like(U), np.abs(U),
                                      np.abs(num01), np.abs(num10)])
            assert np.all(np.abs(got - want) <= 4 * np.spacing(size))

    def test_fields_at_800_give_exact_limits_without_warnings(
            self, rng, monkeypatch):
        # e^800 overflows and e^-800 underflows: the pair is 1 where both
        # fields are +800 and 0 where either is -800
        n, C = 4, 6
        c = np.repeat([800.0, -800.0], n // 2)
        d = np.tile([800.0, -800.0], C // 2)
        p = DrbmParams(rng.uniform(-1, 1, size=(n, C)), np.zeros((n, 2)), c,
                       d)
        down, up = (rng.uniform(-1, 1, size=(n, C)) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._pair(monkeypatch, down, up, p)
        want = np.outer(c > 0, d > 0).astype(float)
        assert np.array_equal(got, want)
        assert np.array_equal(reference_pair(down, up, p, c, False)[0], want)


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
        # the entries within the bound through the expm1 form, the rest
        # through the log1pexp form, as lbp_sweeps picks them per call
        fast = np.abs(U) <= U_BOUND
        assert 0 < fast.sum() < U.size
        got = np.empty_like(U)
        with np.errstate(over="ignore"):
            for part in (fast, ~fast):
                got[part] = _coupling(U[part])[0](a[part])
        want = _logaddexp_coupling(U, a)
        scale = np.maximum(1.0, np.maximum(np.abs(U), np.abs(a)))
        assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))

    def test_expm1_coupling_within_4_ulp_up_to_the_bound(self, rng):
        # where e^{s*arg} overflows, the dropped term grows as e^|U|; the
        # band |a| in [500, 800] straddles that overflow at 709.78
        def magnitudes(size):
            signs = rng.choice([-1.0, 1.0], size=size)
            return signs * 10.0 ** rng.uniform(-6, 6, size=size)

        def band(size):
            return rng.choice([-1.0, 1.0], size=size) * rng.uniform(
                500, 800, size=size)

        grid = np.array([0.0, 1e-300, 1.0, 30.0, 600.0, 709.0, 1e6])
        grid = np.concatenate([grid, -grid])
        U = np.concatenate([magnitudes(20000), rng.uniform(-1, 1, 10000)
                            * U_BOUND, np.repeat(grid, grid.size)])
        a = np.concatenate([magnitudes(10000), band(20000),
                            np.tile(grid, grid.size)])
        U = np.clip(U, -U_BOUND, U_BOUND)
        with np.errstate(over="ignore"):
            got = _coupling(U)[0](a)
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
