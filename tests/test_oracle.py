import math

import numpy as np
import pytest

from multitag.core import DrbmParams, LabeledExample, sigm
from multitag import verify
from multitag.oracle import (CapacityError, Marginals, all_bit_vectors,
                             exact_cond_prob, exact_grad, exact_log_partition,
                             exact_marginals, joint_log_partition,
                             joint_marginals, log_pl_reference)
from multitag.verify import check_exact_gradient, check_normalization
from conftest import random_instance


class TestLogPartition:
    def test_all_zero_params(self):
        p = DrbmParams.zeros(4, 3, 2)
        assert exact_log_partition(np.zeros(2), p) == pytest.approx(
            7 * math.log(2), rel=1e-12)

    def test_four_term_closed_form(self):
        c1, d1, u = 0.4, -0.9, 1.3
        p = DrbmParams(np.array([[u]]), np.zeros((1, 0)), np.array([c1]),
                       np.array([d1]))
        expected = math.log(1 + math.exp(c1) + math.exp(d1)
                            + math.exp(c1 + d1 + u))
        assert exact_log_partition(np.zeros(0), p) == pytest.approx(expected,
                                                                    rel=1e-12)

    def test_matches_joint_enumeration(self, rng):
        ex, p = random_instance(rng, C=6, n=5, D=3)
        assert exact_log_partition(ex.x, p) == pytest.approx(
            joint_log_partition(ex.x, p), abs=1e-10)

    def test_capacity_bound(self):
        p = DrbmParams.zeros(1, 21, 0)
        with pytest.raises(CapacityError):
            exact_log_partition(np.zeros(0), p)


class TestCondProb:
    def test_uniform_when_decoupled(self, rng):
        p = DrbmParams(np.zeros((2, 3)), rng.normal(size=(2, 2)),
                       rng.normal(size=2), np.zeros(3))
        x = rng.normal(size=2)
        for y in all_bit_vectors(3):
            assert exact_cond_prob(y, x, p) == pytest.approx(0.125, abs=1e-12)

    def test_positive_coupling_correlates_labels(self):
        # one hidden unit tying both labels together
        p = DrbmParams(np.array([[3.0, 3.0]]), np.zeros((1, 0)),
                       np.array([-3.0]), np.zeros(2))
        x = np.zeros(0)
        p11 = exact_cond_prob(np.array([1.0, 1.0]), x, p)
        p10 = exact_cond_prob(np.array([1.0, 0.0]), x, p)
        p01 = exact_cond_prob(np.array([0.0, 1.0]), x, p)
        p00 = exact_cond_prob(np.array([0.0, 0.0]), x, p)
        assert p11 * p00 > p10 * p01

    def test_normalization(self, rng):
        assert check_normalization(rng, 5)


class TestMarginals:
    def test_independence_when_decoupled(self, rng):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        x = rng.normal(size=p.D)
        m = exact_marginals(x, p)
        np.testing.assert_allclose(m.y_marg, sigm(p.d), atol=1e-12)
        np.testing.assert_allclose(m.h_marg, sigm(p.c + p.W @ x), atol=1e-12)
        np.testing.assert_allclose(m.pair_marg, np.outer(m.h_marg, m.y_marg),
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [3, 25])
    def test_marginalization_identity(self, rng, n):
        # summing the pairwise table against enumerated y recovers
        # singletons; n is unbounded since hidden units are summed analytically
        ex, p = random_instance(rng, C=4, n=n)
        m = exact_marginals(ex.x, p)
        Y = all_bit_vectors(p.C)
        F = np.array([exact_cond_prob(y, ex.x, p) for y in Y])
        np.testing.assert_allclose(m.y_marg, F @ Y, atol=1e-10)

    def test_matches_joint_enumeration(self, rng):
        ex, p = random_instance(rng, C=5, n=4, D=3)
        fast = exact_marginals(ex.x, p)
        slow = joint_marginals(ex.x, p)
        np.testing.assert_allclose(fast.y_marg, slow.y_marg, atol=1e-10)
        np.testing.assert_allclose(fast.h_marg, slow.h_marg, atol=1e-10)
        np.testing.assert_allclose(fast.pair_marg, slow.pair_marg, atol=1e-10)

    def test_frechet_bounds_on_random_instances(self, rng):
        for _ in range(100):
            ex, p = random_instance(rng, C=3, n=3, D=2, scale=1.0)
            m = exact_marginals(ex.x, p)
            upper = np.minimum.outer(m.h_marg, m.y_marg)
            lower = np.add.outer(m.h_marg, m.y_marg) - 1.0
            assert np.all(m.pair_marg <= upper + 1e-9)
            assert np.all(m.pair_marg >= lower - 1e-9)
            assert np.all(m.pair_marg >= -1e-9)
            assert np.all(m.pair_marg <= 1 + 1e-9)


class TestExactGrad:
    def test_logistic_regression_reduction(self, rng):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        p.W[:] = 0.0
        p.c[:] = 0.0
        ex = LabeledExample(rng.normal(size=p.D), (rng.random(p.C) < 0.5).astype(float))
        g = exact_grad(ex, p)
        np.testing.assert_allclose(g.dd, ex.y - sigm(p.d), atol=1e-12)

    def test_matches_finite_differences(self, rng):
        assert check_exact_gradient(rng, 5)

    def test_vanishes_at_optimum(self, rng):
        # run exact gradient ascent on a one-example dataset to a critical
        # point, then check the gradient is (numerically) zero there
        ex, p = random_instance(rng, C=2, n=2, D=1)
        for _ in range(3000):
            g = exact_grad(ex, p)
            norm = np.linalg.norm(g.flat())
            if norm < 1e-7:
                break
            step = min(0.5 / norm, 1e4)  # normalized steps, the optimum saturates
            p.U += step * g.dU
            p.W += step * g.dW
            p.c += step * g.dc
            p.d += step * g.dd
        assert np.linalg.norm(exact_grad(ex, p).flat()) < 1e-6


def test_log_pl_reference_single_label_is_loglik(rng):
    ex, p = random_instance(rng, C=1)
    assert log_pl_reference(ex, p) == pytest.approx(
        math.log(exact_cond_prob(ex.y, ex.x, p)), abs=1e-10)


class TestLbpTreeCheck:
    def test_catches_a_1e6_singleton_error(self, monkeypatch):
        """Criterion 4's instances with every label marginal off by 1e-6:
        a relative tolerance of 1e-5 would let this pass."""
        lbp = verify.lbp_marginals

        def shifted(*args, **kwargs):
            m = lbp(*args, **kwargs)
            return Marginals(m.y_marg + 1e-6, m.h_marg, m.pair_marg)

        assert verify.check_lbp_tree(np.random.default_rng(104), 50)
        monkeypatch.setattr(verify, "lbp_marginals", shifted)
        assert not verify.check_lbp_tree(np.random.default_rng(104), 50)
