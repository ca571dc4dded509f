"""Oracle checks, shared by ``multitag oracle-check`` and the tests: each
``check_*(rng, trials) -> bool`` draws ``trials`` random small
instances from ``rng`` and compares a numeric path with the oracles."""

import math

import numpy as np

from .core import DrbmParams, LabeledExample
from .estimators import pl_gradient
from .inference import lbp_marginals
from .oracle import (ENUM_BITS, CapacityError, all_bit_vectors,
                     exact_cond_prob, exact_grad, exact_marginals, finite_diff,
                     log_pl_reference)


def random_instance(rng, C=4, n=3, D=5, scale=0.5):
    """A random small model and labeled example."""
    p = DrbmParams(rng.normal(scale=scale, size=(n, C)),
                   rng.normal(scale=scale, size=(n, D)),
                   rng.normal(scale=scale, size=n),
                   rng.normal(scale=scale, size=C))
    ex = LabeledExample(rng.normal(size=D), (rng.random(C) < 0.5).astype(float))
    return ex, p


def check_exact_gradient(rng, trials) -> bool:
    """The exact gradient matches finite differences of log p(y|x)."""
    ok = True
    for _ in range(trials):
        ex, p = random_instance(rng)
        g = exact_grad(ex, p)
        fd = finite_diff(lambda q: math.log(exact_cond_prob(ex.y, ex.x, q)), p)
        ok &= bool(np.allclose(g.flat(), fd, rtol=0, atol=1e-8))
    return ok


def check_pl_gradient(rng, trials) -> bool:
    """The pseudo-likelihood gradient and value match the reference."""
    ok = True
    for _ in range(trials):
        ex, p = random_instance(rng)
        g, log_pl = pl_gradient(ex, p)
        fd = finite_diff(lambda q: log_pl_reference(ex, q), p)
        ok &= bool(np.allclose(g.flat(), fd, rtol=0, atol=1e-8))
        ok &= abs(log_pl - log_pl_reference(ex, p)) < 1e-10
    return ok


def check_lbp_tree(rng, trials) -> bool:
    """Belief propagation is exact on trees: one hidden unit, 2..12 labels."""
    ok = True
    for _ in range(trials):
        ex, p = random_instance(rng, C=int(rng.integers(2, 13)), n=1, D=3)
        m = lbp_marginals(ex.x, p, K=25, beta=0.0)
        e = exact_marginals(ex.x, p)
        ok &= bool(np.allclose(m.y_marg, e.y_marg, rtol=0, atol=1e-8)
                   and np.allclose(m.h_marg, e.h_marg, rtol=0, atol=1e-8)
                   and np.allclose(m.pair_marg, e.pair_marg, rtol=0,
                                   atol=1e-8))
    return ok


def check_independence(rng, trials) -> bool:
    """At zero coupling the pairwise marginals factorize."""
    ok = True
    for _ in range(trials):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        x = rng.normal(size=p.D)
        m = lbp_marginals(x, p, K=10, beta=0.0)
        ok &= bool(np.allclose(m.pair_marg, np.outer(m.h_marg, m.y_marg),
                               atol=1e-10))
    return ok


def check_normalization(rng, trials) -> bool:
    """p(y|x) sums to 1 over all label vectors."""
    ok = True
    for _ in range(trials):
        ex, p = random_instance(rng, C=5)
        total = sum(exact_cond_prob(y, ex.x, p) for y in all_bit_vectors(p.C))
        ok &= abs(total - 1.0) < 1e-10
    return ok


def check_capacity(rng, trials) -> bool:
    """More than ENUM_BITS labels raise CapacityError (rng, trials unused)."""
    try:
        exact_marginals(np.zeros(1), DrbmParams.zeros(2, ENUM_BITS + 1, 1))
    except CapacityError:
        return True
    return False
