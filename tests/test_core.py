import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitag.core import (DrbmParams, ShapeError, cd_chain, cond_free_energy,
                           energy, log1pexp, mean_field, sigm)
from multitag.kinds import KIND_TABLE
from conftest import random_instance


class TestSigm:
    def test_symmetry_at_zero(self):
        assert sigm(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigm(500.0) - 1.0) < 1e-12
        assert abs(sigm(-500.0)) < 1e-12

    def test_algebraic_identity(self):
        assert sigm(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    @given(st.floats(min_value=-500, max_value=500))
    def test_range_and_complement(self, z):
        s = sigm(z)
        assert 0.0 <= s <= 1.0
        assert s + sigm(-z) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=-700, max_value=700))
def test_log1pexp_matches_naive_where_safe(z):
    v = log1pexp(z)
    assert np.isfinite(v)
    if z < 30:
        assert v == pytest.approx(math.log1p(math.exp(z)), rel=1e-12)
    else:
        assert v == pytest.approx(z, rel=1e-12)


def energy_by_loops(y, h, x, p):
    """Independent term-by-term summation."""
    total = 0.0
    for k in range(p.n):
        for j in range(p.C):
            total -= h[k] * p.U[k, j] * y[j]
    for k in range(p.n):
        for i in range(p.D):
            total -= h[k] * p.W[k, i] * x[i]
    for j in range(p.C):
        total -= p.d[j] * y[j]
    for k in range(p.n):
        total -= p.c[k] * h[k]
    return total


class TestEnergy:
    def test_all_zero_configuration(self, rng):
        _, p = random_instance(rng)
        assert energy(np.zeros(p.C), np.zeros(p.n), rng.normal(size=p.D), p) == 0.0

    def test_bias_only(self):
        n, C = 3, 2
        p = DrbmParams(np.zeros((n, C)), np.zeros((n, 0)), np.ones(n), np.ones(C))
        assert energy(np.ones(C), np.ones(n), np.zeros(0), p) == -(n + C)

    def test_matches_loop_oracle(self, rng):
        for _ in range(10):
            ex, p = random_instance(rng, C=2, n=2, D=2)
            h = (rng.random(2) < 0.5).astype(float)
            assert energy(ex.y, h, ex.x, p) == pytest.approx(
                energy_by_loops(ex.y, h, ex.x, p), rel=1e-12)

    def test_bilinear_in_coupling(self, rng):
        ex, p = random_instance(rng)
        h = np.ones(p.n)
        base = energy(ex.y, h, ex.x, p)
        p2 = p.copy()
        p2.U *= 2.0
        coupling = -h @ p.U @ ex.y
        assert energy(ex.y, h, ex.x, p2) == pytest.approx(base + coupling, rel=1e-9)

    def test_shape_mismatch(self, rng):
        ex, p = random_instance(rng)
        with pytest.raises(ShapeError):
            energy(np.zeros(p.C + 1), np.zeros(p.n), ex.x, p)


class TestCondFreeEnergy:
    def test_zero_params_gives_n_log2(self):
        p = DrbmParams.zeros(4, 3, 2)
        assert cond_free_energy(np.zeros(3), np.zeros(2), p) == pytest.approx(
            -4 * math.log(2), rel=1e-12)

    def test_single_unit_closed_form(self):
        c1, u, delta = 0.3, -0.7, 1.1
        p = DrbmParams(np.array([[u]]), np.zeros((1, 0)), np.array([c1]),
                       np.array([delta]))
        expected = -delta - math.log1p(math.exp(c1 + u))
        assert cond_free_energy(np.ones(1), np.zeros(0), p) == pytest.approx(
            expected, rel=1e-12)

    def test_matches_hidden_enumeration(self, rng):
        for _ in range(5):
            ex, p = random_instance(rng, C=3, n=6, D=4)
            brute = -np.log(sum(
                math.exp(-energy(ex.y, np.array(h, dtype=float), ex.x, p))
                for h in product((0, 1), repeat=p.n)))
            assert cond_free_energy(ex.y, ex.x, p) == pytest.approx(brute, abs=1e-10)


def pinned_hidden(h):
    """A hidden input that makes sigm(input + Uy) exactly h for 0/1 h
    and |Uy| < 100: tanh saturates to +-1 in float64."""
    return np.where(np.asarray(h) > 0, 200.0, -200.0)


def chain_h0(y, x, p):
    """p(h=1 | y, x) as cd_chain's first half-step returns it, h0."""
    h0, _, _ = cd_chain((p.c + p.W @ x)[None], p.d, p.U, y[None], 1,
                        np.random.default_rng(0))
    return h0[0]


class TestConditionals:
    # p(h_k=1 | y, x) = sigm(c + Wx + Uy) is cd_chain's hidden half-step
    def test_hidden_decoupled_reductions(self, rng):
        _, p = random_instance(rng)
        p0 = DrbmParams(np.zeros_like(p.U), np.zeros_like(p.W), p.c, p.d)
        x = rng.normal(size=p.D)
        np.testing.assert_allclose(chain_h0(np.ones(p.C), x, p0), sigm(p.c))
        pw = DrbmParams(p.U, np.zeros_like(p.W), p.c, p.d)
        np.testing.assert_allclose(chain_h0(np.zeros(p.C), x, pw), sigm(p.c))

    def test_hidden_matches_joint_enumeration(self, rng):
        ex, p = random_instance(rng, C=3, n=3, D=2)
        # p(h_k=1|y,x) from the joint table over h
        weights = {h: math.exp(-energy(ex.y, np.array(h, dtype=float), ex.x, p))
                   for h in product((0, 1), repeat=p.n)}
        z = sum(weights.values())
        for k in range(p.n):
            marg = sum(w for h, w in weights.items() if h[k] == 1) / z
            assert chain_h0(ex.y, ex.x, p)[k] == pytest.approx(marg, abs=1e-10)

    # p(y_j=1 | h) = sigm(d + U'h) is mean-field's visible half-step: with
    # the hidden units pinned to 0/1 values, one step returns it
    def test_label_decoupled_reductions(self, rng):
        _, p = random_instance(rng)
        U0 = np.zeros_like(p.U)
        for h, U in ((np.ones(p.n), U0), (np.zeros(p.n), p.U)):
            y = mean_field(pinned_hidden(h)[None], p.d, U, np.zeros((1, p.C)),
                           1, 0.0)
            np.testing.assert_allclose(y[0], sigm(p.d))

    def test_label_matches_enumeration(self, rng):
        _, p = random_instance(rng, C=3, n=3, D=2)
        h = np.array([1.0, 0.0, 1.0])
        # with x-terms constant in y, p(y|h) factorizes over labels
        x = np.zeros(p.D)
        weights = {y: math.exp(-energy(np.array(y, dtype=float), h, x, p))
                   for y in product((0, 1), repeat=p.C)}
        z = sum(weights.values())
        y = mean_field(pinned_hidden(h)[None], p.d, p.U, np.zeros((1, p.C)),
                       1, 0.0)[0]
        for j in range(p.C):
            marg = sum(w for yy, w in weights.items() if yy[j] == 1) / z
            assert y[j] == pytest.approx(marg, abs=1e-10)


def row_cd_chain(hid_bias, vis_bias, U, y0, K, rng):
    """One chain as the row kernel ran it: a (K, n) then a (K, C) block
    of uniforms, 1-d matrix-vector products."""
    Ut = np.ascontiguousarray(U.T)
    rh = rng.random((K, U.shape[0]))
    ry = rng.random((K, U.shape[1]))
    y = y0
    for k in range(K):
        h = (rh[k] < sigm(hid_bias + U @ y)).astype(float)
        y = (ry[k] < sigm(vis_bias + Ut @ h)).astype(float)
    return sigm(hid_bias + U @ y0), sigm(hid_bias + U @ y), y


def row_mean_field(hid_bias, vis_bias, U, y, K, tol):
    """One row of mean-field as the row kernel ran it, and the number of
    steps it took."""
    for k in range(1, K + 1):
        h = sigm(hid_bias + U @ y)
        y_new = sigm(vis_bias + U.T @ h)
        if tol > 0 and np.max(np.abs(y_new - y), initial=0.0) < tol:
            return y_new, k
        y = y_new
    return y, K


class TestCdChain:
    # U scale 30 saturates the sigmoid: many inputs lie beyond +-36.7,
    # the range of the logistic noise
    @pytest.mark.parametrize("n, C, K, per_row_vis, scale", [
        (4, 3, 50, False, 0.8), (10, 3, 1, True, 0.8), (3, 4, 50, False, 30.0),
        (10, 5, 3, True, 0.8)], ids=["4-3-50-False", "10-3-1-True",
                                     "3-4-50-False-scale30", "10-5-3-True"])
    def test_batch_equals_serial_row_chains(self, n, C, K, per_row_vis,
                                            scale):
        rng = np.random.default_rng(31)
        b = 40
        U = rng.normal(scale=scale, size=(n, C))
        hid = rng.normal(size=(b, n))
        vis = rng.normal(size=(b, C) if per_row_vis else C)
        y0 = (rng.random((b, C)) < 0.5).astype(float)
        batched, serial, rows = (np.random.default_rng(8) for _ in range(3))
        got = cd_chain(hid, vis, U, y0, K, batched)
        for i in range(b):
            row_vis = vis[i] if per_row_vis else vis
            want = row_cd_chain(hid[i], row_vis, U, y0[i], K, serial)
            # and one row passed as 1-D arrays
            one = cd_chain(hid[i], row_vis, U, y0[i], K, rows)
            for g, w, o in zip(got, want, one):
                assert g[i].tobytes() == w.tobytes() == o.tobytes()
        assert batched.bit_generator.state == rows.bit_generator.state
        assert batched.random() == serial.random()

    def test_on_rate_is_the_sigmoid(self):
        # with U = 0 label j is on with probability sigm(z_j) at any h
        z = np.array([-40.0, -5.0, 0.0, 5.0, 40.0])
        draws = 10 ** 5
        _, _, yK = cd_chain(np.zeros((draws, 1)), z, np.zeros((1, len(z))),
                            np.zeros((draws, len(z))), 1,
                            np.random.default_rng(3))
        rate, p = yK.mean(axis=0), sigm(z)
        # within 6 binomial standard deviations: a false alarm has odds
        # of about 2e-9 per rate
        assert np.all(np.abs(rate - p) <= 6 * np.sqrt(p * (1 - p) / draws))
        # the noise lies within +-36.8, so +-40 is never and always on
        assert (rate[0], rate[-1]) == (0.0, 1.0)

    def test_returns_blocks(self):
        h0, hK, yK = cd_chain(np.zeros((5, 2)), np.zeros(3), np.zeros((2, 3)),
                              np.ones((5, 3)), 2, np.random.default_rng(0))
        assert (h0.shape, hK.shape, yK.shape) == ((5, 2), (5, 2), (5, 3))
        assert set(np.unique(yK)) <= {0.0, 1.0}

    def test_one_row_returns_rows(self):
        h0, hK, yK = cd_chain(np.zeros(2), np.zeros(3), np.zeros((2, 3)),
                              np.ones(3), 2, np.random.default_rng(0))
        assert (h0.shape, hK.shape, yK.shape) == ((2,), (2,), (3,))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            cd_chain(np.zeros((1, 2)), np.zeros(3), np.zeros((2, 3)),
                     np.ones((1, 3)), 0, np.random.default_rng(0))


class TestMeanField:
    @pytest.mark.parametrize("tol", [1e-8, 0.0])
    @pytest.mark.parametrize("per_row_vis", [False, True])
    def test_batch_equals_row_calls(self, tol, per_row_vis):
        rng = np.random.default_rng(12)
        b, n, C = 30, 6, 4
        # coupling scales that differ by row make rows converge at
        # different iterations
        U = rng.normal(size=(n, C))
        hid = rng.normal(size=(b, n)) * rng.uniform(0.1, 3.0, (b, 1))
        vis = rng.normal(size=(b, C) if per_row_vis else C)
        y0 = rng.random((b, C))
        got = mean_field(hid, vis, U, y0, 200, tol)
        steps = set()
        for i in range(b):
            row_vis = vis[i] if per_row_vis else vis
            want, k = row_mean_field(hid[i], row_vis, U, y0[i], 200, tol)
            # and one row passed as 1-D arrays, which stops where the
            # block freezes its row while other rows keep iterating
            one = mean_field(hid[i], row_vis, U, y0[i], 200, tol)
            assert one.shape == (C,)
            assert got[i].tobytes() == want.tobytes() == one.tobytes()
            steps.add(k)
        # rows stop at different steps, or all run the K steps
        assert len(steps) > 5 if tol else steps == {200}

    def test_rows_converging_at_the_same_step(self):
        rng = np.random.default_rng(2)
        U = rng.normal(size=(3, 2))
        hid, y0 = rng.normal(size=3), rng.random(2)
        got = mean_field(np.tile(hid, (4, 1)), np.zeros(2), U,
                         np.tile(y0, (4, 1)), 200, 1e-8)
        want, k = row_mean_field(hid, np.zeros(2), U, y0, 200, 1e-8)
        assert k < 200
        for row in got:
            assert row.tobytes() == want.tobytes()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            mean_field(np.zeros((1, 2)), np.zeros(3), np.zeros((2, 3)),
                       np.zeros((1, 3)), 0, 0.0)


def test_params_validate_shapes():
    with pytest.raises(ShapeError):
        DrbmParams(np.zeros((2, 3)), np.zeros((3, 1)), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        DrbmParams(np.full((2, 3), np.nan), np.zeros((2, 1)), np.zeros(2), np.zeros(3))


def test_params_dims_follow_the_declared_shapes():
    p = DrbmParams.zeros(3, 2, 4)
    assert list(p.dims.items()) == [("n", 3), ("C", 2), ("D", 4)]
    assert (p.n, p.C, p.D) == (3, 2, 4)
    assert list(p.arrays()) == ["U", "W", "c", "d"]
    with pytest.raises(ShapeError, match=r"^c must have length n, got shape "
                                         r"\(2,\) with n=3$"):
        DrbmParams(p.U, p.W, np.zeros(2), p.d)


def declared_values(kind, rng):
    """An array of normal draws for each of the kind's SHAPES at (n, C,
    D, H, A) = (2, 3, 4, 5, 6), then each of its FIELDS as the sizes of
    its names, A being (users, tracks, clips) = (1, 2, 3), by name."""
    size = {"n": 2, "C": 3, "D": 4, "H": 5, "A": 6, "users": 1, "tracks": 2,
            "clips": 3}
    cls = KIND_TABLE[kind].params
    arrays = {name: rng.normal(size=tuple(size[d] for d in axes))
              for name, axes in cls.SHAPES.items()}
    return {**arrays, **{field: tuple(size[d] for d in names)
                         for field, names in cls.FIELDS.items()}}


class TestOneDeclaration:
    """Every parameter class is built from its SHAPES and FIELDS alone."""

    @pytest.mark.parametrize("kind", sorted(KIND_TABLE))
    def test_positional_construction_follows_shapes(self, kind, rng):
        cls = KIND_TABLE[kind].params
        values = declared_values(kind, rng)
        by_name, by_position = cls(**values), cls(*values.values())
        assert list(by_position.arrays()) == list(cls.SHAPES)
        assert as_bytes(by_position.arrays().values()) == as_bytes(
            by_name.arrays().values())
        assert as_bytes(by_name.arrays().values()) == as_bytes(
            values[name] for name in cls.SHAPES)
        for name in cls.FIELDS:
            assert getattr(by_position, name) == getattr(by_name, name)

    @pytest.mark.parametrize("kind", sorted(KIND_TABLE))
    @pytest.mark.parametrize("case", ["missing", "repeated", "unknown",
                                      "too-many"])
    def test_a_bad_field_is_a_type_error(self, kind, case, rng):
        cls = KIND_TABLE[kind].params
        values = declared_values(kind, rng)
        *rest, last = values
        first = rest[0]
        args, kwargs, message = {
            "missing": ([values[n] for n in rest], {},
                        f"missing a required argument: '{last}'"),
            # the first field by position and by name
            "repeated": ([values[first]], values,
                         f"multiple values for argument '{first}'"),
            "unknown": ([], {**values, "bogus": 0},
                        "unexpected keyword argument 'bogus'"),
            "too-many": ([*values.values(), 0], {},
                         "too many positional arguments"),
        }[case]
        with pytest.raises(TypeError, match=message):
            cls(*args, **kwargs)


def test_params_copy_is_not_checked_again():
    # a trainer copies its start point; an entry planted non-finite in it
    # must reach the divergence check, not fail the copy
    p = DrbmParams.zeros(2, 2, 1)
    p.U[0, 0] = np.nan
    q = p.copy()
    assert type(q) is DrbmParams and np.isnan(q.U[0, 0])
    q.W[0, 0] = 1.0
    assert p.W[0, 0] == 0.0


# The per-class inits that Params.random_init and Params.zeros replaced,
# frozen as the reference: the same arrays to the bit, drawn from the rng
# in the same order.

def reference_drbm_init(n, C, D, rng, scale):
    return (rng.uniform(-scale, scale, size=(n, C)),
            rng.uniform(-scale, scale, size=(n, D)), np.zeros(n), np.zeros(C))


def reference_grbm_init(n, C, D, rng, scale):
    return (*reference_drbm_init(n, C, D, rng, scale), np.zeros(D))


def reference_smoother_init(n, C, aux_sizes, rng, scale):
    A = sum(aux_sizes)
    return (rng.uniform(-scale, scale, (n, C)),
            rng.uniform(-scale, scale, (n, C)),
            rng.uniform(-scale, scale, (C, A)), np.zeros(n), np.zeros(C))


def reference_mlp_init(D, H, C, rng, scale):
    return (rng.uniform(-scale, scale, (D, H)), np.zeros(H),
            rng.uniform(-scale, scale, (H, C)), np.zeros(C))


def as_bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestInit:
    @pytest.mark.parametrize("kind, sizes", [
        ("drbm", (3, 2, 4)), ("grbm", (3, 2, 4)),
        ("smoother", (3, 2, (2, 1, 4))), ("mlp", (4, 3, 2))])
    @pytest.mark.parametrize("scale", [None, 0.3])
    def test_random_init_matches_the_per_class_init(self, kind, sizes,
                                                    scale):
        reference = {"drbm": reference_drbm_init,
                     "grbm": reference_grbm_init,
                     "smoother": reference_smoother_init,
                     "mlp": reference_mlp_init}[kind]
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        options = {} if scale is None else {"scale": scale}
        p = KIND_TABLE[kind].params.random_init(*sizes, rng, **options)
        want = reference(*sizes, ref_rng, 0.01 if scale is None else scale)
        assert as_bytes(p.arrays().values()) == as_bytes(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if kind == "smoother":
            assert p.aux_sizes == sizes[2]

    @pytest.mark.parametrize("kind, sizes, want", [
        ("drbm", (4, 3, 2), [(4, 3), (4, 2), (4,), (3,)]),
        ("logreg", (3, 2), [(3, 2), (2,)])])
    def test_zeros_matches_the_per_class_zeros(self, kind, sizes, want):
        p = KIND_TABLE[kind].params.zeros(*sizes)
        assert as_bytes(p.arrays().values()) == as_bytes(map(np.zeros, want))

    def test_sizes_follow_dims(self):
        with pytest.raises(ValueError):
            DrbmParams.zeros(4, 3)
