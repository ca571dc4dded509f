import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitag import estimators
from multitag.core import (DrbmParams, Gradient, LabeledExample, cd_chain,
                           log1pexp, sigm)
from multitag.estimators import (ESTIMATORS, EXACT_OBJECTIVE_CELLS,
                                 PROBE_ROWS, DivergenceError,
                                 GaussianGradient, GaussianRbmParams,
                                 TrainConfig, cd_gradient,
                                 _pl_ascent, cond_objective,
                                 generative_cd_gradient, lbp_gradient,
                                 log_pl_rows, mfcd_gradient, pl_gradient, sgd,
                                 sgd_train, sgd_train_generative)
from multitag.oracle import exact_cond_prob, exact_grad, log_pl_reference
from multitag.verify import check_pl_gradient
from conftest import random_instance


def arrays(data):
    """The (N, D) features and (N, C) labels of a list of examples."""
    return np.array([ex.x for ex in data]), np.array([ex.y for ex in data])


class TestCdGradient:
    def test_decoupled_label_bias_expectation(self):
        # with U = W = 0 and c = 0, the chain's label resample is an
        # unbiased draw from sigm(d), so E[dd] = y - sigm(d).  The runs go
        # through one batched chain with cd_gradient's inputs; it draws
        # the stream of the serial calls, and dd = y - yK holds integers,
        # so its sum is exact in any order
        rng = np.random.default_rng(5)
        C, n, D = 3, 2, 2
        p = DrbmParams(np.zeros((n, C)), np.zeros((n, D)), np.zeros(n),
                       np.array([0.4, -0.8, 0.1]))
        ex = LabeledExample(np.zeros(D), np.array([1.0, 0.0, 1.0]))
        runs = 100_000
        _, _, yK = cd_chain(np.broadcast_to(p.c + p.W @ ex.x, (runs, n)), p.d,
                            p.U, np.broadcast_to(ex.y, (runs, C)), 1, rng)
        acc = np.sum(ex.y - yK, axis=0)
        mean = acc / runs
        target = ex.y - sigm(p.d)
        se = np.sqrt(sigm(p.d) * (1 - sigm(p.d)) / runs)
        assert np.all(np.abs(mean - target) < 3 * se)

    def test_zero_when_phases_coincide(self, rng):
        # degenerate biases pin the chain to the training configuration
        _, p = random_instance(rng, scale=0.1)
        p.d[:] = 50.0
        ex = LabeledExample(np.zeros(p.D), np.ones(p.C))
        g = cd_gradient(ex, p, K=3, rng=rng)
        assert np.abs(g.flat()).max() < 1e-12

    def test_reproducible_given_rng_state(self, rng):
        ex, p = random_instance(rng)
        a = cd_gradient(ex, p, K=5, rng=np.random.default_rng(9))
        b = cd_gradient(ex, p, K=5, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.flat(), b.flat())

    def test_rejects_bad_k(self, rng):
        ex, p = random_instance(rng)
        with pytest.raises(ValueError):
            cd_gradient(ex, p, K=0, rng=rng)


class TestMfcdGradient:
    def test_decoupled_recovers_logistic_biases(self, rng):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        ex = LabeledExample(rng.normal(size=p.D),
                            (rng.random(p.C) < 0.5).astype(float))
        g = mfcd_gradient(ex, p, K=1)
        np.testing.assert_allclose(g.dd, ex.y - sigm(p.d), atol=1e-12)
        np.testing.assert_allclose(g.dc, np.zeros(p.n), atol=1e-12)
        np.testing.assert_allclose(g.dW, np.zeros_like(p.W), atol=1e-12)

    def test_deterministic(self, rng):
        ex, p = random_instance(rng)
        np.testing.assert_array_equal(mfcd_gradient(ex, p, K=4).flat(),
                                      mfcd_gradient(ex, p, K=4).flat())

    def test_bias_versus_exact_recorded(self, rng, capsys):
        # mean-field CD is biased; record the typical gap, assert only a
        # loose sanity bound on the ascent direction's alignment
        dots = []
        for _ in range(20):
            ex, p = random_instance(rng, scale=0.3)
            g = mfcd_gradient(ex, p, K=5)
            e = exact_grad(ex, p)
            dots.append(float(g.flat() @ e.flat()))
        print(f"mfcd/exact inner products: min {min(dots):.3e}")
        assert np.mean(dots) > 0.0


class TestLbpGradient:
    def test_decoupled_matches_exact(self, rng):
        _, p = random_instance(rng)
        p.U[:] = 0.0
        ex = LabeledExample(rng.normal(size=p.D),
                            (rng.random(p.C) < 0.5).astype(float))
        g = lbp_gradient(ex, p, K=5, beta=0.0)
        e = exact_grad(ex, p)
        np.testing.assert_allclose(g.flat(), e.flat(), atol=1e-10)

    def test_single_hidden_unit_matches_exact(self, rng):
        # one hidden unit makes the graph a tree, so the marginals and
        # hence the estimated model expectation are exact
        for _ in range(5):
            ex, p = random_instance(rng, C=5, n=1)
            g = lbp_gradient(ex, p, K=25, beta=0.0)
            e = exact_grad(ex, p)
            np.testing.assert_allclose(g.flat(), e.flat(), atol=1e-7)

    def test_bounded_entries(self, rng):
        # every statistic is a probability difference, scaled by x for dW
        ex, p = random_instance(rng, scale=1.0)
        g = lbp_gradient(ex, p, K=20, beta=0.5)
        assert np.max(np.abs(g.dU)) <= 1 + 1e-9
        assert np.max(np.abs(g.dc)) <= 1 + 1e-9
        assert np.max(np.abs(g.dd)) <= 1 + 1e-9
        assert np.max(np.abs(g.dW)) <= np.max(np.abs(ex.x)) + 1e-9


def pl_gradient_by_conditionals(ex, p):
    """The pseudo-likelihood gradient as a sum of exact likelihood
    gradients: p(y_j | y_\\j, x) is the one-label DRBM with label
    weights U_j, label bias d_j and hidden bias c + sum_{k != j} U_k y_k,
    so its bias gradient dc' reaches column k of dU as y_k dc'."""
    x, y = ex.x, ex.y
    g = Gradient(np.zeros_like(p.U), np.zeros_like(p.W), np.zeros_like(p.c),
                 np.zeros_like(p.d))
    for j in range(p.C):
        rest = np.arange(p.C) != j
        one = DrbmParams(p.U[:, [j]], p.W, p.c + p.U[:, rest] @ y[rest],
                         p.d[[j]])
        gj = exact_grad(LabeledExample(x, y[[j]]), one)
        g.dU[:, j] += gj.dU[:, 0]
        g.dU[:, rest] += gj.dc[:, None] * y[rest]
        g.dW += gj.dW
        g.dc += gj.dc
        g.dd[j] += gj.dd[0]
    return g


class TestPlGradient:
    def test_single_label_equals_exact(self, rng):
        # with one label the pseudo-likelihood is the likelihood
        for _ in range(5):
            ex, p = random_instance(rng, C=1)
            g, log_pl = pl_gradient(ex, p)
            np.testing.assert_allclose(g.flat(), exact_grad(ex, p).flat(),
                                       atol=1e-10)
            assert log_pl == pytest.approx(log_pl_reference(ex, p), abs=1e-10)

    def test_matches_finite_differences(self, rng):
        assert check_pl_gradient(rng, 5)

    @pytest.mark.parametrize("C", [1, 3, 8])
    @pytest.mark.parametrize("labels", ["zeros", "ones", "drawn"])
    def test_is_the_sum_of_one_label_exact_gradients(self, rng, C, labels):
        for _ in range(5):
            ex, p = random_instance(rng, C=C, n=4, D=3, scale=1.0)
            y = {"zeros": np.zeros(C), "ones": np.ones(C), "drawn": ex.y}
            ex = LabeledExample(ex.x, y[labels])
            np.testing.assert_allclose(
                pl_gradient(ex, p)[0].flat(),
                pl_gradient_by_conditionals(ex, p).flat(), rtol=0, atol=1e-12)

    def test_log_pl_nonpositive(self, rng):
        for _ in range(10):
            ex, p = random_instance(rng, scale=1.0)
            _, log_pl = pl_gradient(ex, p)
            assert log_pl <= 1e-12


# The two-block pseudo-likelihood kernel that the flipped-bit block
# replaced, frozen as the reference: it builds the hidden inputs with bit
# j off (T0) and on (T1) and runs log1pexp and sigm over both.

def reference_pl_ascent(example, p):
    x, y = example.x, example.y
    c_data = p.c + p.W @ x + p.U @ y
    T0 = c_data[:, None] - p.U * y[None, :]
    T1 = T0 + p.U
    pre = p.d + np.sum(log1pexp(T1) - log1pexp(T0), axis=0)
    dout = sigm(pre) - y
    S0 = sigm(T0)
    S1 = sigm(T1)
    dU_direct = ((1 - y)[None, :] * S1 + y[None, :] * S0) * dout[None, :]
    dhid = ((S1 - S0) * dout[None, :]).sum(axis=1)
    return Gradient(dU=-(dU_direct + dhid[:, None] * y),
                    dW=-(dhid[:, None] * x), dc=-dhid, dd=-dout), pre


def reference_log_pl_rows(X, Y, p):
    c_data = p.c + X @ p.W.T + Y @ p.U.T
    T0 = c_data[:, :, None] - p.U * Y[:, None, :]
    T1 = T0 + p.U
    pre = p.d + np.sum(log1pexp(T1) - log1pexp(T0), axis=1)
    return -np.sum(Y * log1pexp(-pre) + (1 - Y) * log1pexp(pre), axis=1)


@st.composite
def pl_blocks(draw):
    """A model and a block of rows, up to saturated hidden inputs: |U| up
    to 40, and |c + Wx| near 700 in every hidden unit of the first row."""
    C, n, D, b = (draw(st.integers(1, k)) for k in (6, 5, 4, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.5, 5.0, 40.0]))
    p = DrbmParams(rng.uniform(-scale, scale, (n, C)), rng.normal(size=(n, D)),
                   rng.normal(size=n), rng.normal(size=C))
    X = rng.normal(size=(b, D))
    Y = (rng.random((b, C)) < draw(st.sampled_from([0.0, 0.5, 1.0]))) * 1.0
    if draw(st.booleans()):
        p.c[:] = rng.choice([-700.0, 700.0], n) + rng.uniform(-1, 1, n) \
            - p.W @ X[0]
    return p, X, Y


def assert_near(got, want):
    """Equal to 1e-12 relative to the larger of 1 and the largest |entry|."""
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestPlMatchesTwoBlockKernel:
    @given(pl_blocks())
    @settings(max_examples=300, deadline=None)
    def test_gradient_pre_and_log_pl(self, block):
        p, X, Y = block
        with np.errstate(over="raise", invalid="raise"):
            for x, y in zip(X, Y):
                grad, _, pre = _pl_ascent(LabeledExample(x, y), p)
                want, want_pre = reference_pl_ascent(LabeledExample(x, y), p)
                assert_near(pre, want_pre)
                for name in vars(grad):
                    assert_near(getattr(grad, name), getattr(want, name))
            assert_near(log_pl_rows(X, Y, p), reference_log_pl_rows(X, Y, p))


class TestGenerativeCd:
    def test_decoupled_feature_bias(self, rng):
        # with W = 0 the reconstruction is bx itself, so dbx = x - bx
        p = GaussianRbmParams(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2),
                              np.zeros(3), rng.normal(size=4))
        ex = LabeledExample(rng.normal(size=4),
                            (rng.random(3) < 0.5).astype(float))
        g = generative_cd_gradient(ex, p, K=1, rng=rng)
        np.testing.assert_allclose(g.dbx, ex.x - p.bx, atol=1e-12)

    def test_zero_when_pinned(self, rng):
        p = GaussianRbmParams(np.zeros((2, 2)), np.zeros((2, 3)),
                              np.full(2, 50.0), np.full(2, 50.0), np.ones(3))
        ex = LabeledExample(p.bx.copy(), np.ones(2))
        g = generative_cd_gradient(ex, p, K=2, rng=rng)
        for a in (g.dU, g.dW, g.dc, g.dd, g.dbx):
            assert np.max(np.abs(a)) < 1e-12

    @pytest.mark.parametrize("K", [1, 3, 10])
    def test_matches_the_sample_bernoulli_form(self, K):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            p = GaussianRbmParams.random_init(4, 3, 5, rng, scale=1.0)
            ex = LabeledExample(rng.normal(size=5),
                                (rng.random(3) < 0.5).astype(float))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = generative_cd_gradient(ex, p, K, a)
            want = sample_bernoulli_generative_cd_gradient(ex, p, K, b)
            for name, value in vars(want).items():
                assert getattr(got, name).tobytes() == value.tobytes(), name
            assert a.bit_generator.state == b.bit_generator.state

    def test_flat_lists_the_arrays_in_shapes_order(self, rng):
        # the row step adds a gradient's arrays in this order; every shape
        # differs at (n, C, D) = (3, 2, 4)
        p = GaussianRbmParams.random_init(3, 2, 4, rng, scale=0.5)
        ex = LabeledExample(rng.normal(size=4), np.array([1.0, 0.0]))
        g = generative_cd_gradient(ex, p, K=1, rng=rng)
        assert [a.shape for a in g] == [a.shape for a in p.arrays().values()]
        want = [getattr(g, "d" + name) for name in GaussianRbmParams.SHAPES]
        assert g.flat().tobytes() == np.concatenate(
            [a.ravel() for a in want]).tobytes()

    def test_training_matches_the_sample_bernoulli_form(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 5))
        Y = (rng.random((8, 3)) < 0.5).astype(float)
        p0 = GaussianRbmParams.random_init(4, 3, 5, rng, scale=0.3)
        cfg = TrainConfig(estimator="cd", k=2, lr=0.05, epochs=2, seed=7)
        got = sgd_train_generative(X, Y, p0, cfg)
        monkeypatch.setattr(estimators, "generative_cd_gradient",
                            sample_bernoulli_generative_cd_gradient)
        assert_same_bytes(got, sgd_train_generative(X, Y, p0, cfg))


def sample_bernoulli_generative_cd_gradient(example, p, K, rng):
    """generative_cd_gradient as it was written with a sampling helper,
    frozen: each Gibbs draw checked that its probabilities lie in [0, 1]
    and drew rng.random(probs.shape) < probs."""
    def sample_bernoulli(probs, rng):
        probs = np.asarray(probs, dtype=float)
        if np.any(probs < 0) or np.any(probs > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        return (rng.random(probs.shape) < probs).astype(float)

    x0, y0 = example.x, example.y
    h0 = sigm(p.c + p.W @ x0 + p.U @ y0)
    x, y = x0, y0
    for _ in range(K):
        h = sample_bernoulli(sigm(p.c + p.W @ x + p.U @ y), rng)
        y = sample_bernoulli(sigm(p.d + p.U.T @ h), rng)
        x = p.bx + p.W.T @ h
    hK = sigm(p.c + p.W @ x + p.U @ y)
    return GaussianGradient(dU=h0[:, None] * y0 - hK[:, None] * y,
                            dW=h0[:, None] * x0 - hK[:, None] * x,
                            dc=h0 - hK, dd=y0 - y, dbx=x0 - x)



class TestGaussianRbmParams:
    def test_is_a_drbm_drawn_from_the_same_stream(self):
        p = GaussianRbmParams.random_init(3, 2, 4, np.random.default_rng(6))
        q = DrbmParams.random_init(3, 2, 4, np.random.default_rng(6))
        assert isinstance(p, DrbmParams)
        for name in ("U", "W", "c", "d"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
        np.testing.assert_array_equal(p.bx, np.zeros(4))

    @pytest.mark.parametrize("name", ["U", "W", "c", "d", "bx"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entry_in_any_field(self, rng, name, value):
        arrays = vars(GaussianRbmParams.random_init(3, 2, 4, rng))
        arrays[name].flat[-1] = value
        with pytest.raises(ValueError,
                           match=f"^array {name}: non-finite entry$"):
            GaussianRbmParams(**arrays)

    def test_rejects_wrong_length_bx(self, rng):
        p = GaussianRbmParams.random_init(3, 2, 4, rng)
        with pytest.raises(ValueError, match="bx must have length D"):
            GaussianRbmParams(p.U, p.W, p.c, p.d, np.zeros(5))

    def test_copy_keeps_the_type_not_the_storage(self, rng):
        p = GaussianRbmParams.random_init(3, 2, 4, rng)
        q = p.copy()
        assert type(q) is GaussianRbmParams
        np.testing.assert_array_equal(q.bx, p.bx)
        q.bx[0] = 99.0
        assert p.bx[0] != 99.0


class TestSgdTrain:
    def test_zero_learning_rate_is_noop(self, rng):
        data = [random_instance(rng)[0] for _ in range(4)]
        _, p0 = random_instance(rng)
        cfg = TrainConfig(estimator="pl", lr=0.0, epochs=3, seed=1)
        p = sgd_train(*arrays(data), p0, cfg)
        np.testing.assert_array_equal(p.U, p0.U)
        np.testing.assert_array_equal(p.d, p0.d)

    def test_pl_training_fits_small_dataset(self, rng):
        # a separable two-example dataset should be fit almost perfectly
        x0, x1 = np.array([2.0, 0.0]), np.array([-2.0, 0.0])
        data = [LabeledExample(x0, np.array([1.0, 1.0])),
                LabeledExample(x1, np.array([0.0, 0.0]))]
        p0 = DrbmParams.random_init(3, 2, 2, rng)
        cfg = TrainConfig(estimator="pl", lr=0.5, epochs=500, seed=0)
        p = sgd_train(*arrays(data), p0, cfg)
        from multitag.oracle import exact_cond_prob
        for ex in data:
            assert exact_cond_prob(ex.y, ex.x, p) > 0.99

    def test_deterministic_for_fixed_seed(self, rng):
        data = [random_instance(rng)[0] for _ in range(6)]
        _, p0 = random_instance(rng)
        cfg = TrainConfig(estimator="cd", k=2, lr=0.05, epochs=3, seed=7)
        a = sgd_train(*arrays(data), p0, cfg)
        b = sgd_train(*arrays(data), p0, cfg)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.W, b.W)

    def test_divergence_guard(self, rng):
        data = [random_instance(rng)[0] for _ in range(2)]
        _, p0 = random_instance(rng)
        cfg = TrainConfig(estimator="pl", lr=1e9, epochs=5, seed=0)
        with pytest.raises(DivergenceError):
            sgd_train(*arrays(data), p0, cfg)

    def test_divergence_is_the_last_record(self, rng):
        # the epochs before the divergence keep their records
        _, p0 = random_instance(rng)
        steps = []

        def step(p, i, rng):
            steps.append(i)
            if len(steps) > 2:  # the second epoch blows up
                p.U[0, 0] = np.nan

        records = io.StringIO()
        with pytest.raises(DivergenceError, match="epoch 1"):
            sgd(p0, 2, step, TrainConfig(epochs=3), records, estimator="cd")
        lines = [json.loads(r) for r in records.getvalue().splitlines()]
        assert lines[0]["epoch"] == 0 and "diverged" not in lines[0]
        assert lines[1] == {"kind": "drbm", "estimator": "cd", "epoch": 1,
                            "diverged": True}
        assert len(lines) == 2

    def test_exact_ascent_monotone_on_average(self, rng):
        # small steps along pl gradients should not reduce the total
        # pseudo-likelihood over a full pass
        data = [random_instance(rng, C=3, n=2, D=2)[0] for _ in range(5)]
        _, p0 = random_instance(rng, C=3, n=2, D=2)
        before = sum(log_pl_reference(ex, p0) for ex in data)
        cfg = TrainConfig(estimator="pl", lr=1e-3, epochs=200, seed=0)
        p = sgd_train(*arrays(data), p0, cfg)
        after = sum(log_pl_reference(ex, p) for ex in data)
        assert after > before - 1e-9

    def test_log_file_written(self, rng, tmp_path):
        data = [random_instance(rng)[0] for _ in range(2)]
        _, p0 = random_instance(rng)
        cfg = TrainConfig(estimator="mfcd", lr=0.01, epochs=2, seed=0)
        log = tmp_path / "train.jsonl"
        with open(log, "w") as fh:
            sgd_train(*arrays(data), p0, cfg, record_file=fh)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1]
        assert all(math.isfinite(r["value"]) for r in records)

    def test_empty_dataset_rejected(self, rng):
        _, p0 = random_instance(rng)
        with pytest.raises(ValueError):
            sgd_train(np.empty((0, p0.D)), np.empty((0, p0.C)), p0,
                      TrainConfig())


class TestBlockCheck:
    @pytest.mark.parametrize("trainer, params", [
        (sgd_train, DrbmParams), (sgd_train_generative, GaussianRbmParams)],
        ids=["sgd_train", "sgd_train_generative"])
    @pytest.mark.parametrize("case, message", [
        ("nan-feature", "non-finite feature entry"),
        ("half-label", "labels must be 0/1"),
        ("row-counts", "2 feature rows but 1 label rows"),
        ("1-d-features", r"features must be N x 2, got shape \(2,\)"),
        ("feature-width", r"features must be N x 2, got shape \(2, 3\)"),
        ("label-width", r"labels must be N x 2, got shape \(2, 3\)")],
        ids=["nan-feature", "half-label", "row-counts", "1-d-features",
             "feature-width", "label-width"])
    def test_rejects_bad_block(self, rng, trainer, params, case, message):
        # the rows are checked once, before the first step
        X, Y = np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]])
        if case == "nan-feature":
            X[1, 0] = np.nan
        elif case == "half-label":
            Y[1] = [0.0, 0.5]
        elif case == "row-counts":
            Y = Y[:1]
        elif case == "1-d-features":
            X = X[:, 0]
        elif case == "feature-width":
            X = np.zeros((2, 3))
        else:
            Y = np.zeros((2, 3))
        p0 = params.random_init(3, 2, 2, rng)
        with pytest.raises(ValueError, match=message):
            trainer(X, Y, p0, TrainConfig(epochs=0))


class TestSgdTrainGenerative:
    def test_learns_feature_means(self, rng):
        # a decoupled generative model should move bx toward the data mean
        mean = np.array([1.5, -0.5])
        data = [LabeledExample(mean + 0.1 * rng.normal(size=2),
                               np.zeros(1)) for _ in range(30)]
        p0 = GaussianRbmParams(np.zeros((1, 1)), np.zeros((1, 2)),
                               np.array([-50.0]), np.array([-50.0]),
                               np.zeros(2))
        cfg = TrainConfig(estimator="cd", k=1, lr=0.05, epochs=40, seed=0)
        p = sgd_train_generative(*arrays(data), p0, cfg)
        np.testing.assert_allclose(p.bx, mean, atol=0.1)

    def test_divergence_guard(self, rng):
        data = [LabeledExample(rng.normal(size=2), np.ones(1))
                for _ in range(2)]
        p0 = GaussianRbmParams.random_init(2, 1, 2, rng)
        cfg = TrainConfig(estimator="cd", k=1, lr=1e9, epochs=5, seed=0)
        with pytest.raises(DivergenceError):
            sgd_train_generative(*arrays(data), p0, cfg)


def assert_same_bytes(a, b):
    """Every array field of two parameter objects is bit for bit equal."""
    for name, value in vars(a).items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == getattr(b, name).tobytes(), name


class TestEpochObjective:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_logging_leaves_parameters_unchanged(self, rng, estimator):
        data = [random_instance(rng)[0] for _ in range(6)]
        _, p0 = random_instance(rng)
        cfg = TrainConfig(estimator=estimator, k=2, lr=0.1, epochs=3, seed=4)
        records = io.StringIO()
        assert_same_bytes(sgd_train(*arrays(data), p0, cfg),
                          sgd_train(*arrays(data), p0, cfg, records))
        records = [json.loads(r) for r in records.getvalue().splitlines()]
        assert [(r["epoch"], r["estimator"]) for r in records] == [
            (0, estimator), (1, estimator), (2, estimator)]
        assert all(math.isfinite(r["value"]) for r in records)

    def test_generative_logging_leaves_parameters_unchanged(self, rng):
        data = [LabeledExample(rng.normal(size=3),
                               (rng.random(2) < 0.5).astype(float))
                for _ in range(6)]
        p0 = GaussianRbmParams.random_init(3, 2, 3, rng, scale=0.3)
        cfg = TrainConfig(estimator="cd", k=2, lr=0.05, epochs=3, seed=4)
        records = io.StringIO()
        logged = sgd_train_generative(*arrays(data), p0, cfg, records)
        assert_same_bytes(sgd_train_generative(*arrays(data), p0, cfg), logged)
        record = json.loads(records.getvalue().splitlines()[-1])
        # the objective is that of the label conditional p(y|x)
        assert record["kind"] == "grbm"
        assert record["objective"] == "log_likelihood"
        assert record["value"] == pytest.approx(np.mean(
            [math.log(exact_cond_prob(ex.y, ex.x, logged))
             for ex in data]), abs=1e-12)

    def test_exact_path_matches_oracle_on_the_probe(self, rng):
        # more examples than the probe holds: only the first PROBE_ROWS count
        data = [random_instance(rng, C=3, n=2, D=2)[0]
                for _ in range(PROBE_ROWS + 9)]
        _, p = random_instance(rng, C=3, n=2, D=2)
        name, value = cond_objective(*arrays(data))(p)
        assert name == "log_likelihood"
        expected = np.mean([math.log(exact_cond_prob(ex.y, ex.x, p))
                            for ex in data[:PROBE_ROWS]])
        assert value == pytest.approx(expected, abs=1e-12)

    def test_batched_log_pl_matches_reference_row_by_row(self, rng):
        data = [random_instance(rng, C=6, n=4, D=3, scale=1.0)[0]
                for _ in range(9)]
        _, p = random_instance(rng, C=6, n=4, D=3, scale=1.0)
        rows = log_pl_rows(np.array([ex.x for ex in data]),
                           np.array([ex.y for ex in data]), p)
        np.testing.assert_allclose(
            rows, [log_pl_reference(ex, p) for ex in data], rtol=0,
            atol=1e-12)

    def test_cut_over_to_pseudo_likelihood(self, rng):
        C, n = 12, 16
        rows = EXACT_OBJECTIVE_CELLS // (2 ** C * n)   # 16 rows fit exactly
        data = [random_instance(rng, C=C, n=n, D=2)[0]
                for _ in range(rows + 1)]
        _, p = random_instance(rng, C=C, n=n, D=2)
        assert cond_objective(*arrays(data[:rows]))(p)[0] == "log_likelihood"
        name, value = cond_objective(*arrays(data))(p)
        assert name == "log_pseudo_likelihood"
        assert value == pytest.approx(
            np.mean([log_pl_reference(ex, p) for ex in data]), abs=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(estimator="gibbs")
    with pytest.raises(ValueError):
        TrainConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(beta=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="l1 must be >= 0"):
        TrainConfig(l1=-0.5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            TrainConfig(lr=bad)
        with pytest.raises(ValueError, match="l1 must be finite"):
            TrainConfig(l1=bad)
