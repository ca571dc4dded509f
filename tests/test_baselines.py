import numpy as np
import pytest

from multitag.baselines import (LogRegParams, MlpParams, cross_entropy,
                                logreg_predict, logreg_train, mlp_predict,
                                mlp_train)
from multitag.core import ShapeError, sigm
from multitag.estimators import DivergenceError, TrainConfig
from multitag.oracle import finite_diff


def separable_data(rng, n=40):
    X = rng.normal(size=(n, 2))
    targets = np.stack([(X[:, 0] > 0).astype(float),
                        (X[:, 1] > 0).astype(float)], axis=1)
    return X, targets


class TestParams:
    def test_mlp_checks_every_shape_against_the_others(self, rng):
        p = MlpParams.random_init(4, 3, 2, rng)
        assert list(p.dims.items()) == [("D", 4), ("H", 3), ("C", 2)]
        with pytest.raises(ShapeError, match="b1 must have length H"):
            MlpParams(p.W1, np.zeros(1), p.W2, p.b2)
        with pytest.raises(ShapeError, match="W2 must be H x C"):
            MlpParams(p.W1, p.b1, np.zeros((2, 2)), p.b2)

    def test_logreg_checks_shapes_and_finiteness(self):
        with pytest.raises(ShapeError, match="b must have length C"):
            LogRegParams(np.zeros((3, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="^array b: non-finite entry$"):
            LogRegParams(np.zeros((3, 2)), [0.0, np.inf])

    def test_copy_keeps_the_type_not_the_storage(self, rng):
        p = MlpParams.random_init(4, 3, 2, rng)
        q = p.copy()
        assert type(q) is MlpParams
        q.b2[0] = 1.0
        assert p.b2[0] == 0.0


class TestPredict:
    def test_logreg_zero_params_gives_half(self):
        p = LogRegParams.zeros(3, 2)
        np.testing.assert_array_equal(logreg_predict(np.ones(3), p),
                                      [0.5, 0.5])

    def test_logreg_matches_sigmoid_formula(self, rng):
        p = LogRegParams(rng.normal(size=(3, 2)), rng.normal(size=2))
        x = rng.normal(size=3)
        np.testing.assert_allclose(logreg_predict(x, p), sigm(p.b + x @ p.W))

    def test_mlp_zero_second_layer_gives_bias(self, rng):
        p = MlpParams.random_init(3, 4, 2, rng)
        p.W2[:] = 0.0
        p.b2[:] = np.array([0.0, 2.0])
        out = mlp_predict(rng.normal(size=3), p)
        np.testing.assert_allclose(out, sigm(p.b2))

    def test_shape_checks(self, rng):
        with pytest.raises(ValueError):
            logreg_predict(np.ones(4), LogRegParams.zeros(3, 2))
        with pytest.raises(ValueError):
            mlp_predict(np.ones(4), MlpParams.random_init(3, 2, 2, rng))

    @pytest.mark.parametrize("B, D", [(1, 3), (7, 5), (32, 250), (300, 8)])
    def test_block_rows_equal_row_calls(self, rng, B, D):
        X = rng.normal(size=(B, D))
        mlp = MlpParams(rng.normal(size=(D, 6)), rng.normal(size=6),
                        rng.normal(size=(6, 4)), rng.normal(size=4))
        logreg = LogRegParams(rng.normal(size=(D, 4)), rng.normal(size=4))
        for predict, p in ((mlp_predict, mlp), (logreg_predict, logreg)):
            block = predict(X, p)
            assert block.shape == (B, 4)
            for i in range(B):
                np.testing.assert_array_equal(block[i], predict(X[i], p))

    def test_block_shape_checks(self, rng):
        with pytest.raises(ValueError):
            logreg_predict(np.ones((2, 4)), LogRegParams.zeros(3, 2))
        with pytest.raises(ValueError):
            mlp_predict(np.ones((2, 2, 3)), MlpParams.random_init(3, 2, 2, rng))


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        assert cross_entropy([1.0, 0.0], [1.0, 0.0], np.ones(2)) < 1e-10

    def test_uniform_prediction(self):
        assert cross_entropy([0.5, 0.5], [1.0, 0.0],
                             np.ones(2)) == pytest.approx(
            2 * np.log(2), rel=1e-9)

    def test_mask_drops_terms(self):
        full = cross_entropy([0.3, 0.9], [1.0, 0.0], np.ones(2))
        masked = cross_entropy([0.3, 0.9], [1.0, 0.0], mask=[1.0, 0.0])
        assert masked == pytest.approx(-np.log(0.3), rel=1e-9)
        assert masked < full


class TestLogRegTrain:
    def test_fits_separable_problem(self, rng):
        X, targets = separable_data(rng)
        p = logreg_train(X, targets, None, TrainConfig(lr=0.5, epochs=100, seed=0))
        preds = np.stack([logreg_predict(x, p) for x in X])
        assert np.mean((preds > 0.5) == (targets > 0.5)) > 0.95

    def test_masked_column_never_updates(self, rng):
        X, targets = separable_data(rng)
        mask = np.ones_like(targets)
        mask[:, 1] = 0.0
        p = logreg_train(X, targets, mask, TrainConfig(lr=0.5, epochs=20, seed=0))
        np.testing.assert_array_equal(p.W[:, 1], 0.0)
        np.testing.assert_array_equal(p.b[1], 0.0)

    def test_soft_targets_match_base_rate(self, rng):
        # constant soft target: the fitted bias reproduces it
        X = np.zeros((50, 2))
        targets = np.full((50, 1), 0.3)
        p = logreg_train(X, targets, None, TrainConfig(lr=0.5, epochs=200, seed=0))
        assert sigm(p.b[0]) == pytest.approx(0.3, abs=1e-3)

    def test_divergence_guard(self, rng):
        X, targets = separable_data(rng)
        with pytest.raises(DivergenceError):
            logreg_train(X * 1e4, targets, None,
                         TrainConfig(lr=1e6, epochs=5, seed=0))

    def test_deterministic(self, rng):
        X, targets = separable_data(rng)
        cfg = TrainConfig(lr=0.2, epochs=5, seed=3)
        a = logreg_train(X, targets, None, cfg)
        b = logreg_train(X, targets, None, cfg)
        np.testing.assert_array_equal(a.W, b.W)


class TestMlpTrain:
    def test_fits_xor(self, rng):
        # the classic nonlinear case logistic regression cannot solve
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        targets = np.array([[0.0], [1.0], [1.0], [0.0]])
        p0 = MlpParams.random_init(2, 8, 1, rng, scale=0.5)
        p = mlp_train(X, targets, None, TrainConfig(lr=0.5, epochs=2000, seed=0), p0)
        preds = np.array([mlp_predict(x, p)[0] for x in X])
        assert np.all((preds > 0.5) == (targets[:, 0] > 0.5))

    def test_gradients_match_finite_differences(self, rng):
        from multitag.baselines import _mlp_grads

        p = MlpParams(rng.normal(size=(3, 4)), rng.normal(size=4),
                      rng.normal(size=(4, 2)), rng.normal(size=2))
        x = rng.normal(size=3)
        t = np.array([1.0, 0.3])
        mask = np.array([1.0, 1.0])
        # the ascent direction: the gradient of minus the cross-entropy
        grads = np.concatenate([g.ravel() for g in _mlp_grads(x, t, mask, p)])
        fd = finite_diff(lambda q: -cross_entropy(mlp_predict(x, q), t, mask),
                         p)
        assert grads == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_deterministic(self, rng):
        X, targets = separable_data(rng)
        p0 = MlpParams.random_init(2, 4, 2, rng)
        cfg = TrainConfig(lr=0.1, epochs=3, seed=1)
        a = mlp_train(X, targets, None, cfg, p0)
        b = mlp_train(X, targets, None, cfg, p0)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)

    def test_divergence_guard(self, rng):
        X, targets = separable_data(rng)
        p0 = MlpParams.random_init(2, 4, 2, rng)
        with pytest.raises(DivergenceError):
            mlp_train(X * 1e5, targets, None,
                      TrainConfig(lr=1e6, epochs=5, seed=0), p0)


class TestBlockCheck:
    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    @pytest.mark.parametrize("case, message", [
        ("nan-feature", "non-finite feature entry"),
        ("row-counts", "2 feature rows but 3 label rows"),
        ("target-above-one", r"targets must lie in \[0, 1\]"),
        ("negative-target", r"targets must lie in \[0, 1\]"),
        ("nan-target", r"targets must lie in \[0, 1\]"),
        ("mask-shape", r"mask must have the targets' shape \(2, 2\), "
                       r"got \(2, 1\)"),
        ("1-d-features", r"features must be N x 2, got shape \(2,\)"),
        ("feature-width", r"features must be N x 2, got shape \(2, 1, 2\)"),
        ("label-width", r"labels must be N x 2, got shape \(2, 1, 2\)")],
        ids=["nan-feature", "row-counts", "target-above-one",
             "negative-target", "nan-target", "mask-shape", "1-d-features",
             "feature-width", "label-width"])
    def test_rejects_bad_block(self, rng, kind, case, message):
        # the rows are checked once, before the first step
        X, targets = np.zeros((2, 2)), np.array([[1.0, 0.0], [0.5, 0.0]])
        mask = None
        if case == "nan-feature":
            X[1, 0] = np.nan
        elif case == "row-counts":
            targets = np.vstack([targets, targets[:1]])
        elif case == "target-above-one":
            targets[1, 1] = 1.5
        elif case == "negative-target":
            targets[1, 1] = -0.5
        elif case == "nan-target":
            targets[1, 1] = np.nan
        elif case == "mask-shape":
            mask = np.ones((2, 1))
        elif case == "1-d-features":
            X = X[:, 0]
        elif case == "feature-width":
            # logistic regression takes its widths from the last axes, so
            # only rows that are not vectors are the wrong width for it
            X = X[:, None, :]
        else:
            targets = targets[:, None, :]
        cfg = TrainConfig(lr=0.1, epochs=1, seed=0)
        with pytest.raises(ValueError, match=message):
            if kind == "logreg":
                logreg_train(X, targets, mask, cfg)
            else:
                mlp_train(X, targets, mask, cfg,
                          MlpParams.random_init(2, 3, 2, rng))


@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_empty_dataset_rejected(rng, kind):
    X, targets = np.zeros((0, 2)), np.zeros((0, 2))
    cfg = TrainConfig(lr=0.1, epochs=1, seed=0)
    with pytest.raises(ValueError, match="empty"):
        if kind == "logreg":
            logreg_train(X, targets, None, cfg)
        else:
            mlp_train(X, targets, None, cfg, MlpParams.random_init(2, 3, 2, rng))
