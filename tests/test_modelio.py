import numpy as np
import pytest

from multitag.baselines import LogRegParams, MlpParams
from multitag.core import DrbmParams
from multitag.estimators import GaussianRbmParams
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


class TestRoundTrip:
    def test_drbm_bit_exact(self, rng, tmp_path):
        p = DrbmParams(awkward(rng, (3, 4)), awkward(rng, (3, 5)),
                       awkward(rng, 3), awkward(rng, 4))
        path = tmp_path / "m.model"
        save_model(path, p, ["a", "b", "c", "d"])
        q, vocab = load_model(path)
        assert isinstance(q, DrbmParams)
        assert vocab == ["a", "b", "c", "d"]
        for x, y in ((p.U, q.U), (p.W, q.W), (p.c, q.c), (p.d, q.d)):
            np.testing.assert_array_equal(x, y)

    def test_grbm_bit_exact(self, rng, tmp_path):
        p = GaussianRbmParams(awkward(rng, (2, 3)), awkward(rng, (2, 4)),
                              awkward(rng, 2), awkward(rng, 3), awkward(rng, 4))
        path = tmp_path / "m.model"
        save_model(path, p, ["a", "b", "c"])
        # a GaussianRbmParams is a DrbmParams too, but keeps its own kind
        assert path.read_text().splitlines()[1] == "kind grbm"
        q, _ = load_model(path)
        assert type(q) is GaussianRbmParams
        for name in ("U", "W", "c", "d", "bx"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))

    def test_smoother_bit_exact(self, rng, tmp_path):
        p = SmootherParams(awkward(rng, (2, 3)), awkward(rng, (2, 3)),
                           awkward(rng, (3, 6)), awkward(rng, 2),
                           awkward(rng, 3), (2, 2, 2))
        path = tmp_path / "m.model"
        save_model(path, p, ["a", "b", "c"])
        q, _ = load_model(path)
        assert isinstance(q, SmootherParams)
        assert q.aux_sizes == (2, 2, 2)
        np.testing.assert_array_equal(p.V, q.V)

    def test_mlp_bit_exact(self, rng, tmp_path):
        p = MlpParams(awkward(rng, (4, 3)), awkward(rng, 3),
                      awkward(rng, (3, 2)), awkward(rng, 2))
        path = tmp_path / "m.model"
        save_model(path, p, ["a", "b"])
        q, _ = load_model(path)
        assert isinstance(q, MlpParams)
        np.testing.assert_array_equal(p.W1, q.W1)
        np.testing.assert_array_equal(p.b2, q.b2)

    def test_logreg_bit_exact(self, rng, tmp_path):
        p = LogRegParams(awkward(rng, (4, 2)), awkward(rng, 2))
        path = tmp_path / "m.model"
        save_model(path, p, ["a", "b"])
        q, _ = load_model(path)
        assert isinstance(q, LogRegParams)
        np.testing.assert_array_equal(p.W, q.W)
        np.testing.assert_array_equal(p.b, q.b)

    def test_save_is_deterministic(self, rng, tmp_path):
        p = DrbmParams(awkward(rng, (2, 2)), awkward(rng, (2, 3)),
                       awkward(rng, 2), awkward(rng, 2))
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        save_model(a, p, ["t0", "t1"])
        save_model(b, p, ["t0", "t1"])
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("something else\n")
        with pytest.raises(ModelFormatError):
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

    def test_garbage_line(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text(f"{FORMAT_HEADER}\nkind logreg\nwhatnow 3\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "m.model", object(), [])
