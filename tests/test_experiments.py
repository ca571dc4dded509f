import numpy as np

from multitag.data import NEGATIVE, POSITIVE
from multitag.evaluation import auc
from multitag.experiments import _grand_mean_auc


class TestGrandMeanAuc:
    # 7 items, 4 tags; tag 2 has a single class (every item positive)
    SCORES = np.array([[0.09, 0.24, 0.80, 0.58],
                       [0.09, 0.43, 0.48, 0.16],
                       [0.73, 0.11, 0.39, 0.52],
                       [0.43, 0.59, 0.74, 0.96],
                       [0.28, 0.65, 0.70, 0.29],
                       [0.00, 0.97, 0.30, 0.31],
                       [0.89, 0.59, 0.47, 0.77]])
    Y = np.array([[1, 0, 1, 0],
                  [1, 1, 1, 1],
                  [0, 0, 1, 1],
                  [0, 1, 1, 0],
                  [1, 0, 1, 1],
                  [0, 1, 1, 0],
                  [0, 0, 1, 0]], dtype=float)

    def test_skips_a_tag_whose_auc_is_undefined(self):
        defined = [0, 1, 3]
        values = [auc(self.SCORES[:, j],
                      np.where(self.Y[:, j] > 0, POSITIVE, NEGATIVE))
                  for j in defined]
        assert len(set(values)) == 3  # so a dropped or extra tag shows
        got = _grand_mean_auc(self.SCORES, self.Y)
        assert np.float64(got).tobytes() == np.mean(values).tobytes()
        assert got == _grand_mean_auc(self.SCORES[:, defined],
                                      self.Y[:, defined])

    def test_is_nan_when_every_tag_has_one_class(self):
        Y = np.zeros_like(self.Y)
        Y[:, 2] = 1.0
        assert np.isnan(_grand_mean_auc(self.SCORES, Y))
