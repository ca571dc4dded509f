import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from multitag import experiments
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


SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize("script, args, message", [
    ("run_damping.py", ["--betas", "0", "1.5"], "beta must lie in [0, 1)"),
    ("run_damping.py", ["--betas", "-0.5"], "beta must lie in [0, 1)"),
    ("run_damping.py", ["--betas", "nan"], "beta must lie in [0, 1)"),
    ("run_damping.py", ["--items", "60"], "need more than 150 items, got 60"),
    ("run_damping.py", ["--seed", "-1"], "seed must be >= 0"),
    ("run_label_dependency.py", ["--seeds", "0", "-1"], "seed must be >= 0"),
    ("run_smoothing.py", ["--seeds", "0", "-1"], "seed must be >= 0"),
], ids=["beta-1.5", "beta-negative", "beta-nan", "too-few-items",
        "damping-negative-seed", "negative-seed", "smoothing-negative-seed"])
def test_script_reports_a_bad_argument(script, args, message):
    # a usage error before any training: exit 2, the usage line, and no
    # result line
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert lines[0].startswith(f"usage: {script}")
    assert lines[-1] == f"{script}: error: {message}"


@pytest.mark.parametrize("call, draw", [
    (lambda: experiments.damping_experiment(betas=(0.0, 1.5)),
     "make_tag_corpus"),
    (lambda: experiments.damping_experiment(n_items=150), "make_tag_corpus"),
    (lambda: experiments.label_dependency_experiment(seeds=(0, -1)),
     "make_dependency_corpus"),
    (lambda: experiments.smoothing_experiment(seeds=(0, -1)),
     "make_cooccurrence_corpus"),
], ids=["beta", "items", "label-dependency-seed", "smoothing-seed"])
def test_bad_argument_is_refused_before_any_draw(call, draw):
    with mock.patch.object(experiments, draw) as corpus:
        with pytest.raises(ValueError):
            call()
    corpus.assert_not_called()
