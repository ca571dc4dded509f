import numpy as np
import pytest

from multitag import data as dt
from multitag.cli import _events_from_triples, main
from multitag.core import DrbmParams
from multitag.data import NEGATIVE, POSITIVE, UNKNOWN
from multitag.estimators import TrainConfig
from multitag.inference import lbp_scores
from multitag.kinds import KIND_TABLE, score, targets
from multitag.modelio import KINDS, save_model
from multitag.synthetic import make_tag_corpus, write_corpus_files


def test_kind_table_covers_every_model_kind():
    assert KIND_TABLE.keys() == KINDS.keys()


@pytest.mark.parametrize("kind, flags, cfg", [
    ("drbm", ["--estimator", "pl", "--hidden", 3],
     TrainConfig(estimator="pl", lr=0.1, epochs=2, seed=7)),
    ("grbm", ["--hidden", 3], TrainConfig(lr=0.1, epochs=2, seed=7)),
    ("mlp", ["--hidden", 3], TrainConfig(lr=0.1, epochs=2, seed=7)),
    ("logreg", [], TrainConfig(lr=0.1, epochs=2, seed=7)),
    ("smoother", ["--hidden", 3, "--l1", 0.01],
     TrainConfig(lr=0.1, epochs=2, seed=7, l1=0.01)),
])
def test_fit_is_the_model_train_saves(tmp_path, kind, flags, cfg):
    X, Y = make_tag_corpus(n_items=60, C=3, D=4, seed=5)
    write_corpus_files(tmp_path, X, Y, [f"tag{j}" for j in range(3)])
    triples = tmp_path / "triples.tsv"
    ingested = tmp_path / "ingested"
    assert main(["ingest", "--triples", str(triples), "--features",
                 str(tmp_path / "features.tsv"), "--vocab-size", "3",
                 "--min-positive", "1", "--out", str(ingested)]) == 0
    source = (["--triples", triples, "--vocab-size", 3] if kind == "smoother"
              else ["--data", ingested])
    trained = tmp_path / "trained.model"
    assert main([str(a) for a in ["train", "--kind", kind, *source, *flags,
                                  "--lr", 0.1, "--epochs", 2, "--seed", 7,
                                  "--model", trained]]) == 0
    if kind == "smoother":
        coded = dt.read_triples(triples)
        vocab = dt.select_vocab(dt.condense(coded), 3)
        data = _events_from_triples(coded, vocab, {})
    else:
        matrix, X = dt.read_ingested(ingested)
        vocab = matrix.vocab
        data = (X, *targets(kind, matrix.cells))
    fitted = tmp_path / "fitted.model"
    save_model(fitted, KIND_TABLE[kind].fit(*data, 3, cfg), vocab)
    assert fitted.read_bytes() == trained.read_bytes()


@pytest.fixture
def drbm(rng):
    return DrbmParams.random_init(4, 3, 5, rng)


def test_drbm_scores_by_lbp_at_eval_settings(drbm, rng):
    X = rng.normal(size=(6, 5))
    assert np.array_equal(score(drbm, X), lbp_scores(X, drbm, K=10))
    assert np.array_equal(score(drbm, X, K=50, beta=0.5),
                          lbp_scores(X, drbm, K=50, beta=0.5))


def test_smoother_cannot_be_scored(rng):
    smoother = KINDS["smoother"].random_init(2, 3, (1, 2, 2), rng)
    with pytest.raises(ValueError,
                       match="cannot score model type SmootherParams"):
        score(smoother, np.zeros((1, 5)))


@pytest.mark.parametrize("kind, masked", [
    ("drbm", False), ("grbm", False), ("mlp", True), ("logreg", True)])
def test_targets_mask_out_unknown_cells_for_masked_kinds(kind, masked):
    cells = np.array([[POSITIVE, NEGATIVE, UNKNOWN],
                      [UNKNOWN, POSITIVE, NEGATIVE]], dtype=np.int8)
    Y, mask = targets(kind, cells)
    assert np.array_equal(Y, [[1, 0, 0], [0, 1, 0]])
    if masked:
        assert np.array_equal(mask, cells != UNKNOWN)
    else:
        assert mask is None
