import numpy as np
import pytest

from multitag import data as dt
from multitag.cli import _events_from_triples, main
from multitag.core import DrbmParams, Params
from multitag.data import NEGATIVE, POSITIVE, UNKNOWN, make_folds
from multitag.estimators import TrainConfig
from multitag.evaluation import cv_run
from multitag.inference import lbp_scores
from multitag.kinds import KIND_TABLE, Kind, lookup, score, targets
from multitag.modelio import ModelFormatError, load_model, save_model
from multitag.synthetic import make_tag_corpus, write_corpus_files


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
    smoother = KIND_TABLE["smoother"].params.random_init(2, 3, (1, 2, 2), rng)
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


class CentroidParams(Params):
    """A kind declared only here: tag j scores an item by the dot product
    of its features with W[j], the mean features of j's positives."""
    KIND = "centroid"
    SHAPES = {"W": ("C", "D")}


def _fit_centroid(X, Y, mask, hidden, cfg, record_file=None):
    return CentroidParams(Y.T @ X / np.maximum(Y.sum(axis=0), 1)[:, None])


def test_a_kind_is_one_table_entry(monkeypatch, tmp_path):
    # a Params subclass and one Kind entry: cv_run fits and scores it,
    # and the model file saves and loads it, with no other edit
    monkeypatch.setitem(KIND_TABLE, "centroid", Kind(
        CentroidParams, ("data",), _fit_centroid,
        score=lambda p, X: X @ p.W.T))
    X, Y = make_tag_corpus(n_items=60, C=3, D=4, seed=5)
    cells = np.where(Y == 1, POSITIVE, NEGATIVE).astype(np.int8)
    tags = ["tag0", "tag1", "tag2"]
    report, _, _ = cv_run(X, cells, tags, make_folds(60, seed=0), "centroid",
                          [(None, TrainConfig())])
    assert report.values.shape == (3, 5)
    assert report.grand_mean() > 0.7
    model = KIND_TABLE["centroid"].fit(X, *targets("centroid", cells), None,
                                       TrainConfig())
    path = tmp_path / "centroid.model"
    save_model(path, model, tags)
    loaded, vocab = load_model(path)
    assert type(loaded) is CentroidParams and vocab == tags
    assert np.array_equal(score(loaded, X), X @ model.W.T)


def test_one_unknown_kind_message(tmp_path, capsys):
    message = ("unknown model kind 'svm'; expected one of drbm, grbm, mlp, "
               "logreg, smoother")
    with pytest.raises(ValueError) as info:
        lookup("svm")
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        cv_run(np.zeros((10, 1)), np.zeros((10, 1), dtype=np.int8), ["t0"],
               make_folds(10, seed=0), "svm", [(None, TrainConfig())])
    assert str(info.value) == message
    # train refuses the kind before it reads --data
    assert main(["train", "--data", str(tmp_path / "absent"), "--kind",
                 "svm", "--model", str(tmp_path / "svm.model")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    path = tmp_path / "svm.model"
    assert not path.exists()
    path.write_text("multitag-model 1\nkind svm\n")
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {message}"
