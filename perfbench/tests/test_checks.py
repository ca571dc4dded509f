"""Negative controls: each output check passes on the program's real
output and fails once that output, or its input, is corrupted."""

import numpy as np
import pytest

import checks
from multitag import cli, inference, modelio, oracle
from multitag.core import DrbmParams, LabeledExample
from multitag.estimators import cd_gradient, pl_gradient
from multitag.evaluation import score_matrix_auc
from multitag.synthetic import make_cooccurrence_corpus, make_tag_corpus


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    X, Y = make_tag_corpus(30, 4, 3, seed=5)
    items = [f"item{i:02d}" for i in range(30)]
    lines = [f"user{u}\t{items[i]}\ttag{j}" for i, j in zip(*np.nonzero(Y))
             for u in range(1 + i % 2)]
    triples = _write(root / "triples.tsv", lines)
    features = _write(root / "features.tsv", [
        item + "\t" + "\t".join(repr(float(v)) for v in row)
        for item, row in zip(items, X)])
    assert cli.main(["ingest", "--triples", triples, "--features", features,
                     "--vocab-size", "4", "--min-positive", "2",
                     "--out", str(root / "out")]) == 0
    vocab, out_items, cells = checks.read_matrix(str(root / "out" / "matrix.tsv"))
    return (checks.read_triples(triples), checks.read_features(features),
            vocab, out_items, cells,
            checks.read_features(str(root / "out" / "features.tsv")))


def test_ingest_check_catches_a_wrong_cell_and_a_wrong_feature_row(ingested):
    triples, features_in, vocab, items, cells, (out_items, Z) = ingested
    assert "U" in cells  # one-user cells are unknown under --min-positive 2
    assert checks.check_ingest(triples, features_in, vocab, items, cells,
                               (out_items, Z), 4, 2)[0]
    flipped = cells.copy()
    flipped[0, 0] = "N" if flipped[0, 0] != "N" else "P"
    assert not checks.check_ingest(triples, features_in, vocab, items,
                                   flipped, (out_items, Z), 4, 2)[0]
    scaled = Z.copy()
    scaled[3] *= 2
    assert not checks.check_ingest(triples, features_in, vocab, items, cells,
                                   (out_items, scaled), 4, 2)[0]
    swapped = Z.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    assert not checks.check_ingest(triples, features_in, vocab, items, cells,
                                   (out_items, swapped), 4, 2)[0]


def test_auc_check_catches_shuffled_scores():
    rng = np.random.default_rng(0)
    scores = rng.random((60, 3))
    states = rng.choice([1, 0, -1], size=(60, 3), p=[0.4, 0.5, 0.1])
    cells = np.where(states == 1, "P", np.where(states == 0, "N", "U"))
    vocab = ["a", "b", "c"]
    values = score_matrix_auc(scores, states, vocab)
    reported = {(tag, 2): v for tag, v in zip(vocab, values)}
    assert checks.check_fold_auc(scores, cells, vocab, reported, 2)[0]
    assert not checks.check_fold_auc(rng.permutation(scores), cells, vocab,
                                     reported, 2)[0]


def test_chance_level_auc_fails_criterion_12():
    rng = np.random.default_rng(1)
    assert checks.check_beats_chance(list(0.8 + 0.05 * rng.normal(size=25)))[0]
    assert not checks.check_beats_chance(list(0.5 + 0.05 * rng.normal(size=25)))[0]


def test_smooth_check_catches_an_off_fixed_point_row(tmp_path):
    _, _, events = make_cooccurrence_corpus(40, seed=2)
    triples = _write(tmp_path / "triples.tsv", [
        f"user{e.user}\tclip{e.clip:03d}\ttag{j}" for e in events
        for j in np.flatnonzero(e.y)])
    model_path, smoothed = str(tmp_path / "s.model"), str(tmp_path / "s.tsv")
    assert cli.main(["train", "--kind", "smoother", "--triples", triples,
                     "--vocab-size", "3", "--hidden", "4", "--epochs", "3",
                     "--lr", "0.05", "--model", model_path]) == 0
    assert cli.main(["smooth", "--model", model_path, "--triples", triples,
                     "--out", smoothed]) == 0
    model, vocab = modelio.load_model(model_path)
    _, clips, cols = checks.read_table(smoothed, header=True)
    Y = np.array(cols, dtype=float)
    mean, n_users, want = checks.smoother_inputs(checks.read_triples(triples),
                                                 vocab)
    assert checks.check_smoothed(clips, Y, model, mean, n_users, want)[0]
    nudged = Y.copy()
    nudged[5, 1] += 0.01 if nudged[5, 1] < 0.5 else -0.01
    assert not checks.check_smoothed(clips, nudged, model, mean, n_users, want)[0]
    outside = Y.copy()
    outside[0, 0] = 1.2
    assert not checks.check_smoothed(clips, outside, model, mean, n_users, want)[0]


def test_cd_mean_check_catches_a_ten_se_shift():
    rng = np.random.default_rng(7)
    p = DrbmParams(*(rng.normal(scale=0.3, size=s) for s in ((3, 4), (3, 5), 3, 4)))
    ex = LabeledExample(rng.normal(size=5), np.array([1.0, 0.0, 1.0, 0.0]))
    exact = oracle.exact_grad(ex, p).flat()
    runs, total, total_sq = 400, 0.0, 0.0
    for _ in range(runs):
        g = cd_gradient(ex, p, 50, rng).flat()
        total, total_sq = total + g, total_sq + g * g
    assert checks.check_cd_mean(total, total_sq, runs, exact)[0]
    mean = total / runs
    se = np.sqrt((total_sq / runs - mean * mean) / runs)
    k = int(np.argmax(se))
    shifted = exact.copy()
    shifted[k] += 10 * se[k]
    assert not checks.check_cd_mean(total, total_sq, runs, shifted)[0]


def test_bp_check_catches_sweeps_short_of_a_fixed_point():
    rng = np.random.default_rng(3)
    weak = DrbmParams(*(rng.normal(scale=0.2, size=s)
                        for s in ((12, 8), (12, 6), 12, 8)))
    x = rng.normal(size=6)
    assert checks.check_bp_fixed_point(inference.lbp_marginals(x, weak, 10, 0.0),
                                       inference.lbp_marginals(x, weak, 20, 0.0))[0]
    assert not checks.check_bp_fixed_point(
        inference.lbp_marginals(x, weak, 1, 0.0),
        inference.lbp_marginals(x, weak, 2, 0.0))[0]


def test_directional_check_catches_a_scaled_gradient():
    rng = np.random.default_rng(4)
    p = DrbmParams(*(rng.normal(scale=0.2, size=s) for s in ((6, 5), (6, 4), 6, 5)))
    ex = LabeledExample(rng.normal(size=4), (rng.random(5) < 0.5).astype(float))
    grad, _ = pl_gradient(ex, p)
    v = rng.normal(size=grad.flat().size)
    v /= np.linalg.norm(v)
    sizes = [a.size for a in (p.U, p.W, p.c, p.d)]
    parts = np.split(v, np.cumsum(sizes)[:-1])
    h = 1e-5

    def shifted(s):
        return DrbmParams(*(a + s * h * d.reshape(a.shape) for a, d in
                            zip((p.U, p.W, p.c, p.d), parts)))
    numeric = (oracle.log_pl_reference(ex, shifted(1))
               - oracle.log_pl_reference(ex, shifted(-1))) / (2 * h)
    assert checks.check_directional(float(grad.flat() @ v), numeric)[0]
    assert not checks.check_directional(1.01 * float(grad.flat() @ v), numeric)[0]
