"""Acceptance suite: every test prints one PASS/FAIL line for its
criterion and enforces the stated numeric tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from multitag.cli import main as cli_main
from multitag.core import cd_chain
from multitag.data import NEGATIVE, POSITIVE, UNKNOWN, binarize
from multitag.estimators import cd_gradient
from multitag.evaluation import auc
from multitag.experiments import (damping_experiment,
                                  label_dependency_experiment,
                                  smoothing_experiment)
from multitag.oracle import exact_grad
from multitag.synthetic import make_tag_corpus, write_corpus_files
from multitag.verify import (check_exact_gradient, check_independence,
                             check_lbp_tree, check_pl_gradient)
from conftest import coded, printed_lbp_marginals, random_instance


def report(name, ok, elapsed, budget):
    line = f"{'PASS' if ok and elapsed < budget else 'FAIL'} {name} ({elapsed:.1f}s)"
    print(line)
    assert ok, name
    assert elapsed < budget, f"{name}: {elapsed:.1f}s over {budget}s budget"


def test_criterion_01_exact_gradient_vs_finite_differences():
    t0 = time.time()
    ok = check_exact_gradient(np.random.default_rng(101), 20)
    report("criterion 1: exact gradient matches finite differences",
           ok, time.time() - t0, 5.0)


def test_criterion_02_pl_gradient_vs_finite_differences():
    t0 = time.time()
    ok = check_pl_gradient(np.random.default_rng(102), 20)
    report("criterion 2: pseudo-likelihood gradient matches finite "
           "differences", ok, time.time() - t0, 5.0)


def cd_gradient_rows(ex, p, b, K, rng):
    """``cd_gradient(ex, p, K, rng).flat()`` for b runs at once, one
    row each: one cd_chain call draws the stream of b serial calls and
    equals them bit for bit, and the rows are built with the same
    elementwise operations as _phase_difference."""
    h0, hK, yK = cd_chain(np.broadcast_to(p.c + p.W @ ex.x, (b, p.n)), p.d,
                          p.U, np.broadcast_to(ex.y, (b, p.C)), K, rng)
    dU = h0[:, :, None] * ex.y - hK[:, :, None] * yK[:, None, :]
    dW = (h0 - hK)[:, :, None] * ex.x
    return np.concatenate([dU.reshape(b, -1), dW.reshape(b, -1), h0 - hK,
                           ex.y - yK], axis=1)


def test_cd_gradient_rows_equal_serial_cd_gradient():
    ex, p = random_instance(np.random.default_rng(7), scale=0.3)
    batched, serial = np.random.default_rng(5), np.random.default_rng(5)
    rows = cd_gradient_rows(ex, p, 64, 50, batched)
    for row in rows:
        assert row.tobytes() == cd_gradient(ex, p, 50, serial).flat().tobytes()
    assert batched.random() == serial.random()


def test_criterion_03_cd_mean_within_three_se_of_exact():
    t0 = time.time()
    ex, p = random_instance(np.random.default_rng(7), scale=0.3)
    exact = exact_grad(ex, p).flat()
    rng = np.random.default_rng(123)
    runs, K = 100_000, 50
    # chunks of about 2^15 uniforms, as lbp_scores sizes its blocks
    rows = max(1, 2**15 // (K * (p.n + p.C)))
    total = np.zeros_like(exact)
    total_sq = np.zeros_like(exact)
    for start in range(0, runs, rows):
        # summed run by run, in the order of the serial loop
        for g in cd_gradient_rows(ex, p, min(rows, runs - start), K, rng):
            total += g
            total_sq += g * g
    mean = total / runs
    var = np.maximum(total_sq / runs - mean * mean, 0.0)
    se = np.sqrt(var / runs)
    z = np.abs(mean - exact) / np.where(se > 0, se, 1.0)
    ok = bool(np.all(z < 3.0))
    report("criterion 3: CD-50 gradient mean within 3 standard errors of "
           "exact", ok, time.time() - t0, 120.0)


def test_criterion_04_lbp_tree_exactness_and_negative_control(monkeypatch):
    t0 = time.time()
    ok = check_lbp_tree(np.random.default_rng(104), 50)
    # the same 50 instances must catch the printed normalizer
    monkeypatch.setattr("multitag.verify.lbp_marginals", printed_lbp_marginals)
    ok &= not check_lbp_tree(np.random.default_rng(104), 50)
    report("criterion 4: belief propagation tree-exact, printed normalizer "
           "caught", ok, time.time() - t0, 10.0)


def test_criterion_05_independence_identity_at_zero_coupling():
    t0 = time.time()
    ok = check_independence(np.random.default_rng(105), 20)
    report("criterion 5: zero coupling factorizes pairwise marginals",
           ok, time.time() - t0, 10.0)


def test_criterion_06_damping_insensitivity():
    t0 = time.time()
    results = damping_experiment()
    spread = max(results.values()) - min(results.values())
    ok = spread <= 0.02
    report(f"criterion 6: damping changes grand-mean AUC by {spread:.4f} "
           "<= 0.02", ok, time.time() - t0, 600.0)


def test_criterion_07_label_dependency_advantage():
    t0 = time.time()
    results = label_dependency_experiment()
    drbm = np.array([r[0] for r in results])
    logreg = np.array([r[1] for r in results])
    strict = int(np.sum(drbm > logreg))
    ok = bool(drbm.mean() >= logreg.mean()) and strict >= 4
    report(f"criterion 7: dependent-tag AUC {drbm.mean():.3f} vs "
           f"{logreg.mean():.3f}, strict wins {strict}/5", ok,
           time.time() - t0, 600.0)


def test_criterion_08_smoothing_helps_independent_models():
    t0 = time.time()
    results = smoothing_experiment()
    smoothed = np.array([r[0] for r in results])
    raw = np.array([r[1] for r in results])
    ok = bool(smoothed.mean() >= raw.mean())
    report(f"criterion 8: smoothed-target AUC {smoothed.mean():.3f} >= raw "
           f"{raw.mean():.3f}", ok, time.time() - t0, 600.0)


def test_criterion_09_auc_metric_sanity():
    t0 = time.time()
    rng = np.random.default_rng(109)
    n = 10_000
    labels = np.array([POSITIVE, NEGATIVE] * (n // 2))
    random_auc = auc(rng.random(n), labels)
    ok = 0.48 <= random_auc <= 0.52
    scores = np.arange(n, dtype=float)
    sorted_labels = np.array([NEGATIVE] * (n // 2) + [POSITIVE] * (n // 2))
    ok &= auc(scores, sorted_labels) == 1.0
    for _ in range(100):
        m = int(rng.integers(4, 30))
        s = np.round(rng.normal(size=m), 3)
        l = rng.integers(0, 2, size=m)
        base = auc(s, l)
        if base is None:
            continue
        ok &= auc(np.exp(s), l) == pytest.approx(base, abs=1e-12)
        ok &= auc(2.0 * s + 5.0, l) == pytest.approx(base, abs=1e-12)
    report("criterion 9: AUC sanity (random ~0.5, perfect 1.0, monotone "
           "invariant)", ok, time.time() - t0, 60.0)


def test_criterion_10_binarization_rules():
    t0 = time.time()
    rng = np.random.default_rng(110)
    ok = True
    items = [f"i{k}" for k in range(6)]
    vocab = ["t0", "t1", "t2"]
    for _ in range(200):
        records = {}
        for item in items:
            for tag in vocab:
                count = int(rng.integers(0, 5))
                if count:
                    records[(item, tag)] = count
        m2 = binarize(coded(records), vocab, 2, items=items)
        m1 = binarize(coded(records), vocab, 1, items=items)
        for i, item in enumerate(items):
            for j, tag in enumerate(vocab):
                count = records.get((item, tag), 0)
                want2 = (POSITIVE if count >= 2
                         else UNKNOWN if count == 1 else NEGATIVE)
                want1 = POSITIVE if count >= 1 else NEGATIVE
                ok &= m2.cells[i, j] == want2
                ok &= m1.cells[i, j] == want1
    report("criterion 10: three-state binarization mapping", ok,
           time.time() - t0, 60.0)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The bundled desk-scale corpus: 200 items, 5 tags, 8 features."""
    root = tmp_path_factory.mktemp("corpus")
    X, Y = make_tag_corpus(n_items=200, C=5, D=8, seed=20)
    write_corpus_files(root, X, Y, [f"tag{j}" for j in range(5)])
    return root


def ingest(corpus_dir, out):
    code = cli_main(["ingest", "--triples", str(corpus_dir / "triples.tsv"),
                     "--features", str(corpus_dir / "features.tsv"),
                     "--vocab-size", "5", "--min-positive", "1",
                     "--out", str(out)])
    assert code == 0


def test_criterion_11_training_and_ingest_determinism(corpus, tmp_path):
    t0 = time.time()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    ingest(corpus, a_dir)
    ingest(corpus, b_dir)
    ok = all((a_dir / name).read_bytes() == (b_dir / name).read_bytes()
             for name in ("vocab.txt", "matrix.tsv", "features.tsv",
                          "features.npy", "items.txt"))
    models = []
    for name in ("m1.model", "m2.model"):
        path = tmp_path / name
        code = cli_main(["train", "--data", str(a_dir), "--kind", "drbm",
                         "--estimator", "pl", "--epochs", "3", "--hidden",
                         "4", "--seed", "17", "--model", str(path)])
        assert code == 0
        models.append(path.read_bytes())
    ok &= models[0] == models[1]
    report("criterion 11: ingest and seeded PL training byte-reproducible",
           ok, time.time() - t0, 60.0)


def test_criterion_12_end_to_end_pipeline(corpus, tmp_path):
    t0 = time.time()
    data = tmp_path / "ingested"
    ingest(corpus, data)
    ok = True
    detail = []
    for estimator in ("cd", "mfcd", "lbp", "pl"):
        model = tmp_path / f"{estimator}.model"
        code = cli_main(["train", "--data", str(data), "--kind", "drbm",
                         "--estimator", estimator, "--k", "3", "--lr", "0.05",
                         "--epochs", "5", "--hidden", "6", "--seed", "0",
                         "--model", str(model)])
        ok &= code == 0
        out = tmp_path / f"reports-{estimator}"
        code = cli_main(["eval", "--data", str(data), "--model", str(model),
                         "--out", str(out)])
        ok &= code == 0
        cells = []
        for line in (out / "auc_a.tsv").read_text().splitlines()[1:]:
            value = line.split("\t")[3]
            if value != "NA":
                cells.append(float(value))
        cells = np.array(cells)
        sigma = float(np.std(cells, ddof=1)) / math.sqrt(len(cells))
        grand = float(np.mean(cells))
        detail.append(f"{estimator} {grand:.3f} (3 sigma {3 * sigma:.3f})")
        ok &= grand > 0.5 + 3 * sigma
    report("criterion 12: end-to-end pipeline beats chance for every "
           "estimator: " + ", ".join(detail), ok, time.time() - t0, 300.0)
