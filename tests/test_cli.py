import json
import os

import numpy as np
import pytest

from multitag.cli import KIND_TABLE, main
from multitag.core import sigm
from multitag.modelio import KINDS, load_model, save_model
from multitag.synthetic import make_tag_corpus, write_corpus_files


@pytest.fixture
def corpus_dir(tmp_path, rng):
    X, Y = make_tag_corpus(n_items=60, C=3, D=4, seed=5)
    tags = [f"tag{j}" for j in range(3)]
    write_corpus_files(tmp_path, X, Y, tags)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestIngest:
    def test_writes_three_outputs(self, corpus_dir, tmp_path):
        out = tmp_path / "ingested"
        assert run(["ingest", "--triples", corpus_dir / "triples.tsv",
                    "--features", corpus_dir / "features.tsv",
                    "--vocab-size", 3, "--min-positive", 1,
                    "--out", out]) == 0
        for name in ("vocab.txt", "matrix.tsv", "features.tsv"):
            assert (out / name).exists()
        assert len((out / "vocab.txt").read_text().split()) == 3

    def test_byte_reproducible(self, corpus_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["ingest", "--triples", corpus_dir / "triples.tsv",
                 "--features", corpus_dir / "features.tsv",
                 "--vocab-size", 3, "--min-positive", 1, "--out", out])
            outs.append(out)
        for name in ("vocab.txt", "matrix.tsv", "features.tsv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_warns_on_missing_features(self, corpus_dir, tmp_path, capsys):
        with open(corpus_dir / "triples.tsv", "a", encoding="utf-8") as fh:
            fh.write("u0\tghost-item\ttag0\n")
        assert run(["ingest", "--triples", corpus_dir / "triples.tsv",
                    "--features", corpus_dir / "features.tsv",
                    "--vocab-size", 3, "--min-positive", 1,
                    "--out", tmp_path / "out"]) == 0
        assert "ghost-item" in capsys.readouterr().err

    def test_one_warning_line_for_many_missing_items(self, corpus_dir,
                                                     tmp_path, capsys):
        with open(corpus_dir / "triples.tsv", "a", encoding="utf-8") as fh:
            for i in (6, 0, 5, 3, 1, 4, 2):
                fh.write(f"u0\tghost-{i}\ttag0\n")
        assert run(["ingest", "--triples", corpus_dir / "triples.tsv",
                    "--features", corpus_dir / "features.tsv",
                    "--vocab-size", 3, "--min-positive", 1,
                    "--out", tmp_path / "out"]) == 0
        assert capsys.readouterr().err == (
            "warning: 7 tagged item(s) have no features and are excluded: "
            "ghost-0, ghost-1, ghost-2, ghost-3, ghost-4, ...\n")

    def test_rejects_duplicate_feature_ids(self, corpus_dir, tmp_path,
                                           capsys):
        features = corpus_dir / "features.tsv"
        lines = features.read_text().splitlines()
        features.write_text("\n".join(lines + [lines[0]]) + "\n")
        assert run(["ingest", "--triples", corpus_dir / "triples.tsv",
                    "--features", features, "--vocab-size", 3,
                    "--min-positive", 1, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert f"features.tsv:{len(lines) + 1}: duplicate item id" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_features(self, corpus_dir, tmp_path, capsys,
                                         value):
        # normalization would turn one nan cell into a zero feature column
        features = corpus_dir / "features.tsv"
        lines = features.read_text().splitlines()
        cells = lines[2].split("\t")
        lines[2] = "\t".join(cells[:2] + [value] + cells[3:])
        features.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(["ingest", "--triples", corpus_dir / "triples.tsv",
                    "--features", features, "--vocab-size", 3,
                    "--min-positive", 1, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {features}:3: non-finite feature value\n")
        assert not out.exists()


@pytest.fixture
def ingested(corpus_dir, tmp_path):
    out = tmp_path / "ingested"
    run(["ingest", "--triples", corpus_dir / "triples.tsv",
         "--features", corpus_dir / "features.tsv",
         "--vocab-size", 3, "--min-positive", 1, "--out", out])
    return out


class TestTrain:
    @pytest.mark.parametrize("estimator", ["cd", "mfcd", "lbp", "pl"])
    def test_each_estimator_writes_model_and_log(self, ingested, tmp_path,
                                                 estimator):
        model = tmp_path / f"{estimator}.model"
        assert run(["train", "--data", ingested, "--kind", "drbm",
                    "--estimator", estimator, "--epochs", 1, "--hidden", 3,
                    "--model", model]) == 0
        assert model.exists()
        records = (tmp_path / f"{estimator}.model.jsonl").read_text()
        first = json.loads(records.splitlines()[0])
        assert (first["epoch"], first["objective"]) == (0, "log_likelihood")
        assert not (tmp_path / f"{estimator}.model.log").exists()

    @pytest.mark.parametrize("kind, estimator, objective", [
        ("drbm", "cd", "log_likelihood"), ("drbm", "mfcd", "log_likelihood"),
        ("drbm", "lbp", "log_likelihood"), ("drbm", "pl", "log_likelihood"),
        ("grbm", "cd", "log_likelihood"), ("mlp", None, "cross_entropy"),
        ("logreg", None, "cross_entropy")])
    def test_one_record_per_epoch(self, ingested, tmp_path, kind, estimator,
                                  objective):
        model = tmp_path / "m.model"
        flags = (["--estimator", estimator] if kind == "drbm" else []) + (
            ["--hidden", 3] if kind != "logreg" else [])
        assert run(["train", "--data", ingested, "--kind", kind, *flags,
                    "--epochs", 2, "--lr", 0.1, "--model", model]) == 0
        records = [json.loads(line) for line in
                   (tmp_path / "m.model.jsonl").read_text().splitlines()]
        assert [(r["kind"], r["estimator"], r["epoch"], r["objective"])
                for r in records] == [(kind, estimator, 0, objective),
                                      (kind, estimator, 1, objective)]
        assert all(r["seconds"] >= 0 for r in records)
        # the largest |parameter| after the last epoch, and the norm of
        # the second epoch's update, against a model trained one epoch
        last, _ = load_model(model)
        one = tmp_path / "one.model"
        assert run(["train", "--data", ingested, "--kind", kind, *flags,
                    "--epochs", 1, "--lr", 0.1, "--model", one]) == 0
        first, _ = load_model(one)
        arrays = [(a, b) for a, b in zip(vars(last).values(),
                                         vars(first).values())
                  if isinstance(a, np.ndarray)]
        assert records[1]["max_abs_param"] == max(np.max(np.abs(a))
                                                  for a, _ in arrays)
        assert records[1]["update_norm"] == pytest.approx(np.sqrt(sum(
            np.sum((a - b) ** 2) for a, b in arrays)), rel=1e-12)
        assert 0 < records[0]["max_abs_param"] < 1e6
        assert records[0]["update_norm"] > 0
        # the record is the one training output
        assert all(np.isfinite(r["value"]) for r in records)
        assert sorted(p.name for p in tmp_path.glob("m.model*")) == [
            "m.model", "m.model.jsonl"]

    def test_pl_training_bit_identical_across_runs(self, ingested, tmp_path):
        models = []
        for name in ("a.model", "b.model"):
            model = tmp_path / name
            run(["train", "--data", ingested, "--kind", "drbm",
                 "--estimator", "pl", "--epochs", 2, "--hidden", 3,
                 "--seed", 11, "--model", model])
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_unknown_estimator_exits_nonzero(self, ingested, tmp_path):
        with pytest.raises(SystemExit):
            run(["train", "--data", ingested, "--estimator", "gibbs",
                 "--model", tmp_path / "m.model"])

    @pytest.mark.parametrize("flags, message", [
        (["--kind", "smoother", "--estimator", "pl"],
         "--estimator is not read by --kind smoother"),
        (["--kind", "drbm", "--l1", 0.01], "--l1 is not read by --kind drbm"),
        (["--kind", "drbm", "--estimator", "cd", "--beta", 0.5],
         "--beta needs --kind drbm --estimator lbp"),
        (["--kind", "logreg", "--hidden", 7],
         "--hidden is not read by --kind logreg"),
        (["--kind", "logreg", "--k", 4], "--k is not read by --kind logreg"),
        (["--kind", "mlp", "--k", 3], "--k is not read by --kind mlp"),
    ], ids=["smoother-estimator", "drbm-l1", "cd-beta", "logreg-hidden",
            "logreg-k", "mlp-k"])
    def test_rejects_options_the_kind_ignores(self, tmp_path, capsys, flags,
                                              message):
        # no data or triples exist: the option is refused before either
        # is read, and before any file is created
        assert run(["train", "--data", tmp_path / "missing", "--triples",
                    tmp_path / "missing.tsv", "--epochs", 1, *flags,
                    "--model", tmp_path / "m"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_logreg_uses_its_validated_lr_by_default(self, ingested,
                                                     tmp_path):
        models = {}
        for name, flags in (("default", []), ("2.0", ["--lr", 2.0]),
                            ("0.1", ["--lr", 0.1])):
            model = tmp_path / f"logreg-{name}.model"
            assert run(["train", "--data", ingested, "--kind", "logreg",
                        "--epochs", 2, *flags, "--model", model]) == 0
            models[name] = model.read_bytes()
        assert models["default"] == models["2.0"]
        assert models["default"] != models["0.1"]

    def test_divergence_is_an_error_line(self, ingested, tmp_path, capsys):
        assert run(["train", "--data", ingested, "--estimator", "pl",
                    "--epochs", 1, "--lr", 1e9,
                    "--model", tmp_path / "m.model"]) == 1
        err = capsys.readouterr().err
        assert err == "error: parameters diverged at epoch 0\n"
        # the record names the divergence in its last line
        last = (tmp_path / "m.model.jsonl").read_text().splitlines()[-1]
        assert json.loads(last) == {"kind": "drbm", "estimator": "pl",
                                    "epoch": 0, "diverged": True}
        assert not (tmp_path / "m.model").exists()

    def test_smoother_without_triples_is_an_error_line(self, tmp_path,
                                                       capsys):
        assert run(["train", "--kind", "smoother", "--vocab-size", 3,
                    "--model", tmp_path / "s.model"]) == 1
        assert capsys.readouterr().err == (
            "error: --kind smoother needs --triples\n")
        assert list(tmp_path.iterdir()) == []

    def test_kind_table_covers_every_model_kind(self):
        assert KIND_TABLE.keys() == KINDS.keys()

    def test_unknown_kind_is_rejected_before_any_file(self, ingested,
                                                      tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", ingested, "--kind", "foo",
                 "--model", tmp_path / "foo.model"])
        assert exc.value.code == "error: unknown model kind 'foo'"
        assert list(tmp_path.glob("foo.model*")) == []

    def test_baseline_kinds(self, ingested, tmp_path):
        for kind in ("mlp", "logreg", "grbm"):
            model = tmp_path / f"{kind}.model"
            hidden = ["--hidden", 3] if kind != "logreg" else []
            assert run(["train", "--data", ingested, "--kind", kind,
                        "--epochs", 1, *hidden, "--lr", 0.1,
                        "--model", model]) == 0
            assert model.exists()


class TestMatrixFile:
    @pytest.mark.parametrize("row, message", [
        ("extra\tP\tN\tU\tP\n", "expected 3 cells, got 4"),
        ("short\tP\tN\n", "expected 3 cells, got 2"),
        ("odd\tP\tX\tN\n", "unknown cell 'X'"),
    ], ids=["too-many-cells", "too-few-cells", "unknown-cell"])
    def test_bad_row_reports_line(self, ingested, tmp_path, capsys, row,
                                  message):
        matrix = ingested / "matrix.tsv"
        lines = matrix.read_text().splitlines(keepends=True)
        matrix.write_text("".join(lines[:2] + [row] + lines[2:]))
        assert run(["train", "--data", ingested, "--estimator", "pl",
                    "--epochs", 1, "--model", tmp_path / "m.model"]) == 1
        assert f"matrix.tsv:3: {message}" in capsys.readouterr().err


class TestPrecedence:
    def test_flag_beats_config_beats_env(self, ingested, tmp_path,
                                         monkeypatch):
        config = tmp_path / "train.cfg"
        config.write_text("epochs=1\nseed=33\nhidden=3\n")
        monkeypatch.setenv("MULTITAG_SEED", "44")
        model_cfg = tmp_path / "cfg.model"
        run(["train", "--data", ingested, "--estimator", "pl",
             "--config", config, "--model", model_cfg])
        # a seed flag overrides the config value
        model_flag = tmp_path / "flag.model"
        run(["train", "--data", ingested, "--estimator", "pl",
             "--config", config, "--seed", 33, "--model", model_flag])
        assert model_cfg.read_bytes() == model_flag.read_bytes()
        # without config or flag, the environment seed applies
        model_env = tmp_path / "env.model"
        run(["train", "--data", ingested, "--estimator", "pl",
             "--epochs", 1, "--hidden", 3, "--model", model_env])
        model_env2 = tmp_path / "env2.model"
        monkeypatch.setenv("MULTITAG_SEED", "45")
        run(["train", "--data", ingested, "--estimator", "pl",
             "--epochs", 1, "--hidden", 3, "--model", model_env2])
        assert model_env.read_bytes() != model_env2.read_bytes()

    def test_bad_config_line_reports_error(self, ingested, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("no equals sign here\n")
        assert run(["train", "--data", ingested, "--config", config,
                    "--model", tmp_path / "m.model"]) == 1
        assert "error" in capsys.readouterr().err


    def test_unknown_config_key_is_rejected(self, ingested, tmp_path,
                                            capsys):
        config = tmp_path / "train.cfg"
        config.write_text("# one epoch\nepoch=1\n")
        model = tmp_path / "m.model"
        assert run(["train", "--data", ingested, "--estimator", "pl",
                    "--config", config, "--model", model]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {config}:2: unknown key 'epoch'\n"
        assert not model.exists()

    def test_one_config_serves_train_and_eval(self, ingested, tmp_path):
        # each command reads its own keys and skips the other's
        config = tmp_path / "run.cfg"
        model = tmp_path / "m.model"
        out = tmp_path / "reports"
        config.write_text(f"data={ingested}\nseed=3\nestimator=pl\n"
                          f"epochs=1\nhidden=3\nmodel={model}\nout={out}\n")
        assert run(["train", "--config", config]) == 0
        assert run(["eval", "--config", config]) == 0
        assert (out / "summary.tsv").exists()


class TestEval:
    def test_non_finite_messages_are_an_error_line(self, ingested, tmp_path,
                                                   capsys):
        # finite couplings of 1e308 overflow the message sums to inf
        model = tmp_path / "m.model"
        run(["train", "--data", ingested, "--estimator", "pl", "--epochs", 1,
             "--hidden", 3, "--model", model])
        params, vocab = load_model(model)
        params.U[:] = 1e308
        save_model(model, params, vocab)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["eval", "--data", ingested, "--model", model,
                        "--out", tmp_path / "reports"]) == 1
        err = capsys.readouterr().err
        assert err == "error: non-finite message at sweep 0\n"

    def test_non_finite_feature_is_an_error_line(self, ingested, tmp_path,
                                                 capsys):
        model = tmp_path / "m.model"
        run(["train", "--data", ingested, "--estimator", "pl", "--epochs", 1,
             "--hidden", 3, "--model", model])
        features = ingested / "features.tsv"
        lines = features.read_text().splitlines()
        item = lines[0].split("\t")[0]
        lines[0] = "\t".join([item] + ["nan"] * 4)
        features.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--data", ingested, "--model", model,
                    "--out", tmp_path / "reports"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {features}:1: non-finite feature value\n"

    def test_non_finite_model_entry_is_an_error_line(self, ingested,
                                                      tmp_path, capsys):
        # a nan feature bias: the Gaussian RBM's label conditional never
        # reads bx, so only the model file check catches it
        model = tmp_path / "grbm.model"
        assert run(["train", "--data", ingested, "--kind", "grbm",
                    "--epochs", 1, "--hidden", 3, "--model", model]) == 0
        lines = model.read_text().splitlines()
        row = lines.index("array bx 1 4") + 1
        lines[row] = " ".join(["nan"] + lines[row].split()[1:])
        model.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--data", ingested, "--model", model,
                    "--out", tmp_path / "reports"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model}: array bx: non-finite entry\n"
        assert not (tmp_path / "reports" / "auc_a.tsv").exists()

    @pytest.mark.parametrize("defect, message", [
        ("short-b", "b must have length C, got shape (1,) with C=3"),
        ("short-b1", "b1 must have length H, got shape (1,) with H=3"),
        ("vocab-count", "3 vocabulary entries for C=2 tags"),
        ("dim", "dim lines"),
        ("count", "bad count in 'dim C two'"),
    ], ids=["short-b", "short-b1", "vocab-count", "dim", "count"])
    def test_model_file_disagreeing_with_its_arrays(self, ingested, tmp_path,
                                                    capsys, defect, message):
        # short vectors were broadcast and scored, and a vocabulary longer
        # than the arrays' C ended in an IndexError
        kind, hidden = (("mlp", ["--hidden", 3]) if defect == "short-b1"
                        else ("logreg", []))
        model = tmp_path / "m.model"
        assert run(["train", "--data", ingested, "--kind", kind,
                    "--epochs", 1, *hidden, "--model", model]) == 0
        _, vocab = load_model(model)
        if defect == "vocab-count":
            # save_model refuses to write this file
            model.write_text("\n".join(
                ["multitag-model 1", "kind logreg", "dim D 4", "dim C 2",
                 f"vocab {len(vocab)}", *vocab, "array W 4 2",
                 *["0.0 0.0"] * 4, "array b 1 2", "0.0 0.0"]) + "\n")
        else:
            lines = model.read_text().splitlines()
            if defect == "dim":
                lines[lines.index("dim D 4")] = "dim D 5"
            elif defect == "count":
                lines[lines.index("dim C 3")] = "dim C two"
            else:
                name = defect[len("short-"):]
                row = next(i for i, line in enumerate(lines)
                           if line.startswith(f"array {name} "))
                lines[row:row + 2] = [f"array {name} 1 1", "0.0"]
            model.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--data", ingested, "--model", model,
                    "--out", tmp_path / "reports"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--model", "model vocabulary does not match the data"),
        ("--model-b", "comparison models use different folds or "
                      "vocabularies"),
    ], ids=["a", "b"])
    def test_vocabulary_mismatch_leaves_no_directory(self, ingested,
                                                     tmp_path, flag,
                                                     message):
        model = tmp_path / "m.model"
        assert run(["train", "--data", ingested, "--kind", "logreg",
                    "--epochs", 1, "--model", model]) == 0
        other = tmp_path / "other.model"
        other.write_text(model.read_text().replace("\ntag0\n", "\nother\n"))
        a, b = (other, model) if flag == "--model" else (model, other)
        out = tmp_path / "reports"
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--data", ingested, "--model", a, "--model-b", b,
                 "--out", out])
        assert exc.value.code == f"error: {message}"
        assert not out.exists()

    def test_smoother_model_cannot_be_scored(self, ingested, tmp_path,
                                             corpus_dir):
        model = tmp_path / "s.model"
        assert run(["train", "--kind", "smoother", "--triples",
                    corpus_dir / "triples.tsv", "--vocab-size", 3,
                    "--epochs", 1, "--hidden", 2, "--model", model]) == 0
        # a SystemExit with a message: the process prints it, exit status 1
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--data", ingested, "--model", model,
                 "--out", tmp_path / "reports"])
        assert exc.value.code == "error: cannot score model type SmootherParams"
        assert not (tmp_path / "reports").exists()

    def test_single_model_reports(self, ingested, tmp_path):
        model = tmp_path / "m.model"
        run(["train", "--data", ingested, "--estimator", "pl", "--epochs", 3,
             "--hidden", 3, "--lr", 0.1, "--model", model])
        out = tmp_path / "reports"
        assert run(["eval", "--data", ingested, "--model", model,
                    "--out", out]) == 0
        assert (out / "auc_a.tsv").exists()
        summary = (out / "summary.tsv").read_text().splitlines()
        assert summary[0] == "model\tdataset\tsmoothed\tgrand_mean_auc"
        assert len(summary) == 2

    def test_two_model_comparison_writes_significance(self, ingested,
                                                      tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        run(["train", "--data", ingested, "--estimator", "pl", "--epochs", 3,
             "--hidden", 3, "--lr", 0.1, "--model", a])
        run(["train", "--data", ingested, "--kind", "logreg", "--epochs", 3,
             "--lr", 0.5, "--model", b])
        out = tmp_path / "reports"
        assert run(["eval", "--data", ingested, "--model", a,
                    "--model-b", b, "--out", out]) == 0
        sig = (out / "significance.tsv").read_text()
        assert sig.startswith("a_better\t")


class TestSmoothPipeline:
    def test_train_then_smooth(self, tmp_path):
        from multitag.synthetic import make_cooccurrence_corpus

        X, Y_true, events = make_cooccurrence_corpus(n_clips=30, seed=2)
        triples = tmp_path / "triples.tsv"
        with open(triples, "w", encoding="utf-8") as fh:
            for e in events:
                for j in np.flatnonzero(e.y):
                    fh.write(f"user{e.user}\tclip{e.clip}\ttag{j}\n")
        model = tmp_path / "s.model"
        assert run(["train", "--kind", "smoother", "--triples", triples,
                    "--vocab-size", 2, "--epochs", 2, "--hidden", 2,
                    "--model", model]) == 0
        assert not (tmp_path / "s.model.log").exists()
        records = [json.loads(line) for line in
                   (tmp_path / "s.model.jsonl").read_text().splitlines()]
        assert [(r["kind"], r["epoch"], r["objective"], r["value"])
                for r in records] == [("smoother", 0, None, None),
                                      ("smoother", 1, None, None)]
        assert all(r["max_abs_param"] > 0 and r["update_norm"] > 0
                   for r in records)
        out = tmp_path / "smoothed.tsv"
        assert run(["smooth", "--model", model, "--triples", triples,
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("item\t")
        values = np.array([[float(v) for v in line.split("\t")[1:]]
                           for line in lines[1:]])
        assert np.all((values >= 0) & (values <= 1))

    def test_non_finite_model_entry_is_an_error_line(self, corpus_dir,
                                                      tmp_path, capsys):
        # one nan in a clip column of V would otherwise smooth that clip
        # to a row of nan with exit status 0
        triples = corpus_dir / "triples.tsv"
        model = tmp_path / "s.model"
        assert run(["train", "--kind", "smoother", "--triples", triples,
                    "--vocab-size", 3, "--epochs", 1, "--hidden", 2,
                    "--model", model]) == 0
        p, vocab = load_model(model)
        p.V[0, -1] = np.nan
        save_model(model, p, vocab)
        out = tmp_path / "smoothed.tsv"
        assert run(["smooth", "--model", model, "--triples", triples,
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model}: array V: non-finite entry\n"
        assert not out.exists()

    def test_smooth_matches_per_clip_reference(self, tmp_path):
        # clips with 1 to 4 users, two clips per track; the reference
        # smooths one clip at a time from the triples, with 1-d products
        # and the row mean-field loop, and writes the same text
        rng = np.random.default_rng(9)
        triples, items = tmp_path / "triples.tsv", tmp_path / "items.tsv"
        tagged = {}  # (user, clip) -> tags
        for c in range(24):
            for u in rng.choice(6, rng.integers(1, 5), replace=False):
                tags = rng.choice(3, rng.integers(1, 3), replace=False)
                tagged[(f"u{u}", f"clip{c:02d}")] = {f"tag{j}" for j in tags}
        triples.write_text("".join(f"{u}\t{c}\t{t}\n"
                                   for (u, c), ts in tagged.items()
                                   for t in sorted(ts)))
        clip_names = sorted({c for _, c in tagged})
        items.write_text("".join(f"{c}\ttrack{i // 2:02d}\n"
                                 for i, c in enumerate(clip_names)))
        model = tmp_path / "s.model"
        assert run(["train", "--kind", "smoother", "--triples", triples,
                    "--items", items, "--vocab-size", 3, "--epochs", 3,
                    "--hidden", 3, "--lr", 0.3, "--model", model]) == 0
        out = tmp_path / "smoothed.tsv"
        assert run(["smooth", "--model", model, "--triples", triples,
                    "--items", items, "--out", out]) == 0

        p, vocab = load_model(model)
        n_users = len({u for u, _ in tagged})
        n_tracks = (len(clip_names) + 1) // 2
        lines = ["item\t" + "\t".join(vocab)]
        for i, clip in enumerate(clip_names):
            rows = [[float(t in ts) for t in vocab]
                    for (_, c), ts in sorted(tagged.items()) if c == clip]
            u = np.mean(np.asarray(rows), axis=0)
            vis = p.d + p.V[:, [n_users + i // 2, n_users + n_tracks + i]].sum(
                axis=1)
            y = u
            for _ in range(500):
                y_new = sigm(vis + p.U.T @ sigm(p.c + p.W @ u + p.U @ y))
                done = np.max(np.abs(y_new - y)) < 1e-8
                y = y_new
                if done:
                    break
            lines.append(clip + "\t" + "\t".join(repr(float(v)) for v in y))
        assert out.read_text() == "\n".join(lines) + "\n"


class TestOracleCheck:
    def test_passes_by_default(self, capsys):
        assert run(["oracle-check", "--trials", 2]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_printed_normalizer_is_caught(self, capsys):
        assert run(["oracle-check", "--trials", 2,
                    "--printed-normalizer"]) == 1
        assert "FAIL" in capsys.readouterr().out
