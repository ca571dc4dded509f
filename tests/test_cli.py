import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitag import data as dt
from multitag.cli import KIND_TABLE, _events_from_triples, main
from multitag.core import sigm
from multitag.data import Triples
from multitag.modelio import KINDS, load_model, save_model
from multitag.synthetic import make_tag_corpus, write_corpus_files
from conftest import INGESTED_DEFECTS, break_ingested, printed_lbp_marginals


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

    def test_literal_corpus(self, tmp_path, capsys):
        # rock: a by u1 and u2 (u1 twice), b by u3 twice: one user, so
        # unknown at --min-positive 2; jazz and pop tie at two users each,
        # so jazz takes the second column and pop is left out; ghost has
        # no features, and d no triples
        triples, features = tmp_path / "triples.tsv", tmp_path / "features.tsv"
        triples.write_text("u1\ta\trock\nu2\ta\trock\nu1\ta\trock\n"
                           "u3\tb\trock\nu3\tb\trock\nu1\tb\tjazz\n"
                           "u2\tc\tjazz\nu1\tc\tpop\nu2\tghost\tpop\n")
        features.write_text("d\t1.0\t0.0\nb\t0.0\t1.0\na\t2.0\t2.0\n"
                            "c\t-1.0\t3.0\n")
        out = tmp_path / "out"
        assert run(["ingest", "--triples", triples, "--features", features,
                    "--vocab-size", 2, "--min-positive", 2,
                    "--out", out]) == 0
        assert capsys.readouterr().err == (
            "warning: 1 tagged item(s) have no features and are excluded: "
            "ghost\n")
        assert (out / "vocab.txt").read_text() == "rock\njazz\n"
        assert (out / "matrix.tsv").read_text() == (
            "item\trock\tjazz\n"
            "a\tP\tN\n"
            "b\tU\tU\n"
            "c\tN\tU\n"
            "d\tN\tN\n")
        assert [line.split("\t")[0] for line in
                (out / "features.tsv").read_text().splitlines()] == [
            "a", "b", "c", "d"]

    def test_byte_reproducible(self, corpus_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["ingest", "--triples", corpus_dir / "triples.tsv",
                 "--features", corpus_dir / "features.tsv",
                 "--vocab-size", 3, "--min-positive", 1, "--out", out])
            outs.append(out)
        for name in ("vocab.txt", "matrix.tsv", "features.tsv",
                     "features.npy", "items.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_items_and_text_export_agree_with_the_array(self, ingested):
        # features.tsv is written for people and read by no command: it
        # parses to the array's exact bits, and items.txt names the rows
        # of matrix.tsv in order
        assert sorted(os.listdir(ingested)) == [
            "features.npy", "features.tsv", "items.txt", "matrix.tsv",
            "vocab.txt"]
        matrix, X = dt.read_ingested(ingested)
        items, X_text = dt.read_features(ingested / "features.tsv")
        assert items == matrix.items
        np.testing.assert_array_equal(X_text.view(np.int64), X.view(np.int64))
        assert (ingested / "items.txt").read_text().splitlines() == [
            line.split("\t")[0] for line in
            (ingested / "matrix.tsv").read_text().splitlines()[1:]]

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

    def test_unknown_estimator_exits_nonzero(self, ingested, tmp_path,
                                             capsys):
        # TrainConfig's check, before any file is written
        assert run(["train", "--data", ingested, "--estimator", "gibbs",
                    "--model", tmp_path / "m.model"]) == 1
        assert capsys.readouterr().err == "error: unknown estimator 'gibbs'\n"
        assert not (tmp_path / "m.model").exists()
        assert not (tmp_path / "m.model.jsonl").exists()

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
        (["--kind", "drbm"], "--triples is not read by --kind drbm"),
        (["--kind", "smoother"], "--data is not read by --kind smoother"),
        (["--kind", "smoother", "--l1", -0.5], "l1 must be >= 0"),
        (["--kind", "smoother", "--l1", "nan"], "l1 must be finite"),
        (["--lr", "nan"], "learning rate must be finite"),
        (["--lr", "inf"], "learning rate must be finite"),
        (["--kind", "mlp", "--hidden", 0], "--hidden must be >= 1"),
        (["--hidden", -1], "--hidden must be >= 1"),
        (["--seed", -1], "seed must be >= 0"),
    ], ids=["smoother-estimator", "drbm-l1", "cd-beta", "logreg-hidden",
            "logreg-k", "mlp-k", "drbm-triples", "smoother-data",
            "negative-l1", "nan-l1", "nan-lr", "inf-lr", "mlp-zero-hidden",
            "negative-hidden", "negative-seed"])
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
                                                      tmp_path, capsys):
        assert run(["train", "--data", ingested, "--kind", "foo",
                    "--model", tmp_path / "foo.model"]) == 1
        assert capsys.readouterr().err == "error: unknown model kind 'foo'\n"
        assert list(tmp_path.glob("foo.model*")) == []

    def test_baseline_kinds(self, ingested, tmp_path):
        for kind in ("mlp", "logreg", "grbm"):
            model = tmp_path / f"{kind}.model"
            hidden = ["--hidden", 3] if kind != "logreg" else []
            assert run(["train", "--data", ingested, "--kind", kind,
                        "--epochs", 1, *hidden, "--lr", 0.1,
                        "--model", model]) == 0
            assert model.exists()


class TestIngestedDirectory:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("defect", INGESTED_DEFECTS)
    def test_a_faulty_file_is_an_error_line(self, ingested, tmp_path, capsys,
                                            defect, command):
        # refused before the record, the model or the reports directory
        # exists
        work = tmp_path / "work"
        work.mkdir()
        model = tmp_path / "m.model"
        assert run(["train", "--data", ingested, "--epochs", 1, "--hidden", 3,
                    "--model", model]) == 0
        message = break_ingested(ingested, defect)
        args = {"train": ["--model", work / "m.model"],
                "eval": ["--model", model, "--out", work / "reports"]}
        assert run([command, "--data", ingested, *args[command]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert list(work.iterdir()) == []

    def test_a_text_only_directory_needs_a_fresh_ingest(self, ingested,
                                                        tmp_path, capsys):
        # an edited or lone features.tsv is never read
        text_only = tmp_path / "text-only"
        text_only.mkdir()
        for name in ("vocab.txt", "matrix.tsv", "features.tsv"):
            (text_only / name).write_bytes((ingested / name).read_bytes())
        model = tmp_path / "m.model"
        assert run(["train", "--data", text_only, "--model", model]) == 1
        assert capsys.readouterr().err == (
            f"error: {text_only / 'items.txt'}: no such file; re-run "
            f"ingest\n")
        assert list(tmp_path.glob("m.model*")) == []

    def test_rows_out_of_matrix_order(self, ingested, tmp_path, capsys):
        matrix = ingested / "matrix.tsv"
        lines = matrix.read_text().splitlines(keepends=True)
        lines[3], lines[4] = lines[4], lines[3]
        matrix.write_text("".join(lines))
        assert run(["train", "--data", ingested,
                    "--model", tmp_path / "m.model"]) == 1
        assert capsys.readouterr().err == (
            f"error: {ingested / 'items.txt'}:3 and {matrix}:4 name "
            f"different items\n")


class TestNegativeSeed:
    # train's own check (TrainConfig) is in
    # TestTrain::test_rejects_options_the_kind_ignores
    @pytest.mark.parametrize("command", ["eval", "oracle-check"])
    @pytest.mark.parametrize("source", ["flag", "config", "environment"])
    def test_rejected_before_any_file(self, tmp_path, capsys, monkeypatch,
                                      command, source):
        # the data directory does not exist: the seed is refused first
        work = tmp_path / "work"
        work.mkdir()
        out = work / "reports"
        args = {"eval": ["--data", tmp_path / "missing", "--model",
                         work / "m.model", "--out", out],
                "oracle-check": ["--trials", 1]}[command]
        if source == "flag":
            args += ["--seed", -1]
        elif source == "config":
            config = tmp_path / "run.cfg"
            config.write_text("seed=-1\n")
            args += ["--config", config]
        else:
            monkeypatch.setenv("MULTITAG_SEED", "-1")
        assert run([command, *args]) == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0\n")
        assert not out.exists()
        assert list(work.iterdir()) == []


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

    @pytest.mark.parametrize("command", [
        ["train", "--kind", "drbm", "--epochs", 1],
        ["train", "--kind", "logreg", "--epochs", 1],
        ["eval", "--out", "{out}/reports"]],
        ids=["drbm-train", "logreg-train", "eval"])
    def test_no_tag_columns_is_an_error_line(self, ingested, tmp_path, capsys,
                                             command):
        # only the item column is left: refused before the record, the
        # model or the reports directory exists
        matrix = ingested / "matrix.tsv"
        matrix.write_text("".join(line.split("\t")[0] + "\n" for line in
                                  matrix.read_text().splitlines()))
        out = tmp_path / "out"
        out.mkdir()
        assert run([str(a).format(out=out) for a in command]
                   + ["--data", ingested, "--model", out / "m.model"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {matrix}: no tag columns\n"
        assert captured.out == ""
        assert list(out.iterdir()) == []


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
        model = tmp_path / "m.model"
        # a misspelled option, and a name that no command takes
        for text, key in (("# one epoch\nepoch=1\n", "epoch"),
                          ("# negative control\nprinted_normalizer=no\n",
                           "printed_normalizer")):
            config.write_text(text)
            assert run(["train", "--data", ingested, "--estimator", "pl",
                        "--config", config, "--model", model]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {config}:2: unknown key {key!r}\n"
            assert not model.exists()

    def test_config_not_utf8_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"# trials\ntrials=2\nseed=\xff\n")
        assert run(["oracle-check", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}:3: not UTF-8: byte 0xff\n"

    def test_config_with_byte_order_mark(self, ingested, tmp_path):
        # a config file saved with a leading byte-order mark reads the
        # same as one without
        models = []
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            config = tmp_path / f"{name}.cfg"
            config.write_bytes(mark + b"seed=3\nepochs=1\nhidden=3\n")
            models.append(tmp_path / f"{name}.model")
            assert run(["train", "--data", ingested, "--estimator", "pl",
                        "--config", config, "--model", models[-1]]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()
        assert len((tmp_path / "bom.model.jsonl").read_text()
                   .splitlines()) == 1

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

    @pytest.mark.parametrize("command, text, where, value, key", [
        ("oracle-check", "seed=abc\n", 1, "abc", "seed"),
        ("oracle-check", "# whole trials\ntrials=1.5\n", 2, "1.5", "trials"),
        ("train", "epochs=2\nlr=fast\n", 2, "fast", "lr"),
    ], ids=["int", "float-for-int", "float"])
    def test_bad_config_value_names_its_line(self, tmp_path, capsys, command,
                                             text, where, value, key):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert run([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {config}:{where}: bad value "
                                f"{value!r} for {key}\n")

    def test_bad_environment_seed_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("MULTITAG_SEED", "x")
        assert run(["oracle-check", "--trials", 1]) == 1
        assert capsys.readouterr().err == (
            "error: MULTITAG_SEED: bad value 'x' for seed\n")
        # a seed flag leaves the environment unread
        assert run(["oracle-check", "--trials", 1, "--seed", 0]) == 0

    @pytest.mark.parametrize("text, where, key", [
        ("trials=2\nseed=1\ntrials=3\n", 3, "trials"),
        ("seed=1\n\nseed=1\n", 3, "seed"),
        ("vocab-size=5\nvocab_size=5\n", 2, "vocab_size"),
    ], ids=["differs", "same", "spelling"])
    def test_repeated_config_key_is_an_error(self, tmp_path, capsys, text,
                                             where, key):
        config = tmp_path / "check.cfg"
        config.write_text(text)
        assert run(["oracle-check", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {config}:{where}: duplicate key "
                                f"{key!r}\n")


class TestEval:
    def test_tag_holding_a_form_feed(self, tmp_path):
        # a model file's line ends at "\n" only, so a tag may hold a \f
        X, Y = make_tag_corpus(n_items=60, C=3, D=4, seed=5)
        write_corpus_files(tmp_path, X, Y, ["tag0", "form\x0cfeed", "tag2"])
        out, model = tmp_path / "ingested", tmp_path / "m.model"
        assert run(["ingest", "--triples", tmp_path / "triples.tsv",
                    "--features", tmp_path / "features.tsv",
                    "--vocab-size", 3, "--min-positive", 1,
                    "--out", out]) == 0
        assert run(["train", "--data", out, "--epochs", 1, "--hidden", 3,
                    "--model", model]) == 0
        assert "form\x0cfeed" in load_model(model)[1]
        assert run(["eval", "--data", out, "--model", model,
                    "--out", tmp_path / "reports"]) == 0

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
        features = ingested / "features.npy"
        X = np.load(features)
        X[0] = np.nan
        np.save(features, X)
        item = (ingested / "items.txt").read_text().splitlines()[0]
        assert run(["eval", "--data", ingested, "--model", model,
                    "--out", tmp_path / "reports"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {features}: non-finite feature value for "
                       f"item {item!r}\n")

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
        ("short-b", "expected 'array b 1 3', found 'array b 1 1'"),
        ("short-b1", "expected 'array b1 1 3', found 'array b1 1 1'"),
        ("vocab-count", "expected 'vocab 2', found 'vocab 3'"),
        ("dim", "expected 'array W 5 3', found 'array W 4 3'"),
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
                                                     message, capsys):
        model = tmp_path / "m.model"
        assert run(["train", "--data", ingested, "--kind", "logreg",
                    "--epochs", 1, "--model", model]) == 0
        other = tmp_path / "other.model"
        other.write_text(model.read_text().replace("\ntag0\n", "\nother\n"))
        a, b = (other, model) if flag == "--model" else (model, other)
        out = tmp_path / "reports"
        assert run(["eval", "--data", ingested, "--model", a, "--model-b", b,
                    "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_smoother_model_cannot_be_scored(self, ingested, tmp_path,
                                             corpus_dir, capsys):
        model = tmp_path / "s.model"
        assert run(["train", "--kind", "smoother", "--triples",
                    corpus_dir / "triples.tsv", "--vocab-size", 3,
                    "--epochs", 1, "--hidden", 2, "--model", model]) == 0
        capsys.readouterr()
        assert run(["eval", "--data", ingested, "--model", model,
                    "--out", tmp_path / "reports"]) == 1
        assert capsys.readouterr().err == (
            "error: cannot score model type SmootherParams\n")
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

    def test_non_smoother_model_is_an_error_line(self, corpus_dir, tmp_path,
                                                  capsys, rng):
        model = tmp_path / "m.model"
        save_model(model, KINDS["drbm"].random_init(2, 3, 4, rng),
                   ["tag0", "tag1", "tag2"])
        out = tmp_path / "smoothed.tsv"
        assert run(["smooth", "--model", model, "--triples",
                    corpus_dir / "triples.tsv", "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: --model must point to a smoother model\n")
        assert not out.exists()

    def test_block_sizes_differ_from_the_model(self, corpus_dir, tmp_path,
                                               capsys):
        # one more user than the model was trained with
        triples = corpus_dir / "triples.tsv"
        model = tmp_path / "s.model"
        assert run(["train", "--kind", "smoother", "--triples", triples,
                    "--vocab-size", 3, "--epochs", 1, "--hidden", 2,
                    "--model", model]) == 0
        clip = triples.read_text().split("\t")[1]
        more = tmp_path / "more.tsv"
        more.write_text(triples.read_text() + f"newcomer\t{clip}\ttag0\n")
        out = tmp_path / "smoothed.tsv"
        assert run(["smooth", "--model", model, "--triples", more,
                    "--out", out]) == 1
        users, tracks, clips = load_model(model)[0].aux_sizes
        assert capsys.readouterr().err == (
            "error: the triples and items give (users, tracks, clips) = "
            f"({users + 1}, {tracks}, {clips}), the model "
            f"({users}, {tracks}, {clips})\n")
        assert not out.exists()

    def test_smooth_without_the_training_items_file(self, corpus_dir,
                                                    tmp_path, capsys):
        # trained on three clips per track, smoothed without --items:
        # the vocabulary matches and only the track count differs
        triples = corpus_dir / "triples.tsv"
        lines = triples.read_text().splitlines()
        users = len({line.split("\t")[0] for line in lines})
        clips = sorted({line.split("\t")[1] for line in lines})
        items = tmp_path / "items.tsv"
        items.write_text("".join(f"{c}\ttrack{i // 3}\n"
                                 for i, c in enumerate(clips)))
        model = tmp_path / "s.model"
        assert run(["train", "--kind", "smoother", "--triples", triples,
                    "--items", items, "--vocab-size", 3, "--epochs", 1,
                    "--hidden", 2, "--model", model]) == 0
        tracks = -(-len(clips) // 3)
        assert load_model(model)[0].aux_sizes == (users, tracks, len(clips))
        out = tmp_path / "smoothed.tsv"
        assert run(["smooth", "--model", model, "--triples", triples,
                    "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: the triples and items give (users, tracks, clips) = "
            f"({users}, {len(clips)}, {len(clips)}), the model "
            f"({users}, {tracks}, {len(clips)})\n")
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

    def test_every_clip_of_the_triples_gets_a_row(self, tmp_path):
        # clip c2's only tag is outside the vocabulary, so its one event
        # has an all-zero label row; c2 still gets its row, between c1
        # and c3, smoothed from an all-zero average
        triples = tmp_path / "triples.tsv"
        triples.write_text("u0\tc3\ttag0\nu1\tc1\ttag0\nu1\tc2\trare\n"
                           "u0\tc1\ttag1\nu2\tc4\ttag0\nu2\tc3\ttag1\n")
        model = tmp_path / "s.model"
        assert run(["train", "--kind", "smoother", "--triples", triples,
                    "--vocab-size", 2, "--epochs", 2, "--hidden", 2,
                    "--model", model]) == 0
        out = tmp_path / "smoothed.tsv"
        assert run(["smooth", "--model", model, "--triples", triples,
                    "--out", out]) == 0
        p, vocab = load_model(model)
        assert vocab == ["tag0", "tag1"]
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert [r[0] for r in rows] == ["item", "c1", "c2", "c3", "c4"]
        # users u0..u2, then one track per clip, then the clips
        vis = p.d + p.V[:, [3 + 1, 3 + 4 + 1]].sum(axis=1)
        y = np.zeros(2)
        for _ in range(500):
            y_new = sigm(vis + p.U.T @ sigm(p.c + p.W @ np.zeros(2)
                                            + p.U @ y))
            done = np.max(np.abs(y_new - y)) < 1e-8
            y = y_new
            if done:
                break
        assert rows[2][1:] == [repr(float(v)) for v in y]


class TestEventsFromTriples:
    @given(st.lists(st.tuples(st.sampled_from(["u2", "u1", "u3"]),
                              st.sampled_from(["c2", "c1", "c3", "c4"]),
                              st.sampled_from(["t1", "t2", "t3"])),
                    min_size=1, max_size=25),
           st.dictionaries(st.sampled_from(["c1", "c2", "c3"]),
                           st.sampled_from(["k2", "k1", "c4"])),
           st.lists(st.sampled_from(["t1", "t2", "t4"]), unique=True))
    @settings(max_examples=100)
    def test_matches_grouping_reference(self, rows, items_map, vocab):
        # the reference groups each (user, clip)'s tags in a set and
        # numbers users, clips and tracks in sorted name order
        users = sorted({u for u, _, _ in rows})
        clips = sorted({c for _, c, _ in rows})
        track_names = sorted({items_map.get(c, c) for c in clips})
        grouped = {}
        for user, clip, tag in rows:
            grouped.setdefault((user, clip), set()).add(tag)
        want = [(users.index(u), track_names.index(items_map.get(c, c)),
                 clips.index(c), [float(t in tags) for t in vocab])
                for (u, c), tags in sorted(grouped.items())]
        events, sizes = _events_from_triples(Triples.from_rows(rows), vocab,
                                             items_map)
        assert [(*ids, y) for ids, y in zip(events.ids.tolist(),
                                            events.Y.tolist())] == want
        assert sizes == (len(users), len(track_names), len(clips))
        _, first_event = np.unique(events.ids[:, 2], return_index=True)
        assert events.ids[first_event, 1].tolist() == [
            track_names.index(items_map.get(c, c)) for c in clips]


class TestOracleCheck:
    def test_passes_by_default(self, capsys):
        assert run(["oracle-check", "--trials", 2]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_printed_normalizer_is_caught(self, capsys, monkeypatch):
        monkeypatch.setattr("multitag.verify.lbp_marginals",
                            printed_lbp_marginals)
        assert run(["oracle-check", "--trials", 2]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_rejects_zero_trials(self, capsys):
        # with no trials every check would pass without checking anything
        assert run(["oracle-check", "--trials", 0]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trials must be >= 1\n"

    def test_unparsable_flag_returns_argparse_status(self, capsys):
        assert run(["oracle-check", "--trials", 1.5]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: multitag oracle-check")
        assert captured.err.endswith(
            "error: argument --trials: invalid int value: '1.5'\n")

    def test_help_returns_zero(self, capsys):
        assert run(["oracle-check", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: multitag oracle-check")
        assert captured.err == ""
