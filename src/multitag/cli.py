"""Command-line front end: ingest tag data, train models, smooth tags,
evaluate, and run the oracle verification suite.

Option precedence is flags > config file > MULTITAG_SEED (for the seed)
> built-in defaults.  The config file is flat ``key=value`` text with
keys named like the long flags (dashes or underscores); a key that is no
option of any command is an error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import data as dt
from .baselines import (LOGREG_DEFAULT_LR, MLP_DEFAULT_HIDDEN, MLP_DEFAULT_LR,
                        MlpParams, logreg_predict, logreg_train, mlp_predict,
                        mlp_train)
from .core import DrbmParams
from .estimators import (ESTIMATORS, DivergenceError, GaussianRbmParams,
                         TrainConfig, sgd_train, sgd_train_generative)
from .evaluation import (AucReport, score_matrix_auc, significance_counts,
                         write_auc_report, write_summary)
from .inference import NumericError, lbp_scores
from .modelio import load_model, save_model
from .smoother import SmootherParams, TagEvent, smooth_tags, train_smoother
from .verify import (check_capacity, check_exact_gradient, check_independence,
                     check_lbp_tree, check_normalization, check_pl_gradient)

STATE_CHARS = {dt.POSITIVE: "P", dt.NEGATIVE: "N", dt.UNKNOWN: "U"}
CHAR_STATES = {v: k for k, v in STATE_CHARS.items()}


def _read_config(path, known):
    """The key=value pairs of a config file; a key that is not in
    ``known`` (an option of some command) is an error."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


def _merge(args, defaults):
    """Fill unset options from config file, MULTITAG_SEED, then defaults;
    args.unset names the options that took the built-in default."""
    config = (_read_config(args.config, args.config_keys)
              if getattr(args, "config", None) else {})
    args.unset = set()
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in config:
            cast = type(default) if default is not None else str
            if cast is bool:
                setattr(args, key, config[key].lower() in ("1", "true", "yes"))
            else:
                setattr(args, key, cast(config[key]))
        elif key == "seed" and os.environ.get("MULTITAG_SEED"):
            setattr(args, key, int(os.environ["MULTITAG_SEED"]))
        else:
            setattr(args, key, default)
            args.unset.add(key)
    return args


def _write_matrix(path, matrix: dt.ThreeStateTagMatrix):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("item\t" + "\t".join(matrix.vocab) + "\n")
        for i, item in enumerate(matrix.items):
            cells = "\t".join(STATE_CHARS[int(v)] for v in matrix.cells[i])
            fh.write(item + "\t" + cells + "\n")


def _read_matrix(path) -> dt.ThreeStateTagMatrix:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        vocab = header[1:]
        items, rows = [], []
        for lineno, line in enumerate(fh, 2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) - 1 != len(vocab):
                raise ValueError(f"{path}:{lineno}: expected {len(vocab)} "
                                 f"cells, got {len(parts) - 1}")
            try:
                rows.append([CHAR_STATES[c] for c in parts[1:]])
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: unknown cell "
                                 f"{exc.args[0]!r}") from exc
            items.append(parts[0])
    return dt.ThreeStateTagMatrix(items, vocab, np.asarray(rows, dtype=np.int8))


def _write_features(path, table: dt.FeatureTable):
    with open(path, "w", encoding="utf-8") as fh:
        for i, item in enumerate(table.items):
            fh.write(item + "\t" + "\t".join(repr(float(v)) for v in table.X[i]) + "\n")


def cmd_ingest(args):
    triples = dt.read_triples(args.triples)
    features = dt.read_features(args.features)
    records = dt.condense(triples)
    vocab = dt.select_vocab(records, args.vocab_size)
    feat_items = set(features.items)
    tagged = {item for item, _ in records}
    missing = sorted(tagged - feat_items)
    if missing:
        more = ", ..." if len(missing) > 5 else ""
        print(f"warning: {len(missing)} tagged item(s) have no features and "
              f"are excluded: {', '.join(missing[:5])}{more}", file=sys.stderr)
    items = sorted(feat_items)
    matrix = dt.binarize(records, vocab, args.min_positive, items=items)
    row = {item: r for r, item in enumerate(features.items)}
    order = [row[i] for i in items]
    table = dt.normalize_features(
        dt.FeatureTable(items, features.X[order]))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "vocab.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(vocab) + "\n")
    _write_matrix(os.path.join(args.out, "matrix.tsv"), matrix)
    _write_features(os.path.join(args.out, "features.tsv"), table)
    return 0


def _load_ingested(data_dir):
    matrix = _read_matrix(os.path.join(data_dir, "matrix.tsv"))
    features = dt.read_features(os.path.join(data_dir, "features.tsv"))
    if features.items != matrix.items:
        raise ValueError("matrix and features item order mismatch")
    return matrix, features


def _events_from_triples(triples, vocab, items_map):
    """One TagEvent per (user, clip); ids assigned by sorted order, so
    the same triples file always yields the same id maps."""
    col = {t: j for j, t in enumerate(vocab)}
    users = sorted({t.user for t in triples})
    clips = sorted({t.item for t in triples})
    tracks = sorted({items_map.get(c, c) for c in clips})
    uid = {u: i for i, u in enumerate(users)}
    cid = {c: i for i, c in enumerate(clips)}
    tid = {t: i for i, t in enumerate(tracks)}
    grouped = {}
    for t in triples:
        grouped.setdefault((t.user, t.item), set()).add(t.tag)
    events = []
    for (user, item), tags in sorted(grouped.items()):
        y = np.zeros(len(vocab))
        for tag in tags:
            if tag in col:
                y[col[tag]] = 1.0
        events.append(TagEvent(uid[user], tid[items_map.get(item, item)],
                               cid[item], y))
    sizes = (len(users), len(tracks), len(clips))
    return events, sizes, cid, tid


class Kind(NamedTuple):
    """What `train` and `eval` do for one model kind."""
    options: tuple  # the kind-specific train options that it reads
    fit: Callable   # (*data, hidden, cfg, rng, record_file) -> Params
    masked: bool = False    # UNKNOWN cells: out of the loss, or negatives
    score: Callable = None  # (p, X) -> (B, C) scores; None: not scorable
    defaults: dict = {}     # built-in train defaults that it replaces


def _fit_drbm(X, Y, mask, hidden, cfg, rng, record_file):
    p0 = DrbmParams.random_init(hidden, Y.shape[1], X.shape[1], rng)
    return sgd_train(X, Y, p0, cfg, record_file)


def _fit_grbm(X, Y, mask, hidden, cfg, rng, record_file):
    p0 = GaussianRbmParams.random_init(hidden, Y.shape[1], X.shape[1], rng)
    return sgd_train_generative(X, Y, p0, cfg, record_file)


def _fit_mlp(X, Y, mask, hidden, cfg, rng, record_file):
    p0 = MlpParams.random_init(X.shape[1], hidden, Y.shape[1], rng)
    return mlp_train(X, Y, mask, cfg, p0, record_file)


def _fit_logreg(X, Y, mask, hidden, cfg, rng, record_file):
    return logreg_train(X, Y, mask, cfg, None, record_file)


def _fit_smoother(events, sizes, C, hidden, cfg, rng, record_file):
    p0 = SmootherParams.random_init(hidden, C, sizes, rng)
    return train_smoother(events, p0, cfg, record_file)


# model kind (the names of modelio.KINDS) -> Kind.  Its functions call
# trainers and scorers by this module's names, which perfbench's tracing
# patches.  The UNKNOWN policy is `masked`: mlp and logreg leave UNKNOWN
# cells out of their loss, drbm and grbm train on them as negatives.
KIND_TABLE = {
    "drbm": Kind(("estimator", "k", "hidden"), _fit_drbm,
                 score=lambda p, X: lbp_scores(X, p, K=10)),
    "grbm": Kind(("k", "hidden"), _fit_grbm,
                 score=lambda p, X: lbp_scores(X, p, K=10)),
    "mlp": Kind(("hidden",), _fit_mlp, masked=True,
                score=lambda p, X: mlp_predict(X, p),
                defaults={"hidden": MLP_DEFAULT_HIDDEN, "lr": MLP_DEFAULT_LR}),
    "logreg": Kind((), _fit_logreg, masked=True,
                   score=lambda p, X: logreg_predict(X, p),
                   defaults={"lr": LOGREG_DEFAULT_LR}),
    "smoother": Kind(("k", "hidden", "l1"), _fit_smoother),
}


def _read_events(args):
    """(vocab, (events, sizes, C)) from --triples, for the smoother."""
    if args.triples is None:
        raise ValueError("--kind smoother needs --triples")
    triples = dt.read_triples(args.triples)
    items_map = dt.read_items(args.items) if args.items else {}
    vocab = dt.select_vocab(dt.condense(triples), args.vocab_size)
    events, sizes, _, _ = _events_from_triples(triples, vocab, items_map)
    return vocab, (events, sizes, len(vocab))


def cmd_train(args):
    kind = KIND_TABLE.get(args.kind)
    if kind is None:
        raise SystemExit(f"error: unknown model kind {args.kind!r}")
    if args.estimator not in ESTIMATORS:
        raise SystemExit(f"error: unknown estimator {args.estimator!r}")
    # options that only some kinds read: each, set away from its built-in
    # default, is an error for a kind that does not read it
    for option in ("estimator", "k", "hidden", "l1"):
        if (getattr(args, option) != args.defaults[option]
                and option not in kind.options):
            raise ValueError(f"--{option} is not read by --kind {args.kind}")
    if args.beta != 0.0 and (args.kind, args.estimator) != ("drbm", "lbp"):
        raise ValueError("--beta needs --kind drbm --estimator lbp")
    if args.kind == "smoother":  # the one kind that trains on --triples
        vocab, data = _read_events(args)
    else:
        matrix, features = _load_ingested(args.data)
        Y = (matrix.cells == dt.POSITIVE).astype(float)
        known = (matrix.cells != dt.UNKNOWN).astype(float)
        vocab = matrix.vocab
        data = (features.X, Y, known if kind.masked else None)
    for key, value in kind.defaults.items():
        if key in args.unset:
            setattr(args, key, value)
    cfg = TrainConfig(estimator=args.estimator, k=args.k, lr=args.lr,
                      beta=args.beta, epochs=args.epochs, seed=args.seed,
                      l1=args.l1)
    with open(args.model + ".jsonl", "w", encoding="utf-8") as records:
        model = kind.fit(*data, args.hidden, cfg,
                         np.random.default_rng(args.seed), records)
    save_model(args.model, model, vocab)
    return 0


def cmd_smooth(args):
    model, vocab = load_model(args.model)
    if not isinstance(model, SmootherParams):
        raise SystemExit("error: --model must point to a smoother model")
    triples = dt.read_triples(args.triples)
    items_map = dt.read_items(args.items) if args.items else {}
    events, sizes, cid, tid = _events_from_triples(triples, vocab, items_map)
    if sizes != model.aux_sizes:
        raise SystemExit("error: triples vocabularies do not match the model")
    track = {}  # clip id -> the track of its first event
    for e in events:
        track.setdefault(e.clip, e.track)
    clips = sorted(track)
    probs = smooth_tags(clips, [track[c] for c in clips], model, events)
    clip_name = {i: name for name, i in cid.items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("item\t" + "\t".join(vocab) + "\n")
        for clip, row in zip(clips, probs.tolist()):
            fh.write(clip_name[clip] + "\t"
                     + "\t".join(map(repr, row)) + "\n")
    return 0


def _model_scores(model, X):
    score = KIND_TABLE[model.KIND].score
    if score is None:
        raise SystemExit(f"error: cannot score model type "
                         f"{type(model).__name__}")
    return score(model, X)


def _fold_report(scores, matrix, split) -> AucReport:
    values = np.full((matrix.C, len(split.folds)), np.nan)
    for f, fold in enumerate(split.folds):
        values[:, f] = score_matrix_auc(scores[fold], matrix.cells[fold],
                                        matrix.vocab)
    return AucReport(list(matrix.vocab), values)


def cmd_eval(args):
    matrix, features = _load_ingested(args.data)
    split = dt.make_folds(len(matrix.items), args.seed)
    reports = {}  # every model is checked and scored before --out exists
    for name, path, mismatch in (
            ("a", args.model, "model vocabulary does not match the data"),
            ("b", args.model_b, "comparison models use different folds or "
                                "vocabularies")):
        if path:
            model, vocab = load_model(path)
            if vocab != matrix.vocab:
                raise SystemExit(f"error: {mismatch}")
            reports[name] = _fold_report(_model_scores(model, features.X),
                                         matrix, split)
    os.makedirs(args.out, exist_ok=True)
    for name, report in reports.items():
        write_auc_report(os.path.join(args.out, f"auc_{name}.tsv"), name,
                         report)
    write_summary(os.path.join(args.out, "summary.tsv"),
                  [(name, args.data, False, report.grand_mean())
                   for name, report in reports.items()])
    if "b" in reports:
        sig = significance_counts(reports["a"], reports["b"])
        with open(os.path.join(args.out, "significance.tsv"), "w",
                  encoding="utf-8") as fh:
            fh.write("a_better\t{}\nb_better\t{}\n".format(sig.a_better,
                                                           sig.b_better))
    return 0


def cmd_oracle_check(args):
    rng = np.random.default_rng(args.seed)
    printed = args.printed_normalizer
    checks = (
        ("exact gradient vs finite differences", check_exact_gradient),
        ("pseudo-likelihood gradient vs finite differences",
         check_pl_gradient),
        ("belief propagation exact on single-hidden-unit models",
         partial(check_lbp_tree, printed_pair_normalizer=printed)),
        ("independence identity at zero coupling",
         partial(check_independence, printed_pair_normalizer=printed)),
        ("conditional distribution normalizes", check_normalization),
        ("capacity bound enforced", check_capacity),
    )
    failures = 0
    for name, check in checks:
        ok = check(rng, args.trials)
        print(("PASS " if ok else "FAIL ") + name)
        failures += not ok
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="multitag",
                                     description="multi-label autotagging "
                                                 "models and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)
    config_keys = set()  # every option of every command, filled by add()

    def add(name, fn, switches=None, **options):
        """A command whose options take values (default None until
        _merge) and store_true switches (name -> help, default False)."""
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        for flag, default in options.items():
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            default=None,
                            type=type(default) if default is not None else str)
        for flag, help_text in (switches or {}).items():
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            action="store_true", default=None, help=help_text)
            options[flag] = False
        config_keys.update(options)
        sp.set_defaults(fn=fn, defaults=options, config_keys=config_keys)

    add("ingest", cmd_ingest, triples="triples.tsv", features="features.tsv",
        vocab_size=10, min_positive=2, out="ingested")
    add("train", cmd_train, data="ingested", kind="drbm", estimator="cd",
        k=1, beta=0.0, lr=0.01, epochs=10, hidden=10, seed=0, l1=0.0,
        vocab_size=10, triples=None, items=None, model="model.txt")
    add("smooth", cmd_smooth, model="smoother.txt", triples="triples.tsv",
        items=None, out="smoothed.tsv")
    add("eval", cmd_eval, data="ingested", model="model.txt", model_b=None,
        seed=0, out="reports")
    add("oracle-check", cmd_oracle_check, seed=0, trials=5, switches={
        "printed_normalizer": "use the uncorrected 3-term pairwise "
                              "normalizer (negative control; fails the "
                              "tree check)"})
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge(args, args.defaults)
        return args.fn(args)
    except (ValueError, OSError, KeyError, DivergenceError,
            NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
