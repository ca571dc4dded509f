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
from itertools import chain

import numpy as np

from . import data as dt, kinds
from .data import _positions
from .estimators import DivergenceError, TrainConfig
from .evaluation import (AucReport, significance_counts, write_auc_report,
                         write_summary)
from .inference import NumericError
from .modelio import load_model, save_model
from .smoother import Events, SmootherParams, smooth_tags
from .verify import (check_capacity, check_exact_gradient, check_independence,
                     check_lbp_tree, check_normalization, check_pl_gradient)

# perfbench traces these names: the matrix reader and writer, the scorer
_read_matrix, _write_matrix = dt.read_matrix, dt.write_matrix
_model_scores = kinds.score


def _read_config(path, known):
    """A config file's key=value pairs as key -> (value, "path:lineno");
    a key not in ``known`` (an option of some command), or twice, is an
    error."""
    values = {}
    for lineno, line in enumerate(dt.read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = (val.strip(), f"{path}:{lineno}")
    return values


def _convert(key, default, text, where):
    """text, from a config line or the environment (``where``), as the
    type of the option's default: a str for a None default."""
    try:
        return text if default is None else type(default)(text)
    except ValueError:
        raise ValueError(f"{where}: bad value {text!r} for {key}") from None


def _merge(args, defaults):
    """Fill unset options from config file, MULTITAG_SEED, then defaults;
    args.unset names the options that took the built-in default.  A
    negative seed or an empty --model or --model-b, from any of them, is
    an error."""
    config = (_read_config(args.config, args.config_keys)
              if getattr(args, "config", None) else {})
    if "seed" not in config and os.environ.get("MULTITAG_SEED"):
        config["seed"] = (os.environ["MULTITAG_SEED"], "MULTITAG_SEED")
    args.unset = set()
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in config:
            setattr(args, key, _convert(key, default, *config[key]))
        else:
            setattr(args, key, default)
            args.unset.add(key)
    if getattr(args, "seed", 0) < 0:
        raise ValueError("seed must be >= 0")
    for key in ("model", "model_b"):
        if getattr(args, key, None) == "":
            raise ValueError(f"--{key.replace('_', '-')} must name a file")
    return args


def cmd_ingest(args):
    # the triples' codes go once condensed, before the features are read
    counts = dt.condense(dt.read_triples(args.triples))
    featured, X = dt.read_features(args.features)
    vocab = dt.select_vocab(counts, args.vocab_size)
    missing = sorted(set(counts.items) - set(featured))
    if missing:
        more = ", ..." if len(missing) > 5 else ""
        print(f"warning: {len(missing)} tagged item(s) have no features and "
              f"are excluded: {', '.join(missing[:5])}{more}", file=sys.stderr)
    order = sorted(range(len(featured)), key=featured.__getitem__)
    items = [featured[r] for r in order]
    matrix = dt.binarize(counts, vocab, args.min_positive, items=items)
    dt.write_ingested(args.out, matrix, dt.normalize_features(X[order]))
    return 0


def _events_from_triples(triples: dt.Triples, vocab, items_map):
    """The smoother's Events, one per (user, clip) in that order, with
    the triples' codes as user and clip ids; tracks (a clip's items_map
    entry, else the clip) are numbered in sorted order, so the same files
    always yield the same ids.  Returns the events and the (#users,
    #tracks, #clips) sizes."""
    n_users, n_clips = len(triples.users), len(triples.items)
    track_of = [items_map.get(clip, clip) for clip in triples.items]
    track_names = sorted(set(track_of))
    tracks = _positions(track_of, track_names)
    cols = _positions(triples.tags, vocab)[triples.codes[:, 2]]
    pairs, event = np.unique(triples.codes[:, 0] * n_clips
                             + triples.codes[:, 1], return_inverse=True)
    Y = np.zeros((len(pairs), len(vocab)))
    Y[event[cols >= 0], cols[cols >= 0]] = 1.0
    users, clips = np.divmod(pairs, n_clips)
    return (Events(np.stack([users, tracks[clips], clips], axis=1), Y),
            (n_users, len(track_names), n_clips))


def _read_events(args, vocab=None):
    """The smoother's (vocab, clip names, (events, sizes)) from --triples
    and --items, for the given vocab (a model's) or the triples' top
    --vocab-size tags.  `train` and `smooth` both build their ids here,
    so a model's V columns name the same users, tracks and clips."""
    if args.triples is None:
        raise ValueError("--kind smoother needs --triples")
    triples = dt.read_triples(args.triples)
    items_map = dt.read_items(args.items) if args.items else {}
    if vocab is None:
        vocab = dt.select_vocab(dt.condense(triples), args.vocab_size)
    return (vocab, triples.items,
            _events_from_triples(triples, vocab, items_map))


def cmd_train(args):
    kind = kinds.lookup(args.kind)
    for key, value in kind.defaults.items():
        if key in args.unset:
            setattr(args, key, value)
    # TrainConfig checks the estimator's name and the values' ranges
    cfg = TrainConfig(estimator=args.estimator, k=args.k, lr=args.lr,
                      beta=args.beta, epochs=args.epochs, seed=args.seed,
                      l1=args.l1)
    if args.hidden < 1:
        raise ValueError("--hidden must be >= 1")
    if args.beta != 0.0 and (args.kind, args.estimator) != ("drbm", "lbp"):
        raise ValueError("--beta needs --kind drbm --estimator lbp")
    # options that only some kinds read: each, set away from its built-in
    # default, is an error for a kind that does not read it
    for option in dict.fromkeys(chain.from_iterable(
            other.options for other in kinds.KIND_TABLE.values())):
        if (getattr(args, option) != args.defaults[option]
                and option not in kind.options):
            raise ValueError(f"--{option.replace('_', '-')} is not read by "
                             f"--kind {args.kind}")
    if args.kind == "smoother":  # the one kind that trains on --triples
        vocab, _, data = _read_events(args)
    else:
        matrix, X = dt.read_ingested(args.data)
        vocab = matrix.vocab
        data = (X, *kinds.targets(args.kind, matrix.cells))
    with open(args.model + ".jsonl", "w", encoding="utf-8") as records:
        model = kind.fit(*data, args.hidden, cfg, records)
    save_model(args.model, model, vocab)
    return 0


def cmd_smooth(args):
    model, vocab = load_model(args.model)
    if not isinstance(model, SmootherParams):
        raise ValueError("--model must point to a smoother model")
    vocab, clips, (events, sizes) = _read_events(args, vocab)
    if sizes != model.aux_sizes:
        raise ValueError("the triples and items give (users, tracks, clips) "
                         f"= {sizes}, the model {model.aux_sizes}")
    # every clip of the triples has an event, so this is one row per clip
    probs = smooth_tags(model, events)
    dt.write_rows(args.out, chain([["item", *vocab]], (
        [clip, *row] for clip, row in dt.rows_of(clips, probs))))
    return 0


def cmd_eval(args):
    matrix, X = dt.read_ingested(args.data)
    split = dt.make_folds(len(matrix.items), args.seed)
    reports = {}  # every model is checked and scored before --out exists
    for name, path, mismatch in (
            ("a", args.model, "model vocabulary does not match the data"),
            ("b", args.model_b, "comparison models use different folds or "
                                "vocabularies")):
        if path is not None:
            model, vocab = load_model(path)
            if vocab != matrix.vocab:
                raise ValueError(mismatch)
            scores = _model_scores(model, X)
            reports[name] = AucReport.from_folds(matrix.vocab, (
                (scores[fold], matrix.cells[fold]) for fold in split.folds))
    os.makedirs(args.out, exist_ok=True)
    for name, report in reports.items():
        write_auc_report(os.path.join(args.out, f"auc_{name}.tsv"), name,
                         report)
    write_summary(os.path.join(args.out, "summary.tsv"),
                  [(name, args.data, False, report.grand_mean())
                   for name, report in reports.items()])
    if "b" in reports:
        sig = significance_counts(reports["a"], reports["b"])
        dt.write_rows(os.path.join(args.out, "significance.tsv"),
                      [("a_better", sig.a_better), ("b_better", sig.b_better)])
    return 0


def cmd_oracle_check(args):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    checks = (
        ("exact gradient vs finite differences", check_exact_gradient),
        ("pseudo-likelihood gradient vs finite differences",
         check_pl_gradient),
        ("belief propagation exact on single-hidden-unit models",
         check_lbp_tree),
        ("independence identity at zero coupling", check_independence),
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

    def add(name, fn, **options):
        """A command whose options take values (default None until
        _merge)."""
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        for flag, default in options.items():
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            default=None,
                            type=type(default) if default is not None else str)
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
    add("oracle-check", cmd_oracle_check, seed=0, trials=5)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits after --help (0) and after its usage line (2);
        # return its status so an in-process caller is not aborted
        return exc.code
    try:
        _merge(args, args.defaults)
        return args.fn(args)
    except (ValueError, OSError, DivergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
