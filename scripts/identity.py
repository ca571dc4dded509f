#!/usr/bin/env python3
"""Check that this tree's `multitag` writes the same outputs as a base
revision's.

    python3 scripts/identity.py --base HEAD^ [--expect-diff FILE ...]

The base revision's `src` is exported with `git archive` into a
temporary directory. The README's 200-item corpus is generated once,
with a second items file that puts three clips on each track, and one
fixed list of CLI commands (COMMANDS) and of this tree's experiment
scripts (SCRIPTS) runs on it twice: with the base's `src` and with this
tree's, as separate processes on this machine. So do the experiment
calls (EXPERIMENTS), which print the `repr` of their exact return value
where the scripts print 4 decimals. Every output file must be
byte-identical, except that each line of a `.jsonl` training record is
compared as JSON without its `seconds` field. Each run's exit code,
stdout and stderr count as an output too (`cli.txt`, `scripts.txt`,
`experiments.txt`).

`--expect-diff` names outputs (paths relative to the output directory,
such as `drbm-cd.model`) that are meant to change; each must differ.
Exits 0 when every named output differs and nothing else does, 1
otherwise.

No golden hashes are kept: openblas picks its kernels by CPU, so one
product can differ in its last bit between machines, and both runs of
one comparison must share a machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CORPUS = "../corpus"  # from each output directory
TRAIN = ("--epochs", "2", "--seed", "1")
SMOOTHER = ("--kind", "smoother", "--triples", f"{CORPUS}/triples.tsv",
            "--vocab-size", "5", "--hidden", "4", *TRAIN)
# (items file, l1, name): items.tsv gives every clip its own track,
# items-shared.tsv puts three clips on each track
SMOOTHERS = (("items.tsv", "0", "l1-0"), ("items.tsv", "0.01", "l1-0.01"),
             ("items-shared.tsv", "0.01", "shared-tracks"))

COMMANDS = [
    ("ingest", "--triples", f"{CORPUS}/triples.tsv",
     "--features", f"{CORPUS}/features.tsv", "--vocab-size", "5",
     "--min-positive", "1", "--out", "ingested"),
    *[("train", "--data", "ingested", "--kind", "drbm", "--estimator", est,
       "--hidden", "10", *TRAIN, "--model", f"drbm-{est}.model")
      for est in ("cd", "mfcd", "lbp", "pl")],
    ("train", "--data", "ingested", "--kind", "grbm", "--hidden", "10",
     *TRAIN, "--model", "grbm.model"),
    ("train", "--data", "ingested", "--kind", "mlp", "--hidden", "10",
     *TRAIN, "--model", "mlp.model"),
    ("train", "--data", "ingested", "--kind", "logreg", *TRAIN,
     "--model", "logreg.model"),
    # all-zero weights score every cell 0.5, so every AUC runs the tie
    # path and every defined one is exactly 0.5
    ("train", "--data", "ingested", "--kind", "logreg", "--epochs", "0",
     "--seed", "1", "--model", "logreg-untrained.model"),
    # a rate this high saturates more than half of the scores at exactly
    # 0.0 or 1.0, so most AUCs run the tie path beside untied scores
    ("train", "--data", "ingested", "--kind", "logreg", "--lr", "30", *TRAIN,
     "--model", "logreg-lr30.model"),
    *[("eval", "--data", "ingested", "--model", f"{name}.model",
       "--out", f"reports-{name}")
      for name in ("drbm-cd", "drbm-mfcd", "drbm-lbp", "drbm-pl", "grbm",
                   "mlp", "logreg", "logreg-untrained", "logreg-lr30")],
    ("eval", "--data", "ingested", "--model", "drbm-pl.model",
     "--model-b", "logreg.model", "--out", "reports-pl-vs-logreg"),
    *[cmd for items, l1, name in SMOOTHERS for cmd in (
        ("train", *SMOOTHER, "--items", f"{CORPUS}/{items}", "--l1", l1,
         "--model", f"smoother-{name}.model"),
        ("smooth", "--model", f"smoother-{name}.model",
         "--triples", f"{CORPUS}/triples.tsv", "--items",
         f"{CORPUS}/{items}", "--out", f"smoothed-{name}.tsv"))],
    ("oracle-check", "--trials", "2"),
]
# this tree's experiment scripts, at small sizes
SCRIPTS = [
    ("run_damping.py", "--items", "200"),
    ("run_label_dependency.py", "--seeds", "0", "1"),
    ("run_smoothing.py", "--seeds", "0", "1"),
    ("run_smoothing.py", "--seeds", "0", "--drop", "0.5"),
]
# the same experiments at the same sizes, their results printed exactly
EXPERIMENTS = [
    "damping_experiment(n_items=200)",
    "label_dependency_experiment(seeds=(0, 1))",
    "smoothing_experiment(seeds=(0, 1))",
]


def export(rev, dest):
    """REV's `src` directory, unpacked under the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def python(src, args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "MULTITAG_SEED"}
    env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def runs():
    """(log file, command as shown, python arguments) of every run."""
    for command in COMMANDS:
        yield ("cli.txt", f"multitag {' '.join(command)}",
               ["-m", "multitag.cli", *command])
    for script, *args in SCRIPTS:
        yield ("scripts.txt", f"scripts/{script} {' '.join(args)}",
               [str(REPO / "scripts" / script), *args])
    for call in EXPERIMENTS:
        yield ("experiments.txt", call,
               ["-c", "from multitag import experiments; "
                      f"print(repr(experiments.{call}))"])


def run_all(src, out):
    """Run COMMANDS, SCRIPTS and EXPERIMENTS with ``src`` in the new
    directory ``out``, and write their exit codes and output to
    ``out/cli.txt``, ``out/scripts.txt`` and ``out/experiments.txt``;
    None on success, else the first failing run and its stderr."""
    out.mkdir()
    found = python(src, ["-c", "import multitag; print(multitag.__file__)"],
                   out).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        return f"multitag imported from {found}, not from {src}"
    logs = {}
    for log, shown, args in runs():
        done = python(src, args, out)
        logs.setdefault(log, []).append(
            f"$ {shown}\nexit {done.returncode}\n{done.stdout}{done.stderr}")
        if done.returncode:
            return f"{shown}: exit {done.returncode}\n{done.stderr}"
    for log, lines in logs.items():
        (out / log).write_text("".join(lines), encoding="utf-8")
    return None


def records(path):
    """A .jsonl record's lines as JSON values without their seconds."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        value = json.loads(line)
        value.pop("seconds", None)
        lines.append(value)
    return lines


def differences(base, head):
    """(relative path, how it differs) for each output that differs, and
    the relative paths of all outputs compared."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    found = []
    for name in names:
        a, b = base / name, head / name
        if not (a.exists() and b.exists()):
            found.append((name, "only in " + ("base" if a.exists()
                                               else "this tree")))
        elif name.endswith(".jsonl"):
            if records(a) != records(b):
                found.append((name, "records differ beyond seconds"))
        elif a.read_bytes() != b.read_bytes():
            found.append((name, "bytes differ"))
    return found, names


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against (e.g. HEAD^)")
    ap.add_argument("--expect-diff", nargs="*", default=[], metavar="FILE",
                    help="outputs that are meant to change")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        done = python(REPO / "src", [str(REPO / "scripts/make_synthetic.py"),
                                     "--out", "corpus", "--items", "200"], tmp)
        if done.returncode:
            sys.exit(f"corpus generation failed:\n{done.stderr}")
        corpus = tmp / "corpus"
        items = [line.split("\t")[0] for line in
                 (corpus / "items.tsv").read_text("utf-8").splitlines()]
        (corpus / "items-shared.tsv").write_text("".join(
            f"{item}\ttrack{i // 3:03d}\n" for i, item in enumerate(items)),
            encoding="utf-8")
        sides = {"base": export(args.base, tmp / "base"),
                 "this tree": REPO / "src"}
        for (label, src), out in zip(sides.items(), ("out-base", "out-head")):
            failure = run_all(src, tmp / out)
            if failure:
                sys.exit(f"{label}: {failure}")
        found, compared = differences(tmp / "out-base", tmp / "out-head")
    unknown = sorted(set(args.expect_diff) - set(compared))
    if unknown:
        sys.exit(f"--expect-diff names no output: {', '.join(unknown)}")
    expected = [(n, how) for n, how in found if n in args.expect_diff]
    unexpected = [(n, how) for n, how in found if n not in args.expect_diff]
    for name, how in expected:
        print(f"expected: {name}: {how}")
    for name, how in unexpected:
        print(f"DIFFERS: {name}: {how}")
    print(f"{len(compared)} outputs of {len(COMMANDS)} commands, "
          f"{len(SCRIPTS)} scripts and {len(EXPERIMENTS)} experiment calls "
          f"compared against {args.base}: "
          f"{len(unexpected)} unexpected difference(s), {len(expected)} "
          f"expected")
    same = sorted(set(args.expect_diff) - {name for name, _ in expected})
    if same:
        print(f"expected a difference, found none: {', '.join(same)}",
              file=sys.stderr)
    return 1 if unexpected or same else 0


if __name__ == "__main__":
    sys.exit(main())
