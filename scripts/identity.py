#!/usr/bin/env python3
"""Check that this tree's `multitag` writes the same outputs as a base
revision's.

    python3 scripts/identity.py --base HEAD^ [--expect-diff FILE ...]

The base revision's `src` is exported with `git archive` into a
temporary directory. The README's 200-item corpus is generated once,
and one fixed list of CLI commands (COMMANDS) runs on it twice: with the
base's `src` and with this tree's, as separate processes on this machine.
Every output file must be byte-identical, except that each line of a
`.jsonl` training record is compared as JSON without its `seconds`
field. Each command's exit code, stdout and stderr count as an output
too (`cli.txt`).

`--expect-diff` names outputs (paths relative to the output directory,
such as `drbm-cd.model`) that are meant to change; they may differ.
Exits 0 when nothing else differs, 1 otherwise.

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
            "--items", f"{CORPUS}/items.tsv", "--vocab-size", "5",
            "--hidden", "4", *TRAIN)

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
    *[("eval", "--data", "ingested", "--model", f"{name}.model",
       "--out", f"reports-{name}")
      for name in ("drbm-cd", "drbm-mfcd", "drbm-lbp", "drbm-pl", "grbm",
                   "mlp", "logreg")],
    ("eval", "--data", "ingested", "--model", "drbm-pl.model",
     "--model-b", "logreg.model", "--out", "reports-pl-vs-logreg"),
    *[cmd for l1 in ("0", "0.01") for cmd in (
        ("train", *SMOOTHER, "--l1", l1, "--model", f"smoother-l1-{l1}.model"),
        ("smooth", "--model", f"smoother-l1-{l1}.model",
         "--triples", f"{CORPUS}/triples.tsv", "--items",
         f"{CORPUS}/items.tsv", "--out", f"smoothed-l1-{l1}.tsv"))],
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


def run_all(src, out):
    """Run COMMANDS with ``src`` in the new directory ``out``, and write
    their exit codes and output to ``out/cli.txt``; None on success, else
    the first failing command and its stderr."""
    out.mkdir()
    found = python(src, ["-c", "import multitag; print(multitag.__file__)"],
                   out).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        return f"multitag imported from {found}, not from {src}"
    log = []
    for command in COMMANDS:
        done = python(src, ["-m", "multitag.cli", *command], out)
        log.append(f"$ multitag {' '.join(command)}\nexit {done.returncode}\n"
                   f"{done.stdout}{done.stderr}")
        if done.returncode:
            return f"multitag {' '.join(command)}: exit " \
                   f"{done.returncode}\n{done.stderr}"
    (out / "cli.txt").write_text("".join(log), encoding="utf-8")
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
    print(f"{len(compared)} outputs of {len(COMMANDS)} commands compared "
          f"against {args.base}: {len(unexpected)} unexpected "
          f"difference(s), {len(expected)} expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
