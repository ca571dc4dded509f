#!/usr/bin/env python3
"""Benchmark for multitag.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

A run makes the workload's inputs from the seed, repeats whole rounds of
its operations until ``--seconds`` have passed (at least one round),
checks every round's outputs, and prints one metric per line followed by
a JSON object on the last line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics, writing the spans to ``perfbench/_run/traces``.  ``--workload all`` runs every workload in
its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_run"
NAMES = ("desk", "corpus-20k", "smoother-10k", "kernels")
SETUP_REPEATS = 3
END_TO_END = {"setup_s": "s", "round_s": "s", "train_s": "s",
              "score_s": "s", "peak_rss_mb": "MB"}


def unit(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    return "count"


MODULES = ("numpy", "multitag", "multitag.cli", "multitag.data",
           "multitag.estimators", "multitag.inference", "multitag.modelio",
           "multitag.oracle", "multitag.smoother", "multitag.synthetic")
# Prints the seconds a fresh interpreter takes to import MODULES.
TIME_IMPORTS = (f"import importlib, sys, time; t0 = time.perf_counter(); "
                f"sys.path.insert(0, {str(SRC)!r}); "
                f"[importlib.import_module(m) for m in {MODULES!r}]; "
                f"print(time.perf_counter() - t0)")


def load_program():
    """Import numpy and multitag from this checkout's ``src``, with one
    BLAS thread."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        for module in MODULES:
            importlib.import_module(module)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import multitag from {SRC}: {exc}")
    multitag = sys.modules["multitag"]
    if Path(multitag.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: multitag was imported from {multitag.__file__}, "
                         f"not from {SRC}")


def import_seconds():
    """Seconds a fresh interpreter takes to import numpy and multitag, at
    the reference speed of the core it shares with this process.  Only
    the loops before and after count: one run while the interpreter does
    would share the core with it and read slow."""
    import speed

    before = speed.calibration_loop()
    proc = subprocess.run([sys.executable, "-c", TIME_IMPORTS],
                          capture_output=True, text=True, check=True)
    after = speed.calibration_loop()
    return float(proc.stdout) * speed.REFERENCE_S * 2 / (before + after)


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, report lines)."""
    import speed

    root = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        with speed.Sampler() as sampler:
            return _measure(workload, seed, seconds, trace, root, sampler)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _measure(workload, seed, seconds, trace, root, sampler):
    import speed
    import tracing
    from workloads import SCORE_STAGES, TRAIN_STAGES, Run

    setup_times, inputs = [], None
    for r in range(1 if trace else SETUP_REPEATS):
        imports = 0.0 if trace else import_seconds()
        before = speed.calibration_loop()
        t0 = time.perf_counter()
        made = workload.setup(seed, str(root / f"setup{r}"))
        t1 = time.perf_counter()
        setup_times.append(imports + sampler.at_reference(
            t0, t1, before, speed.calibration_loop()))
        if inputs is None:
            inputs = made

    run = Run(sampler)
    rounds = []   # (output dir, state, step seconds, wall seconds, tracer)
    t_start = time.perf_counter()
    # Another round only if it should end within the budget.  A traced
    # run alternates untraced and traced rounds, starting untraced.
    while len(rounds) < 1 + trace or (
            time.perf_counter() - t_start + rounds[-1][3] <= seconds):
        out = root / f"round{len(rounds)}"
        out.mkdir(parents=True)
        tracer = run.tracer = tracing.Tracer() if trace and len(rounds) % 2 \
            else None
        t0 = time.perf_counter()
        try:
            with tracing.Patch(tracer) if tracer else contextlib.nullcontext():
                state = workload.round(run, inputs, str(out))
        except Exception:  # the round is lost, the run goes on
            traceback.print_exc()
            run.count(False)
            break
        rounds.append((str(out), state, run.end_round(),
                       time.perf_counter() - t0, tracer))
    run.tracer = None
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = bool(rounds)
    for out, state, *_ in rounds:
        try:
            results = workload.checks(inputs, out, state)
        except Exception:
            traceback.print_exc()
            results = [("checks of " + out, (False, "raised"))]
        for name, (ok, detail) in results:
            run.count(ok)
            correct &= ok
            if not ok:
                print(f"FAIL {name}: {detail}", file=sys.stderr)
    plain = [r for r in rounds if r[4] is None]
    traced = [r for r in rounds if r[4] is not None]
    if not plain or (trace and not traced):
        raise SystemExit("error: no round completed")

    def seconds_of(r):
        return [t for _, _, t in r[2]]

    lines = []
    if trace:
        per_round = [tracing.layer_metrics(
            r[4].spans, seconds_of(r),
            sum(f.stat().st_size for f in Path(r[0]).glob("*.model")))
            for r in traced]
        # median_low keeps counts whole: each is a value some round had
        metrics = {k: statistics.median_low(m[k] for m in per_round)
                   for k in per_round[0]}
        # the first round also pays for cold caches, so it is left out
        # when there are other untraced rounds
        metrics["trace_overhead_s"] = (
            statistics.median(sum(seconds_of(r)) for r in traced)
            - statistics.median(sum(seconds_of(r)) for r in plain[1:] or plain))
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        path = WORK / "traces" / f"{workload.name}-seed{seed}.tsv"
        tracing.write_spans(path, [r[4].spans for r in traced])
        lines.append(f"spans written to {path}")
    else:
        stages = speed.typical_round([r[2] for r in rounds])
        lines += [f"{name} {value:.6g} s" for name, value in stages.items()]
        wall = statistics.median(r[3] for r in rounds)
        lines.append(f"round_wall_s {wall:.6g} s")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "round_s": sum(stages.values()),
            "train_s": sum(stages.get(s, 0.0) for s in TRAIN_STAGES),
            "score_s": sum(stages.get(s, 0.0) for s in SCORE_STAGES),
            "peak_rss_mb": peak_mb,
        }
    lines.append(f"rounds {len(rounds)}")
    lines += [f"{k} {v:.6g} {unit(k) if trace else END_TO_END[k]}"
              for k, v in metrics.items()]
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v,
                              "unit": unit(k) if trace else END_TO_END[k]}
                          for k, v in metrics.items()}}
    return result, lines


def run_all(args):
    """Every workload in its own process, so peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        for line in lines[:-1]:
            print(f"{name} {line}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    load_program()
    from workloads import FULL

    # One core for the run, its threads and the interpreters it starts, so
    # the speed it measures is the speed of the core doing the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    result, lines = run_workload(FULL[args.workload], args.seed, args.seconds,
                                 args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
