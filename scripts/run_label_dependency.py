#!/usr/bin/env python3
"""Compare the conditional RBM against per-tag logistic regression on a
corpus where one tag is a noisy copy of another and only the first
depends on the features."""

import argparse

import numpy as np

from multitag.experiments import label_dependency_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = ap.parse_args()

    try:
        results = label_dependency_experiment(seeds=tuple(args.seeds))
    except ValueError as e:  # a negative seed
        ap.error(str(e))
    for seed, (drbm, logreg) in zip(args.seeds, results):
        marker = "<" if drbm <= logreg else ">"
        print(f"seed {seed}  drbm {drbm:.4f} {marker} logreg {logreg:.4f}")
    drbm_mean = float(np.mean([r[0] for r in results]))
    logreg_mean = float(np.mean([r[1] for r in results]))
    print(f"means  drbm {drbm_mean:.4f}  logreg {logreg_mean:.4f}")


if __name__ == "__main__":
    main()
