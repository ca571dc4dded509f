#!/usr/bin/env python3
"""Measure whether training logistic regression on smoothed tag targets
beats training on the raw under-reported tags."""

import argparse

import numpy as np

from multitag.experiments import smoothing_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--drop", type=float, default=0.8,
                    help="probability a co-occurring tag goes unreported")
    args = ap.parse_args()

    try:
        results = smoothing_experiment(seeds=tuple(args.seeds),
                                       drop=args.drop)
    except ValueError as e:  # a drop rate outside [0, 1]
        ap.error(str(e))
    for seed, (smoothed, raw) in zip(args.seeds, results):
        print(f"seed {seed}  smoothed {smoothed:.4f}  raw {raw:.4f}")
    print(f"means  smoothed {np.mean([r[0] for r in results]):.4f}"
          f"  raw {np.mean([r[1] for r in results]):.4f}")


if __name__ == "__main__":
    main()
