#!/usr/bin/env python3
"""Train with belief-propagation gradients at several damping factors
and report the grand-mean test AUC for each."""

import argparse

from multitag.experiments import damping_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--items", type=int, default=500)
    ap.add_argument("--betas", type=float, nargs="+", default=[0.0, 0.5, 0.9])
    args = ap.parse_args()

    try:
        results = damping_experiment(seed=args.seed, n_items=args.items,
                                     betas=tuple(args.betas))
    except ValueError as e:  # a bad beta, seed or item count
        ap.error(str(e))
    for beta, value in sorted(results.items()):
        print(f"beta {beta:.2f}  grand-mean AUC {value:.4f}")
    spread = max(results.values()) - min(results.values())
    print(f"spread {spread:.4f}")


if __name__ == "__main__":
    main()
