"""Passes and objective rows per default oracle search.

Draws `--size` channels from default_rng(SEED).dirichlet([1, 1, 1, 1]) and
runs one default `min_entropy_bruteforce` at mu = 0, mu_ml, mu_star, 0.5
and 1 of each. A pass is one call of the refinement's objective, which
evaluates one row per live start (the first call evaluates every start);
objective rows are `evaluations` less the grid cells. Prints one JSON line
with the median and quartiles of both per search, and how many searches hit
the pass cap. The numbers are measurements; nothing here is a gate.

    PYTHONPATH=src python bench/studies/search_cost.py [--size N] [--seed S]

The default size, 1,000 channels (5,000 searches), takes about two minutes
on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from paulimem import PauliChannel, SearchConfig, min_entropy_bruteforce, oracle, thresholds


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"q1": q1, "median": median, "q3": q3}


def run(size: int, seed: int) -> dict:
    cfg = SearchConfig()
    passes, rows, exceeded = [], [], 0
    objective = oracle._entropy_and_gradient

    def counted(x, superop):
        passes[-1] += 1
        return objective(x, superop)

    oracle._entropy_and_gradient = counted
    try:
        for q in np.random.default_rng(seed).dirichlet([1, 1, 1, 1], size):
            base = PauliChannel(tuple(q.tolist()), 0.0)
            th = thresholds(base)
            for mu in (0.0, th.mu_ml, th.mu_star, 0.5, 1.0):
                passes.append(0)
                res = min_entropy_bruteforce(base.with_mu(mu), cfg)
                rows.append(res.evaluations - cfg.grid_points_per_angle**6)
                exceeded += res.budget_exceeded
    finally:
        oracle._entropy_and_gradient = objective
    return {
        "study": "search_cost",
        "size": size,
        "seed": seed,
        "searches": len(passes),
        "passes": _quartiles(passes),
        "rows": _quartiles(rows),
        "budget_exceeded": exceeded,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=1000, help="channels, 5 searches each")
    parser.add_argument("--seed", type=int, default=2026, help="seed of the channel draw")
    args = parser.parse_args(argv)
    if args.size < 1:
        parser.error("--size must be positive")
    print(json.dumps(run(args.size, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
