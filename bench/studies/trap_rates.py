"""Trap rates of the Haar starts, and misses of the default oracle search.

Draws `--size` channels from default_rng(2026).dirichlet([1, 1, 1, 1]) and
takes each at mu_ml, (mu_ml + mu_star)/2, mu_star, 0 and 1: at the default
size, the 750-point set that sizing the search's random starts rests on. At
every point it runs one default `min_entropy_bruteforce` on each seed 0 to
`--seeds` - 1 and reads the final value of every refinement start. A Haar
start is trapped if it ends more than 1e-9 bits above the analytic minimum,
min(entropy_product, entropy_bell); a search misses if its result does, or
if it hits the pass cap. Prints one JSON line: the misses per seed, the
trapped Haar starts and their share, the points with any trapped start, and
the worst point with the share of its starts that were trapped. The numbers
are measurements; nothing here is a gate.

    PYTHONPATH=src python bench/studies/trap_rates.py [--size N] [--seeds K]

The default size, 150 channels on 4 seeds (3,000 searches), takes one to two
minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from paulimem import PauliChannel, SearchConfig, min_entropy_bruteforce, oracle, thresholds

SEED = 2026
TRAP_TOL = 1e-9


def _points(size: int):
    """(channel index, channel) at mu_ml, the midpoint, mu_star, 0 and 1 of each channel."""
    for i, q in enumerate(np.random.default_rng(SEED).dirichlet([1, 1, 1, 1], size)):
        base = PauliChannel(tuple(q.tolist()), 0.0)
        th = thresholds(base)
        for mu in (th.mu_ml, (th.mu_ml + th.mu_star) / 2.0, th.mu_star, 0.0, 1.0):
            yield i, base.with_mu(mu)


def run(size: int, seeds: int) -> dict:
    finals = []
    refine = oracle._refine

    def recorded(starts, superop):
        out = refine(starts, superop)
        finals.append(out[0])
        return out

    misses, trapped, starts, worst = [0] * seeds, 0, 0, None
    points_trapped = 0
    oracle._refine = recorded
    try:
        for i, ch in _points(size):
            point_trapped = point_starts = 0
            for seed in range(seeds):
                cfg = SearchConfig(seed=seed)
                res = min_entropy_bruteforce(ch, cfg)
                misses[seed] += res.gap_to_analytic > TRAP_TOL or res.budget_exceeded
                analytic = min(res.entropy_product, res.entropy_bell)
                haar = finals.pop()[-cfg.restarts :]
                point_trapped += int((haar > analytic + TRAP_TOL).sum())
                point_starts += len(haar)
            trapped += point_trapped
            starts += point_starts
            points_trapped += point_trapped > 0
            share = point_trapped / point_starts
            if worst is None or share > worst["share"]:
                worst = {"channel": i, "mu": ch.mu, "share": share}
    finally:
        oracle._refine = refine
    return {
        "study": "trap_rates",
        "size": size,
        "seeds": seeds,
        "points": size * 5,
        "misses": misses,
        "trapped_starts": trapped,
        "haar_starts": starts,
        "trapped_share": trapped / starts,
        "points_with_trapped_starts": points_trapped,
        "worst_point": worst,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=150, help="channels, 5 points each")
    parser.add_argument("--seeds", type=int, default=4, help="search seeds 0 to SEEDS - 1")
    args = parser.parse_args(argv)
    if args.size < 1 or args.seeds < 1:
        parser.error("--size and --seeds must be positive")
    print(json.dumps(run(args.size, args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
