#!/usr/bin/env python3
"""dfa and rs on every window size against the capped set, on the same paths.

At most timedomain._MAX_FIT_SIZES window sizes enter a dfa or rs fit
(timedomain._fit_sizes); a longer partition visits the divisors nearest a
log-even grid.  This script measures what that costs in accuracy.  Each
fGn path is wrapped in one partition.PreparedSeries and estimated twice per
method: once with the cap lifted, so every divisor of n_opt is fitted as the
paper's optimal partition prescribes, and once as the package runs.  One
TSV row per N, w, H and method gives, for both arms, the bias +- SE, sd and
rmse of the estimates, the sd ratio capped / every, and the paired
difference capped - every +- SE.

The rule, declared before the cap was adopted and checked in the last
column of every row: sd(capped) <= 1.05 sd(every) and |difference| <= 0.001.
A cap of 32 failed its sd half in 6 of the 8 rows at N = 1e6 (up to 1.104);
the cap of 48 holds it in every row.  The number of rows that fail goes to
stderr.

The grid: N = 1e5 and 3e5 at w = 50 (seeds 5000-5099), N = 1e6 at w = 50
(seeds 5000-5039) and N = 3e4 at w = 10 (seeds 5000-5099, 58 window sizes);
H = 0.3, 0.5, 0.7 and 0.9.  The output depends on nothing but the grid, so
the committed table is reproduced byte for byte.  Run from the repository
root:

    PYTHONPATH=src python3 tools/scale_ablation.py > tools/scale_ablation.tsv

With the whole grid it takes about 11 minutes on a 2-vCPU Xeon VM.
`--seeds K` keeps the first K seeds of each cell and `--lengths N ...` the
cells of those lengths, for a quick run.
"""

import argparse
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from hurstkit import FgnSpec, estimate_series, gen_fgn, timedomain
from hurstkit._cpus import usable_cpus
from hurstkit.partition import PreparedSeries, search_opt_seq_len

# (N, w, number of seeds from FIRST_SEED)
CELLS = ((100_000, 50, 100), (300_000, 50, 100), (1_000_000, 50, 40),
         (30_000, 10, 100))
H_VALUES = (0.3, 0.5, 0.7, 0.9)
METHODS = ("dfa", "rs")
FIRST_SEED = 5000

MAX_SD_RATIO = 1.05
MAX_DIFFERENCE = 0.001

COLUMNS = ("n", "w", "hurst", "method", "sizes_every", "sizes_capped",
           "paths", "bias_every", "se_every", "sd_every", "rmse_every",
           "bias_capped", "se_capped", "sd_capped", "rmse_capped",
           "sd_ratio", "difference", "difference_se", "rule")


def path_estimates(n, w, hurst, seed):
    """{(method, arm): H} of one path, arm "every" or "capped"."""
    x = PreparedSeries(gen_fgn(FgnSpec(hurst, n, seed)))
    cap = timedomain._MAX_FIT_SIZES
    out = {}
    for arm, limit in (("every", sys.maxsize), ("capped", cap)):
        timedomain._MAX_FIT_SIZES = limit
        try:
            for method in METHODS:
                out[method, arm] = estimate_series(x, method, window=w).hurst
        finally:
            timedomain._MAX_FIT_SIZES = cap
    return out


def summary(estimates, hurst):
    """bias, its SE, sd and rmse of an array of estimates of `hurst`."""
    sd = estimates.std(ddof=1)
    error = estimates - hurst
    return (error.mean(), sd / np.sqrt(estimates.size), sd,
            np.sqrt(np.mean(error**2)))


def row(n, w, hurst, method, runs):
    every = np.array([run[method, "every"] for run in runs])
    capped = np.array([run[method, "capped"] for run in runs])
    _, factors = search_opt_seq_len(n, w)
    stats_every = summary(every, hurst)
    stats_capped = summary(capped, hurst)
    ratio = stats_capped[2] / stats_every[2]
    diff = capped - every
    mean_diff = diff.mean()
    held = ratio <= MAX_SD_RATIO and abs(mean_diff) <= MAX_DIFFERENCE
    fields = [n, w, hurst, method, len(factors),
              len(timedomain._fit_sizes(factors)), len(runs)]
    fields += [f"{v:.5f}" for v in stats_every + stats_capped]
    fields += [f"{ratio:.4f}", f"{mean_diff:.6f}",
               f"{diff.std(ddof=1) / np.sqrt(diff.size):.6f}",
               "held" if held else "FAILED"]
    return "\t".join(map(str, fields))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=None,
                        help="first K seeds of each cell (default: all)")
    parser.add_argument("--lengths", type=int, nargs="+", default=None,
                        help="only the cells of these N (default: all)")
    args = parser.parse_args(argv)

    groups = []
    for n, w, count in CELLS:
        if args.lengths is not None and n not in args.lengths:
            continue
        seeds = range(FIRST_SEED, FIRST_SEED + min(count, args.seeds or count))
        groups += [(n, w, hurst, seeds) for hurst in H_VALUES]
    tasks = [(n, w, hurst, seed) for n, w, hurst, seeds in groups
             for seed in seeds]
    with ProcessPoolExecutor(max_workers=usable_cpus(),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        results = iter(pool.map(path_estimates, *zip(*tasks)))
    print("\t".join(COLUMNS))
    failed = 0
    for n, w, hurst, seeds in groups:
        runs = [next(results) for _ in seeds]
        for method in METHODS:
            line = row(n, w, hurst, method, runs)
            failed += line.endswith("FAILED")
            print(line)
    print(f"{failed} of {2 * len(groups)} rows fail the rule",
          file=sys.stderr)


if __name__ == "__main__":
    main()
