#!/usr/bin/env python3
"""Every window or block size against the capped set, on the same paths.

Two rules leave out sizes the paper fits.  At most
timedomain._MAX_FIT_SIZES window sizes, and at most
timedomain._SIZES_PER_DECADE per decade of window size, enter a dfa or rs
fit (timedomain._fit_sizes); a partition past either bound visits the
divisors nearest a log-even grid.  lssd and lsv fit the block sizes
m = 1..min(N//10, isqrt(N)) (aggregation._max_block_size), not every m to
N//10.  This script measures what each rule costs in accuracy.  Each fGn
path is estimated twice per method, each time on a fresh
partition.PreparedSeries: once with the rule lifted (both window-size
bounds at once), so every divisor of n_opt or every block size to N//10 is
fitted as the paper prescribes, and once as the package runs.  One TSV row
per N, w, H and method gives, for both arms, the estimates that failed with
a HurstkitError and the bias +- SE, sd and rmse of the others, the sd ratio
capped / every, and the paired difference capped - every +- SE over the
paths both arms estimate.  lssd and lsv have no window: their w is "-".

The rule, checked in the last column of every row: sd(capped) <= 1.05
sd(every), |difference| <= 0.001, and no more failures than the every-size
arm.  Its first two parts were declared before the window-size cap was
adopted, all three before the block-size cap and the window-size density.
A cap of 32 window sizes failed its sd part in 6 of the 8 rows at N = 1e6
(up to 1.104); the cap of 48 with 19 sizes per decade holds the rule in
every row, and so does the block-size cap.  The number of rows that fail
goes to stderr.

The grid: dfa and rs at N = 1e4 and 3e4 with w = 50 (seeds 5000-5199, where
the density binds: 14 and 30 window sizes), at N = 1e5 and 3e5 with w = 50
(seeds 5000-5099), at N = 1e6 with w = 50 (seeds 5000-5039) and at N = 3e4
with w = 10 (seeds 5000-5099, 58 window sizes); lssd and lsv at N = 1e3 and
3e4 (seeds 5000-5399) and at N = 1e5 and 1e6 (seeds 5000-5099); H = 0.3,
0.5, 0.7 and 0.9, with 0.85 in place of 0.9 at N = 1e3, where H = 0.9 has
no circulant embedding.  The output depends on nothing but the grid, so the
committed table is reproduced byte for byte.  Run from the repository root:

    PYTHONPATH=src python3 tools/scale_ablation.py > tools/scale_ablation.tsv

With the whole grid it takes 14-15 minutes on a 2-vCPU Xeon VM.
`--seeds K` keeps the first K seeds of each cell and `--lengths N ...` the
cells of those lengths, for a quick run.
"""

import argparse
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np

from hurstkit import FgnSpec, HurstkitError, estimate_series, gen_fgn
from hurstkit import aggregation, timedomain
from hurstkit._cpus import usable_cpus
from hurstkit.partition import PreparedSeries, search_opt_seq_len

H_VALUES = (0.3, 0.5, 0.7, 0.9)
# (methods, N, w, number of seeds from FIRST_SEED, H values)
CELLS = ((("dfa", "rs"), 10_000, 50, 200, H_VALUES),
         (("dfa", "rs"), 30_000, 50, 200, H_VALUES),
         (("dfa", "rs"), 100_000, 50, 100, H_VALUES),
         (("dfa", "rs"), 300_000, 50, 100, H_VALUES),
         (("dfa", "rs"), 1_000_000, 50, 40, H_VALUES),
         (("dfa", "rs"), 30_000, 10, 100, H_VALUES),
         (("lssd", "lsv"), 1_000, None, 400, (0.3, 0.5, 0.7, 0.85)),
         (("lssd", "lsv"), 30_000, None, 400, H_VALUES),
         (("lssd", "lsv"), 100_000, None, 100, H_VALUES),
         (("lssd", "lsv"), 1_000_000, None, 100, H_VALUES))
FIRST_SEED = 5000

MAX_SD_RATIO = 1.05
MAX_DIFFERENCE = 0.001

COLUMNS = ("n", "w", "hurst", "method", "sizes_every", "sizes_capped",
           "paths", "failures_every", "failures_capped",
           "bias_every", "se_every", "sd_every", "rmse_every",
           "bias_capped", "se_capped", "sd_capped", "rmse_capped",
           "sd_ratio", "difference", "difference_se", "rule")


def lift(method):
    """(module, {name: value}) that fits every size the paper fits."""
    if method in ("dfa", "rs"):
        return timedomain, {"_MAX_FIT_SIZES": sys.maxsize,
                            "_SIZES_PER_DECADE": sys.maxsize}
    return aggregation, {"_max_block_size": lambda n: n // 10}


def sizes(method, n, w):
    """Number of sizes (every, capped) the method fits at N = n."""
    if method in ("dfa", "rs"):
        _, factors = search_opt_seq_len(n, w)
        return len(factors), len(timedomain._fit_sizes(factors))
    return n // 10, aggregation._max_block_size(n)


def estimate(x, method, w):
    """H, or nan when the estimator raises a HurstkitError."""
    try:
        return estimate_series(x, method, window=w).hurst
    except HurstkitError:
        return float("nan")


def path_estimates(methods, n, w, hurst, seed):
    """{(method, arm): H or nan} of one path, arm "every" or "capped"."""
    path = gen_fgn(FgnSpec(hurst, n, seed))
    out = {}
    for method in methods:
        module, every = lift(method)
        out[method, "capped"] = estimate(PreparedSeries(path), method, w)
        with mock.patch.multiple(module, **every):
            out[method, "every"] = estimate(PreparedSeries(path), method, w)
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
    failed_every = int(np.isnan(every).sum())
    failed_capped = int(np.isnan(capped).sum())
    stats_every = summary(every[~np.isnan(every)], hurst)
    stats_capped = summary(capped[~np.isnan(capped)], hurst)
    ratio = stats_capped[2] / stats_every[2]
    diff = capped - every
    diff = diff[~np.isnan(diff)]
    mean_diff = diff.mean()
    held = (ratio <= MAX_SD_RATIO and abs(mean_diff) <= MAX_DIFFERENCE
            and failed_capped <= failed_every)
    fields = [n, "-" if w is None else w, hurst, method, *sizes(method, n, w),
              len(runs), failed_every, failed_capped]
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
    for methods, n, w, count, h_values in CELLS:
        if args.lengths is not None and n not in args.lengths:
            continue
        seeds = range(FIRST_SEED, FIRST_SEED + min(count, args.seeds or count))
        groups += [(methods, n, w, hurst, seeds) for hurst in h_values]
    tasks = [(methods, n, w, hurst, seed)
             for methods, n, w, hurst, seeds in groups for seed in seeds]
    with ProcessPoolExecutor(max_workers=usable_cpus(),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        results = iter(pool.map(path_estimates, *zip(*tasks)))
    print("\t".join(COLUMNS))
    failed = rows = 0
    for methods, n, w, hurst, seeds in groups:
        runs = [next(results) for _ in seeds]
        for method in methods:
            line = row(n, w, hurst, method, runs)
            failed += line.endswith("FAILED")
            rows += 1
            print(line)
    print(f"{failed} of {rows} rows fail the rule", file=sys.stderr)


if __name__ == "__main__":
    main()
