#!/usr/bin/env python3
"""Per-method cost of one short path: Python-level calls and wall time.

Each fGn path (N = 3e4, seeds 42, 43, ... at each H of 0.3, 0.5 and 0.7)
is wrapped in one partition.PreparedSeries and run through the thirteen
methods in METHODS order, as bench.run_fgn_suite runs it; so am pays for the partition and the profile that av, dfa and rs then read, and
lssd for the block-sum profile lsv reads.  For every method and H the
script prints

* calls: cProfile's total_calls for the method, averaged over the paths.
  It counts calls of Python functions and of builtins such as
  np.add.reduce, not ufunc calls made with operators or as np.sqrt(a): the
  per-call overhead a short path pays for.
* ms: the lower quartile of the method's wall time per path, over every
  path and repeat, each repeat on a new PreparedSeries and without the
  profiler.

Run from the repository root:

    PYTHONPATH=src python3 tools/path_costs.py [--paths 10] [--repeats 5]

With the defaults it takes about 7 s on a 2-vCPU Xeon VM.
"""

import argparse
import cProfile
import platform
import pstats
import time

import numpy as np

from hurstkit import METHODS, FgnSpec, estimate_series, gen_fgn
from hurstkit.partition import PreparedSeries

LENGTH = 30000
H_VALUES = (0.3, 0.5, 0.7)
FIRST_SEED = 42


def path_calls(path):
    """{method: cProfile total_calls} over one pass of the methods."""
    prepared = PreparedSeries(path)
    calls = {}
    for method in METHODS:
        profile = cProfile.Profile()
        profile.enable()
        estimate_series(prepared, method)
        profile.disable()
        calls[method] = pstats.Stats(profile).total_calls
    return calls


def path_times(path):
    """{method: seconds} over one pass of the methods, unprofiled."""
    prepared = PreparedSeries(path)
    times = {}
    for method in METHODS:
        start = time.perf_counter()
        estimate_series(prepared, method)
        times[method] = time.perf_counter() - start
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--paths", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    seeds = range(FIRST_SEED, FIRST_SEED + args.paths)
    calls = {}
    times = {}
    for hurst in H_VALUES:
        paths = [gen_fgn(FgnSpec(hurst, LENGTH, s)) for s in seeds]
        runs = [path_calls(path) for path in paths]
        calls[hurst] = {m: np.mean([run[m] for run in runs]) for m in METHODS}
        runs = [path_times(p) for _ in range(args.repeats) for p in paths]
        times[hurst] = {m: np.percentile([run[m] for run in runs], 25) * 1e3
                        for m in METHODS}

    print(f"# N={LENGTH}, seeds {seeds.start}-{seeds.stop - 1}, "
          f"{args.repeats} timed repeats; calls per path (mean), ms per path "
          f"(lower quartile); Python {platform.python_version()}, "
          f"numpy {np.__version__}, {platform.machine()}")
    print("method", *(f"calls@{h}\tms@{h}" for h in H_VALUES), sep="\t")
    for method in METHODS + ("total",):
        cells = []
        for hurst in H_VALUES:
            if method == "total":
                c, t = sum(calls[hurst].values()), sum(times[hurst].values())
            else:
                c, t = calls[hurst][method], times[hurst][method]
            cells.append(f"{c:.1f}\t{t:.3f}")
        print(method, *cells, sep="\t")


if __name__ == "__main__":
    main()
