#!/usr/bin/env python3
"""Print every estimate of a fixed input grid, one line per record.

Each line is ``case<TAB>method<TAB>options<TAB>outcome``: the outcome is the
``repr`` of ``EstimateResult.to_dict()``, or the error type and message (any
exception, so one that escapes the package's error types shows too), and
any numpy warnings raised on the way follow as ``| warn: ...``.  The records
come out in grid order whatever the number of workers; text that LAPACK
writes to a worker's C-level stdout would land between them (none does on
this grid).  Two runs on different revisions of the package are bitwise
identical exactly where their outputs agree line for line:

    PYTHONPATH=src python3 tools/estimate_digest.py > before.txt
    (change the code)
    PYTHONPATH=src python3 tools/estimate_digest.py > after.txt
    diff before.txt after.txt

The grid: fGn at H = 0.3, 0.5, 0.7, 0.8 with three seeds at N = 3e4; the six
i.i.d. families at N = 1e4; fGn at N = 1e5 and at N = 3e5, the one case long
enough for dfa and rs to spread their window sizes over threads
(timedomain._map_scales) and where am and av take their block means as
differences of the longest running total; fGn at N = 1000, where lssd and
lsv fit isqrt(N) = 31 block sizes and am, av, dfa and rs raise
InsufficientDataError below w^2 samples; the edge cases step, ramp, random
walk, constant, arange % 7, fGn x 1e200 and its twin on the underflow side,
fGn x 2^-1000, and a length of 2503, which leaves the partition search one
window size at the default window; and i.i.d.
normal series at FLOOR_LENGTHS, one below and at each method's minimum
length (ghe 21, tta 41, awc/vvl 64, hm 65, pm/lw/lssd/lsv 100).
Every case runs through all 13 methods under each option set of OPTIONS,
one task per case and method on a process pool with a worker per usable CPU.
On a 2-vCPU Xeon VM the pool of two took 13 s against 20 s serially (one
CPU); the slowest task is dfa on the N = 3e5 case, about 5 s with norm=1,
where it visits 41 of the partition's 90 window sizes.
"""

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from hurstkit import METHODS, FgnSpec, estimate_series, gen_fgn, gen_iid
from hurstkit.generators import DISTRIBUTIONS
from hurstkit._cpus import usable_cpus

OPTIONS = (
    {},
    {"norm": 1},
    {"window": 20},
    {"corrected": True},
    {"q_order": 2.0},
    {"cutoff": 0.2},
)

FLOOR_LENGTHS = (20, 21, 40, 41, 63, 64, 65, 99, 100)


def cases():
    for hurst in (0.3, 0.5, 0.7, 0.8):
        for seed in (1, 2, 3):
            yield f"fgn-h{hurst}-s{seed}-n30000", gen_fgn(FgnSpec(hurst, 30000, seed))
    for name in DISTRIBUTIONS:
        yield f"iid-{name}-n10000", gen_iid(name, 10000, 7)
    yield "fgn-h0.7-s4-n100000", gen_fgn(FgnSpec(0.7, 100000, 4))
    yield "fgn-h0.7-s5-n300000", gen_fgn(FgnSpec(0.7, 300000, 5))
    yield "fgn-h0.7-s6-n1000", gen_fgn(FgnSpec(0.7, 1000, 6))
    yield "step", np.r_[np.zeros(5000), np.ones(5000)]
    yield "ramp", np.arange(10000, dtype=float)
    yield "walk", np.cumsum(gen_iid("normal", 10000, 5))
    yield "constant", np.full(10000, 1.0)
    yield "mod7", (np.arange(10000) % 7).astype(float)
    yield "fgn-x1e200", 1e200 * gen_fgn(FgnSpec(0.7, 30000, 42))
    yield "fgn-x2^-1000", 2.0**-1000 * gen_fgn(FgnSpec(0.7, 30000, 42))
    yield "fgn-n2503", gen_fgn(FgnSpec(0.7, 2503, 42))
    for n in FLOOR_LENGTHS:
        yield f"iid-normal-n{n}", gen_iid("normal", n, 3)


def outcome(x, method, options):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = repr(estimate_series(x, method, **options).to_dict())
        except Exception as exc:  # noqa: BLE001 -- a leaked error is a record too
            text = f"{type(exc).__name__}: {exc}"
    for warning in caught:
        text += f" | warn: {warning.category.__name__}: {warning.message}"
    return text


def records(case, x, method):
    return [f"{case}\t{method}\t{options}\t{outcome(x, method, options)}"
            for options in OPTIONS]


def main():
    tasks = [(case, x, method) for case, x in cases() for method in METHODS]
    # the longest series start first, so their slow tasks do not start last;
    # the records still print in grid order
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1].size)
    with ProcessPoolExecutor(max_workers=usable_cpus(),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {i: pool.submit(records, *tasks[i]) for i in order}
        for i in range(len(tasks)):
            print("\n".join(futures[i].result()), flush=True)


if __name__ == "__main__":
    main()
