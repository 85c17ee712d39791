"""Command-line front end.

Three subcommands:

* ``estimate``  — run one estimator on a text file of samples, parsed once
  per content (``_cache``)
* ``gen-fgn``   — write a reproducible fractional-noise path
* ``bench``     — run the white-noise or fractional-noise suite into TSVs

Exit codes: 0 success, 1 argument/usage problems, 2 data or convergence
problems (unparsable series, degenerate input, non-convergence).
"""

import argparse
import json
import os
import sys

from . import harness
from .aggregation import DEFAULT_LSV_WEIGHT_P, DEFAULT_WEIGHT_P
from .bench import DEFAULT_H_GRID, run_fgn_suite, run_random_suite
from .errors import ArgumentError, DataError
from .generators import FgnSpec
from .harness import DEFAULTS, write_fgn
from .results import METHODS


def parse_h_grid(text):
    """Parse '0.3:0.8:0.05' (inclusive, rounded steps) or a single '0.55'."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ArgumentError(
            f"bad grid {text!r}; expected START:STOP:STEP or a single value"
        ) from None
    if step <= 0 or stop < start:
        raise ArgumentError(f"bad grid {text!r}; need STOP >= START and STEP > 0")
    count = int((stop - start) / step + 1e-9)
    return [round(start + i * step, 10) for i in range(count + 1)]


def _add_estimator_flags(sub):
    d = DEFAULTS
    sub.add_argument("--window", type=int, default=None,
                     help=f"partition window w (default {d['window']})")
    sub.add_argument("--norm", type=int, choices=(1, 2), default=None,
                     help="regression norm: 1 exact LAD, 2 least squares")
    sub.add_argument("--q-order", dest="q_order", type=float, default=None,
                     help=f"moment order for ghe (default {d['q_order']:g})")
    sub.add_argument("--cutoff", type=float, default=None,
                     help=f"periodogram frequency cutoff (default {d['cutoff']:g})")
    sub.add_argument("--weight-p", dest="weight_p", type=float, default=None,
                     help=f"block-sum fit weight (default: {DEFAULT_WEIGHT_P:g} "
                          f"lssd, {DEFAULT_LSV_WEIGHT_P:g} lsv)")
    sub.add_argument("--penalty-q", dest="penalty_q", type=float, default=None,
                     help=f"penalty exponent for lssd/lsv (default {d['penalty_q']:g})")
    sub.add_argument("--epsilon", type=float, default=None,
                     help=f"solver precision for lssd/lsv (default {d['epsilon']:g})")
    sub.add_argument("--rs-corrected", dest="corrected", action="store_true",
                     default=None, help="apply the small-sample R/S correction")


def _config(args):
    return {k: getattr(args, k) for k in DEFAULTS if getattr(args, k) is not None}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hurstkit",
        description="Hurst exponent estimation toolkit (13 methods).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate H for a series file")
    est.add_argument("--input", required=True, help="text file, one value per line")
    est.add_argument("--method", required=True,
                     help=f"one of: {', '.join(METHODS)}")
    est.add_argument("--format", choices=("json", "tsv"), default="json")
    _add_estimator_flags(est)

    gen = sub.add_parser("gen-fgn", help="generate a fractional-noise file")
    gen.add_argument("--hurst", type=float, required=True)
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--output", required=True)

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("suite", choices=("random", "fgn"))
    bench.add_argument("--replicates", type=int, default=None)
    bench.add_argument("--length", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    grid = ", ".join(f"{h:g}" for h in DEFAULT_H_GRID)
    bench.add_argument("--h-grid", dest="h_grid", default=None,
                       help=f"fgn targets as START:STOP:STEP (default {grid})")
    bench.add_argument("--out", required=True, help="directory for the TSVs")
    _add_estimator_flags(bench)

    return parser


def _cmd_estimate(args):
    # imported here so that hashlib and the cache load on this path only
    from ._cache import read_series_cached

    # estimate_series is looked up on harness when it runs, so a wrapper
    # installed there (perfbench's tracer) sees the call
    result = harness.estimate_series(read_series_cached(args.input),
                                     args.method, **_config(args))
    if args.format == "json":
        print(json.dumps(result.to_dict()))
    else:
        pairs = [("method", result.method), ("hurst", repr(result.hurst))]
        pairs += [(f"config.{k}", repr(v)) for k, v in result.config.items()]
        pairs += [(f"diagnostics.{k}", repr(v))
                  for k, v in result.diagnostics.items()]
        print("\n".join(f"{k}\t{v}" for k, v in pairs))
    return 0


def _cmd_gen_fgn(args):
    write_fgn(args.output, FgnSpec(args.hurst, args.length, args.seed))
    return 0


def _cmd_bench(args):
    # only the flags given: the suites' own signatures hold the defaults
    runs = {k: getattr(args, k) for k in ("replicates", "length", "seed")
            if getattr(args, k) is not None}
    if args.h_grid is not None:
        if args.suite != "fgn":
            raise ArgumentError("--h-grid applies to the fgn suite only")
        runs["h_values"] = parse_h_grid(args.h_grid)
    suite = run_fgn_suite if args.suite == "fgn" else run_random_suite
    report = suite(config=_config(args), **runs)
    os.makedirs(args.out, exist_ok=True)
    for kind, text in (("matrix", report.to_matrix_tsv()),
                       ("long", report.to_long_tsv())):
        path = os.path.join(args.out, f"{report.suite}_{kind}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; that slot is reserved
        # for data errors here
        return 0 if exc.code in (0, None) else 1

    handlers = {
        "estimate": _cmd_estimate,
        "gen-fgn": _cmd_gen_fgn,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
