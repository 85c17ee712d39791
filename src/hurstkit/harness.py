"""File I/O and the estimator dispatch table.

The dispatcher accepts a single flat keyword config; each method picks the
keys it understands and ignores the rest, so one CLI flag set can drive all
thirteen estimators.
"""

import math

import numpy as np

from .aggregation import (
    DEFAULT_EPSILON,
    DEFAULT_LSV_WEIGHT_P,
    DEFAULT_PENALTY_Q,
    DEFAULT_WEIGHT_P,
    est_lssd,
    est_lsv,
)
from .errors import ArgumentError, HurstkitError, InsufficientDataError, SeriesParseError
from .generators import FgnSpec, gen_fgn
from .results import METHODS
from .spectral import DEFAULT_CUTOFF, est_dwt, est_lw, est_pm
from .timedomain import (
    DEFAULT_WINDOW,
    est_central,
    est_dfa,
    est_ghe,
    est_higuchi,
    est_rs,
    est_tta,
)

DEFAULTS = {
    "window": DEFAULT_WINDOW,
    "norm": 2,
    "q_order": 1.0,
    "cutoff": DEFAULT_CUTOFF,
    "weight_p": None,  # per-method: 2 for lssd, 6 for lsv
    "penalty_q": DEFAULT_PENALTY_Q,
    "epsilon": DEFAULT_EPSILON,
    "corrected": False,
}


def _settings(overrides):
    cfg = dict(DEFAULTS)
    for key, value in overrides.items():
        if key not in DEFAULTS:
            raise ArgumentError(
                f"unknown option {key!r}; valid options: {', '.join(DEFAULTS)}"
            )
        if value is not None:
            cfg[key] = value
    return cfg


# method -> (call, the option keys whose values it takes, in order).  The
# calls look each estimator up by its name here when they run, so a wrapper
# installed on that name (perfbench's tracer) sees every call.
_BLOCK_KEYS = ("weight_p", "penalty_q", "epsilon")
_DISPATCH = {
    "am": (lambda x, w, norm: est_central(x, w, 1, norm), ("window", "norm")),
    "av": (lambda x, w, norm: est_central(x, w, 2, norm), ("window", "norm")),
    "ghe": (lambda x, q, norm: est_ghe(x, q, norm), ("q_order", "norm")),
    "hm": (lambda x, norm: est_higuchi(x, norm), ("norm",)),
    "dfa": (lambda x, w, norm: est_dfa(x, w, norm), ("window", "norm")),
    "rs": (lambda x, w, norm, corrected: est_rs(x, w, norm, corrected),
           ("window", "norm", "corrected")),
    "tta": (lambda x, norm: est_tta(x, norm), ("norm",)),
    "pm": (lambda x, cutoff, norm: est_pm(x, cutoff, norm), ("cutoff", "norm")),
    "awc": (lambda x, norm: est_dwt(x, 1, norm), ("norm",)),
    "vvl": (lambda x, norm: est_dwt(x, 2, norm), ("norm",)),
    "lw": (lambda x: est_lw(x), ()),
    "lssd": (lambda x, p, q, eps: est_lssd(
        x, DEFAULT_WEIGHT_P if p is None else p, q, eps), _BLOCK_KEYS),
    "lsv": (lambda x, p, q, eps: est_lsv(
        x, DEFAULT_LSV_WEIGHT_P if p is None else p, q, eps), _BLOCK_KEYS),
}


def estimate_series(x, method, **overrides):
    """Run one named estimator with defaults filled in.

    Unset options fall back to: window 50, norm flag 2 (least squares),
    q_order 1, cutoff 0.1, penalty_q 50, epsilon 1e-4, weight_p 2 for lssd
    and 6 for lsv.
    """
    if method not in METHODS:
        raise ArgumentError(
            f"unknown method {method!r}; choose one of {', '.join(METHODS)}"
        )
    c = _settings(overrides)
    call, keys = _DISPATCH[method]
    try:
        return call(x, *(c[key] for key in keys))
    except HurstkitError as exc:
        exc.args = (f"{method}: {exc.args[0]}",) + exc.args[1:]
        raise


def estimate_file(path, method, **overrides):
    return estimate_series(read_series(path), method, **overrides)


def read_series(path):
    """Load one finite decimal per line; '#' lines and blank lines skipped."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise SeriesParseError(
                    f"line {lineno}: could not parse {line!r} as a number",
                    line_number=lineno,
                ) from None
            if not math.isfinite(value):
                raise SeriesParseError(
                    f"line {lineno}: non-finite value {line!r}",
                    line_number=lineno,
                )
            values.append(value)
    if len(values) < 2:
        raise InsufficientDataError(
            f"{path}: found {len(values)} values, need at least 2"
        )
    return np.array(values)


def write_fgn(path, spec):
    """Write a fractional-noise path, one value per line, 17 significant
    digits, with a '#' header recording the generating parameters."""
    if not isinstance(spec, FgnSpec):
        spec = FgnSpec(*spec)
    series = gen_fgn(spec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# fgn hurst={spec.hurst:.17g} length={spec.length} "
                 f"seed={spec.seed}\n")
        fh.write(("%.17g\n" * series.size) % tuple(series.tolist()))
