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


# method -> one call on the filled-in settings.  Each call looks its estimator
# up by name here when it runs, so a wrapper installed on that name (perfbench's
# tracer) sees every call and can read the positional `r`.
_DISPATCH = {
    "am": lambda x, c: est_central(x, c["window"], 1, c["norm"]),
    "av": lambda x, c: est_central(x, c["window"], 2, c["norm"]),
    "ghe": lambda x, c: est_ghe(x, c["q_order"], c["norm"]),
    "hm": lambda x, c: est_higuchi(x, c["norm"]),
    "dfa": lambda x, c: est_dfa(x, c["window"], c["norm"]),
    "rs": lambda x, c: est_rs(x, c["window"], c["norm"], c["corrected"]),
    "tta": lambda x, c: est_tta(x, c["norm"]),
    "pm": lambda x, c: est_pm(x, c["cutoff"], c["norm"]),
    "awc": lambda x, c: est_dwt(x, 1, c["norm"]),
    "vvl": lambda x, c: est_dwt(x, 2, c["norm"]),
    "lw": lambda x, c: est_lw(x),
    "lssd": lambda x, c: est_lssd(
        x, DEFAULT_WEIGHT_P if c["weight_p"] is None else c["weight_p"],
        c["penalty_q"], c["epsilon"]),
    "lsv": lambda x, c: est_lsv(
        x, DEFAULT_LSV_WEIGHT_P if c["weight_p"] is None else c["weight_p"],
        c["penalty_q"], c["epsilon"]),
}


def estimate_series(x, method, **overrides):
    """Run one named estimator with defaults filled in.

    An unset option takes its value from ``DEFAULTS``; an unset ``weight_p``
    takes the method's own, ``DEFAULT_WEIGHT_P`` for lssd and
    ``DEFAULT_LSV_WEIGHT_P`` for lsv.
    """
    if method not in METHODS:
        raise ArgumentError(
            f"unknown method {method!r}; choose one of {', '.join(METHODS)}"
        )
    c = _settings(overrides)
    try:
        return _DISPATCH[method](x, c)
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
