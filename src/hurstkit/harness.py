"""File I/O and the estimator dispatch table.

The dispatcher accepts a single flat keyword config; each method picks the
keys it understands and ignores the rest, so one CLI flag set can drive all
thirteen estimators.  Every option is checked before any estimator runs.
"""

import io
import math
import warnings

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
from .generators import FgnSpec, _check_count, _check_real, gen_fgn
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

def _check_flag(key, value):
    if not isinstance(value, (bool, np.bool_)):
        raise ArgumentError(f"{key} must be True or False, got {value!r}")


def _real(ok, bounds):
    return lambda key, value: _check_real(key, value, ok, bounds)


# option -> (default, check); the check raises an ArgumentError naming the
# option.  An unset weight_p is per-method: 2 for lssd, 6 for lsv.
_OPTIONS = {
    "window": (DEFAULT_WINDOW, lambda key, value: _check_count(key, value, 2)),
    "norm": (2, _real(lambda v: v in (1, 2), "equal to 1 or 2")),
    "q_order": (1.0, _real(lambda v: v > 0, "> 0")),
    "cutoff": (DEFAULT_CUTOFF, _real(lambda v: 0 < v <= 0.5, "in (0, 0.5]")),
    "weight_p": (None, _real(lambda v: v >= 0, ">= 0")),
    "penalty_q": (DEFAULT_PENALTY_Q, _real(lambda v: v > 0, "> 0")),
    "epsilon": (DEFAULT_EPSILON, _real(lambda v: v > 0, "> 0")),
    "corrected": (False, _check_flag),
}
DEFAULTS = {key: default for key, (default, _) in _OPTIONS.items()}


def _settings(overrides):
    """DEFAULTS with the non-None `overrides` put in, each checked by its
    _OPTIONS check: the one place an option is checked, before any
    estimator runs.  A numpy scalar is stored as its Python value, so a
    result's config stays JSON-ready."""
    cfg = dict(DEFAULTS)
    for key, value in overrides.items():
        if key not in DEFAULTS:
            raise ArgumentError(
                f"unknown option {key!r}; valid options: {', '.join(DEFAULTS)}"
            )
        if value is not None:
            _OPTIONS[key][1](key, value)
            cfg[key] = value.item() if isinstance(value, np.generic) else value
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
    """Run one named estimator with defaults filled in, every option checked.

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
    """Load a series from a UTF-8 text file.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``, and is blank, a comment
    whose first non-blank character is ``#``, or one Python float literal
    with blanks around it allowed.  A ``#`` after a number, a non-finite
    value or a byte that is not UTF-8 raises ``SeriesParseError`` naming
    the line; fewer than 2 values raise ``InsufficientDataError``.

    The file is read once, so a pipe works as well as a regular file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_series(data, path)


def _parse_series(data, path):
    """``read_series`` of the file ``path`` whose bytes are ``data``.

    A plain file is parsed in one ``np.loadtxt`` pass.  A file that pass
    rejects or cannot judge goes to ``_scan_series``, the per-line scan that
    defines the grammar and builds every error, so both give the same array.
    Only ``data`` is parsed; ``path`` names the file in errors.
    """
    values = _load_plain(data)
    return _scan_series(data, path) if values is None else values


def _load_plain(data):
    """The bytes ``data`` as one column of at least 2 finite values, parsed
    by loadtxt's C reader, or None.

    Every field loadtxt parses, ``float`` parses to the same double, so the
    result is the scan's once no ``#`` follows a number on its line and the
    table passes the shape and finiteness checks.  loadtxt reads ``data``
    through the same text layer as a file opened with ``encoding="utf-8"``:
    decoded a chunk at a time, line ends ``\\r\\n`` and ``\\r`` read as
    ``\\n``.
    """
    if not _comments_open_lines(data):
        return None
    with warnings.catch_warnings():
        # a file with no data rows makes loadtxt warn; the scan reports it
        warnings.simplefilter("ignore", UserWarning)
        try:
            text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            table = np.loadtxt(text, ndmin=2)
        except ValueError:  # a field float() may still take, a ragged row, bad UTF-8
            return None
    if table.shape[0] < 2 or table.shape[1] != 1 or not np.isfinite(table).all():
        return None
    return table.ravel()


def _comments_open_lines(data):
    """Whether every ``#`` in the bytes ``data`` is on a line whose first
    non-blank character is a ``#``."""
    if b"\r" in data:
        data = data.replace(b"\r", b"\n")
    pos = 0
    while (at := data.find(b"#", pos)) >= 0:
        if data[data.rfind(b"\n", pos, at) + 1 : at].strip():
            return False
        pos = data.find(b"\n", at)
        if pos < 0:
            break
    return True


def _scan_series(data, path):
    """Parse the bytes ``data`` of the file ``path`` one line at a time."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n")
        lineno = head.count(b"\n") + head.count(b"\r") + 1
        raise SeriesParseError(
            f"line {lineno}: byte {data[exc.start]:#04x} is not valid UTF-8",
            line_number=lineno,
        ) from None
    values = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
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


_WRITE_BLOCK = 2**14  # values per formatted block of write_fgn


def write_fgn(path, spec):
    """Write a fractional-noise path, one value per line, 17 significant
    digits, with a '#' header recording the generating parameters.

    The text is built and written _WRITE_BLOCK (2**14) values at a time, so
    the memory it takes, about 1.1 MiB, does not grow with the length."""
    if not isinstance(spec, FgnSpec):
        spec = FgnSpec(*spec)
    series = gen_fgn(spec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# fgn hurst={spec.hurst:.17g} length={spec.length} "
                 f"seed={spec.seed}\n")
        for start in range(0, series.size, _WRITE_BLOCK):
            part = series[start : start + _WRITE_BLOCK].tolist()
            fh.write(("%.17g\n" * len(part)) % tuple(part))
