"""Spectrum-domain Hurst estimators: periodogram, wavelet, local Whittle."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    CutoffTooSmallError,
    DegenerateSequenceError,
    InsufficientDataError,
    InsufficientLevelsError,
)
# as_series and linear_regr_solver are not called here; perfbench traces both
from .numerics import fit_power_law, linear_regr_solver, loc_min_solve  # noqa: F401
from .partition import as_series, demeaned  # noqa: F401
from .results import build_result
from .transforms import DB24_LOWPASS, HAAR_LOWPASS, dft, wavedec

DEFAULT_CUTOFF = 0.1
MIN_LEVEL_COEFFS = 16
_LW_BRACKET = (0.001, 0.999)
_LW_TOL = 1e-8


def est_pm(x, f_cutoff=DEFAULT_CUTOFF, flag=2):
    """Periodogram (log-periodogram regression) estimator.

    Regresses ln I(k) on ln[4 sin^2(f/2)] over the low-frequency bins
    f = k/N <= f_cutoff for k = 2..floor(N/2) (DC excluded); H = 1/2 - slope.
    """
    if not 0.0 < f_cutoff <= 0.5:
        raise ArgumentError(f"cutoff must lie in (0, 0.5], got {f_cutoff}")
    arr = demeaned(x)
    n = arr.size
    if n < 100:
        raise InsufficientDataError(f"need at least 100 samples, got {n}")

    spectrum = dft(arr)
    k = np.arange(2, n // 2 + 1)
    freq = k / n
    keep = freq <= f_cutoff
    if keep.sum() < 2:
        raise CutoffTooSmallError(
            f"cutoff {f_cutoff} keeps {int(keep.sum())} of {k.size} bins; "
            f"need at least 2"
        )
    k = k[keep]
    scales = 4.0 * np.sin(freq[keep] / 2.0) ** 2
    bins = spectrum[k - 1]
    power = (bins.real**2 + bins.imag**2) / n

    fit, resid = fit_power_law(scales, power, flag)
    return build_result(
        "pm",
        0.5 - fit.slope,
        {"cutoff": f_cutoff, "norm": flag},
        residual_norm=resid,
        n_points=int(k.size),
    )


def est_dwt(x, r=1, flag=2):
    """Wavelet estimator: coefficient means (r=1, "awc", 24-tap Daubechies)
    or coefficient-magnitude variances (r=2, "vvl", Haar).

    Per level j the statistic of |detail| is regressed on ln 2^j;
    H = 1/2 + slope/r.  Levels with fewer than MIN_LEVEL_COEFFS coefficients,
    or a zero statistic, are excluded; fewer than two usable levels is an
    error.  The floor matters: the coarsest levels sit at maximum leverage in
    the fit, and a variance taken over a handful of coefficients is noisy
    enough there to swing the slope by tenths.
    """
    if r not in (1, 2):
        raise ArgumentError(f"order r must be 1 or 2, got {r!r}")
    arr = demeaned(x)
    if arr.size < 64:
        raise InsufficientDataError(f"need at least 64 samples, got {arr.size}")

    dec = wavedec(arr, DB24_LOWPASS if r == 1 else HAAR_LOWPASS)
    scales, stats = [], []
    excluded = 0
    for level, detail in enumerate(dec.details, start=1):
        if detail.size < MIN_LEVEL_COEFFS:
            excluded += 1
            continue
        mag = np.abs(detail)
        stat = float(mag.mean()) if r == 1 else float(np.var(mag, ddof=1))
        if stat > 0.0:
            scales.append(2.0**level)
            stats.append(stat)
        else:
            excluded += 1
    if len(scales) < 2:
        raise InsufficientLevelsError(
            f"only {len(scales)} of {dec.levels} levels usable"
        )

    fit, resid = fit_power_law(scales, stats, flag)
    return build_result(
        "awc" if r == 1 else "vvl",
        0.5 + fit.slope / r,
        {"r": r, "norm": flag},
        residual_norm=resid,
        n_points=len(scales),
        excluded_segments=excluded,
    )


@dataclass(frozen=True)
class LwObjectiveData:
    """Frequencies and periodogram powers feeding the Whittle objective."""

    frequencies: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float).reshape(-1)
        pwr = np.asarray(self.power, dtype=float).reshape(-1)
        if freq.size != pwr.size or freq.size == 0:
            raise ArgumentError(
                f"need matching non-empty vectors, got {freq.size} and {pwr.size}"
            )
        if np.any(freq <= 0) or np.any(np.diff(freq) <= 0):
            raise ArgumentError("frequencies must be positive and increasing")
        if np.any(pwr < 0):
            raise ArgumentError("power values must be nonnegative")
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "power", pwr)


def obj_fun_lw(hurst, data):
    """Local-Whittle profile objective

        psi(H) = ln[ mean(f^{2H-1} I) ] - (2H-1) * mean(ln f).
    """
    f = data.frequencies
    weighted = np.mean(f ** (2.0 * hurst - 1.0) * data.power)
    if weighted <= 0.0:
        raise DegenerateSequenceError("spectrum is identically zero")
    return float(np.log(weighted) - (2.0 * hurst - 1.0) * np.mean(np.log(f)))


def est_lw(x):
    """Local Whittle estimator: minimize psi over H in [0.001, 0.999].

    Uses all floor(N/2) positive frequencies j/N with powers |X^(j)|^2; the
    known downward bias at small H is inherent to this full-band variant.
    """
    arr = demeaned(x)
    n = arr.size
    if n < 100:
        raise InsufficientDataError(f"need at least 100 samples, got {n}")

    spectrum = dft(arr)
    j = np.arange(1, n // 2 + 1)
    bins = spectrum[j]
    data = LwObjectiveData(j / n, bins.real**2 + bins.imag**2)

    hurst = loc_min_solve(obj_fun_lw, *_LW_BRACKET, _LW_TOL, params=(data,))
    return build_result(
        "lw",
        hurst,
        {},
        residual_norm=None,
        n_points=int(j.size),
        objective=obj_fun_lw(hurst, data),
    )
