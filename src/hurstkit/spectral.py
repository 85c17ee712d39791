"""Spectrum-domain Hurst estimators: periodogram, wavelet, full-band Whittle.

pm and lw read one periodogram (_periodogram), frequencies and powers from
a real-input FFT, built once for both on a partition.PreparedSeries; every
estimator here starts from partition.demeaned with a floor of 100 (pm, lw)
or 64 (awc, vvl) samples.
"""

import math

import numpy as np

from .errors import CutoffTooSmallError, DegenerateSequenceError
# as_series, linear_regr_solver, dft: not called here; perfbench traces them
from .numerics import linear_regr_solver, loc_min_solve  # noqa: F401
from .partition import as_series, demeaned, shared  # noqa: F401
from .results import build_result, fit_result
from .transforms import DB24_LOWPASS, HAAR_LOWPASS, dft, wavedec  # noqa: F401

DEFAULT_CUTOFF = 0.1
MIN_LEVEL_COEFFS = 16
_LW_BRACKET = (0.001, 0.999)
_LW_TOL = 1e-8


def _periodogram(x):
    """Frequencies j/N and powers |X_j|^2, j = 1..floor(N/2), of the demeaned
    series.

    The bins come from np.fft.rfft, which never holds a complex copy of the
    series.  A bin whose real and imaginary parts are both at most
    log2(N) * eps * sum|x_j| is rounding noise around an exact 0 (the even
    bins of a 0/1 step, all but the last bin of a +-1 alternation) and
    counts as 0, so that live_scales drops it.  The parts are compared, not
    their squares, which could overflow where the parts do not.
    """
    arr = demeaned(x, 100)

    def build():
        bins = np.fft.rfft(arr)[1 : arr.size // 2 + 1]
        tol = math.log2(arr.size) * np.finfo(float).eps * np.abs(arr).sum()
        noise = (np.abs(bins.real) <= tol) & (np.abs(bins.imag) <= tol)
        squares = bins.real**2
        squares += bins.imag**2
        squares[noise] = 0.0
        return np.arange(1, squares.size + 1) / arr.size, squares

    return shared(x, "periodogram", build)


def est_pm(x, f_cutoff=DEFAULT_CUTOFF, flag=2):
    """Periodogram (log-periodogram regression) estimator.

    Regresses ln I(f) on ln[4 sin^2(pi f)] over the periodogram frequencies
    f = j/N <= f_cutoff, j >= 1 (Geweke & Porter-Hudak 1983, at the angular
    frequency 2 pi f); H = 1/2 - slope.
    """
    freq, power = _periodogram(x)
    keep = freq <= f_cutoff
    if keep.sum() < 2:
        raise CutoffTooSmallError(
            f"cutoff {f_cutoff} keeps {int(keep.sum())} of {freq.size} bins; "
            f"need at least 2"
        )
    return fit_result("pm", 4.0 * np.sin(np.pi * freq[keep]) ** 2, power[keep],
                      flag, {"cutoff": f_cutoff, "norm": flag},
                      offset=0.5, divisor=-1.0)


def est_dwt(x, r=1, flag=2):
    """Wavelet estimator: coefficient means (r=1, "awc", 24-tap Daubechies)
    or coefficient-magnitude variances (r=2, "vvl", Haar).

    Per level j the statistic of |detail| is regressed on ln 2^j;
    H = 1/2 + slope/r.  Levels with fewer than MIN_LEVEL_COEFFS coefficients
    are excluded: the coarsest levels sit at maximum leverage in the fit,
    and a variance taken over a handful of coefficients is noisy enough
    there to swing the slope by tenths.  The 64-sample floor always leaves
    two levels (32 and 16 coefficients at N = 64).
    """
    dec = wavedec(demeaned(x, 64), DB24_LOWPASS if r == 1 else HAAR_LOWPASS)
    scales, stats = [], []
    for level, detail in enumerate(dec.details, start=1):
        if detail.size >= MIN_LEVEL_COEFFS:
            mag = np.abs(detail)
            stat = mag.mean() if r == 1 else np.var(mag, ddof=1)
            scales.append(2.0**level)
            stats.append(float(stat))
    return fit_result("awc" if r == 1 else "vvl", scales, stats, flag,
                      {"r": r, "norm": flag}, offset=0.5, divisor=r,
                      excluded_segments=len(dec.details) - len(scales))


class LwObjectiveData:
    """Attributes: frequencies and periodogram powers feeding the Whittle
    objective, and mean(ln f), its H-invariant term, computed once."""

    def __init__(self, frequencies, power):
        self.frequencies, self.power = frequencies, power
        self.mean_log_frequency = np.mean(np.log(frequencies))


def obj_fun_lw(hurst, data):
    """Full-band Whittle profile objective

        psi(H) = ln[ mean(f^{2H-1} I) ] - (2H-1) * mean(ln f).
    """
    f = data.frequencies
    weighted = np.mean(f ** (2.0 * hurst - 1.0) * data.power)
    if weighted <= 0.0:
        raise DegenerateSequenceError("spectrum is identically zero")
    return float(np.log(weighted) - (2.0 * hurst - 1.0) * data.mean_log_frequency)


def est_lw(x):
    """Full-band Whittle estimator: minimize psi over H in [0.001, 0.999].

    Uses all floor(N/2) positive frequencies j/N with powers |X^(j)|^2; the
    known downward bias at small H is inherent to this full-band variant.
    """
    data = LwObjectiveData(*_periodogram(x))

    hurst, objective = loc_min_solve(lambda h: obj_fun_lw(h, data),
                                     *_LW_BRACKET, _LW_TOL)
    return build_result(
        "lw",
        hurst,
        {},
        residual_norm=None,
        n_points=int(data.frequencies.size),
        objective=objective,
    )
