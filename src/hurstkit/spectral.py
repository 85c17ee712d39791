"""Spectrum-domain Hurst estimators: periodogram, wavelet, full-band Whittle.

pm and lw read one periodogram (_periodogram), built once for both on a
partition.PreparedSeries; every estimator here starts from
partition.demeaned with a floor of 100 (pm, lw) or 64 (awc, vvl) samples.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffTooSmallError, DegenerateSequenceError
# as_series and linear_regr_solver are not called here; perfbench traces both
from .numerics import linear_regr_solver, loc_min_solve  # noqa: F401
from .partition import as_series, demeaned, shared  # noqa: F401
from .results import build_result, fit_result
from .transforms import DB24_LOWPASS, HAAR_LOWPASS, dft, wavedec

DEFAULT_CUTOFF = 0.1
MIN_LEVEL_COEFFS = 16
_LW_BRACKET = (0.001, 0.999)
_LW_TOL = 1e-8


def _periodogram(x):
    """N and |X_j|^2 for j = 1..floor(N/2) of the demeaned series."""
    arr = demeaned(x, 100)

    def power():
        bins = dft(arr)[1 : arr.size // 2 + 1]
        return bins.real**2 + bins.imag**2

    return arr.size, shared(x, "periodogram", power)


def est_pm(x, f_cutoff=DEFAULT_CUTOFF, flag=2):
    """Periodogram (log-periodogram regression) estimator.

    Regresses ln I(k) on ln[4 sin^2(f/2)] over the low-frequency bins
    f = k/N <= f_cutoff for k = 2..floor(N/2) (DC excluded); H = 1/2 - slope.
    """
    n, power = _periodogram(x)
    k = np.arange(2, n // 2 + 1)
    freq = k / n
    keep = freq <= f_cutoff
    if keep.sum() < 2:
        raise CutoffTooSmallError(
            f"cutoff {f_cutoff} keeps {int(keep.sum())} of {k.size} bins; "
            f"need at least 2"
        )
    scales = 4.0 * np.sin(freq[keep] / 2.0) ** 2
    power = power[:-1][keep] / n  # bin k-1 pairs with frequency k/n

    return fit_result("pm", scales, power, flag,
                      {"cutoff": f_cutoff, "norm": flag},
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
                      excluded_segments=dec.levels - len(scales))


@dataclass(frozen=True)
class LwObjectiveData:
    """Frequencies and periodogram powers feeding the Whittle objective,
    with mean(ln f), the objective's H-invariant term, computed once."""

    frequencies: np.ndarray
    power: np.ndarray
    mean_log_frequency: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float).reshape(-1)
        pwr = np.asarray(self.power, dtype=float).reshape(-1)
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "power", pwr)
        object.__setattr__(self, "mean_log_frequency", np.mean(np.log(freq)))


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
    n, power = _periodogram(x)
    j = np.arange(1, n // 2 + 1)
    data = LwObjectiveData(j / n, power)

    hurst = loc_min_solve(obj_fun_lw, *_LW_BRACKET, _LW_TOL, params=(data,))
    return build_result(
        "lw",
        hurst,
        {},
        residual_norm=None,
        n_points=int(j.size),
        objective=obj_fun_lw(hurst, data),
    )
