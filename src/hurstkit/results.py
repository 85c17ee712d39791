"""The result record every estimator returns."""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, DegenerateSequenceError
from .numerics import fit_power_law, fixed_point_solve

METHODS = (
    "am", "av", "ghe", "hm", "dfa", "rs", "tta",
    "pm", "awc", "vvl", "lw", "lssd", "lsv",
)

_CLAMP = 1e-6
_MODEL_EPS = 1e-12  # far below the 1e-9 scale-invariance of the estimates


@dataclass
class EstimateResult:
    """One Hurst estimate with its effective configuration and diagnostics.

    `config` echoes every parameter that influenced the run.  `diagnostics`
    always carries: residual_norm (of the final fit, or None when the method
    has no regression step), n_points (regression points / solver scales),
    excluded_segments, discarded_samples, and out_of_range -- a warning flag,
    not an error, set when the estimate leaves (0, 1).  A non-finite estimate
    is a DataError instead.  Individual methods may add keys (e.g. the
    fixed-point residual).
    """

    method: str
    hurst: float
    config: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def build_result(method, hurst, config, *, residual_norm, n_points,
                 excluded_segments=0, discarded_samples=0, **extra):
    """Assemble an EstimateResult with the standard diagnostics block."""
    assert method in METHODS, method
    hurst = float(hurst)
    if not math.isfinite(hurst):
        raise DataError(f"the estimate is not finite ({hurst!r})")
    diagnostics = {
        "residual_norm": residual_norm,
        "n_points": n_points,
        "excluded_segments": excluded_segments,
        "discarded_samples": discarded_samples,
        "out_of_range": not 0.0 < hurst < 1.0,
    }
    diagnostics.update(extra)
    return EstimateResult(method, hurst, dict(config), diagnostics)


def live_scales(scales, stats):
    """Drop the scales whose statistic is 0, which has no logarithm.

    The one rule of every estimator that fits over scales.  Returns the
    remaining scales and statistics as float arrays and the number dropped;
    a slope needs two scales, so fewer left is a degenerate series.  Any
    other statistic, negative or non-finite included, is kept, for the
    fitter to reject by index.
    """
    scales = np.asarray(scales, dtype=float)
    stats = np.asarray(stats, dtype=float)
    keep = stats != 0.0
    dropped = int(stats.size - np.count_nonzero(keep))
    if stats.size - dropped < 2:
        raise DegenerateSequenceError(
            f"the scale statistic is 0 at {dropped} of {stats.size} scales; "
            f"a slope needs 2 above 0"
        )
    return scales[keep], stats[keep], dropped


def clip_hurst(hurst):
    """Clip an estimate to [_CLAMP, 1 - _CLAMP], just inside (0, 1)."""
    return min(max(hurst, _CLAMP), 1.0 - _CLAMP)


def fit_result(method, scales, stats, flag, config, *, offset=0.0, divisor=1.0,
               model=None, excluded_segments=0, **diagnostics):
    """Fit ln stats on ln scales in the flag-selected norm and build the
    result with H = offset + slope / divisor.

    The shared tail of the log-log estimators.  The scales live_scales drops
    add to `excluded_segments`; the fit's residual norm and point count fill
    the standard diagnostics, and `diagnostics` passes on to build_result.

    With `model(scales, H)`, the per-scale factors a model puts on the
    statistics, H solves H = offset + slope(stats / model) / divisor by a
    fixed point of one fit_power_law per refit, accelerated by Steffensen's
    method.  From the plain fit (diagnostic `uncorrected_hurst`) each step
    takes two refits and Aitken's extrapolation of the three iterates, or
    the second refit where the extrapolation divides by 0 or is not finite.
    It clips every iterate just inside (0, 1), stops once a refit or a step
    moves H by less than _MODEL_EPS and reports the residual norm of its
    last fit.  A plain fit outside (0, 1) -- a trend, a random walk -- has
    no model to correct towards and is reported as it is.
    """
    scales, stats, dropped = live_scales(scales, stats)
    fit, resid = fit_power_law(scales, stats, flag)
    hurst = offset + fit.slope / divisor
    if model is not None:
        diagnostics["uncorrected_hurst"] = hurst
    if model is not None and 0.0 < hurst < 1.0:
        def refit(h):
            fit, _ = fit_power_law(scales, stats / model(scales, h), flag)
            return clip_hurst(offset + fit.slope / divisor)

        def steffensen(h):
            h1 = refit(h)
            if abs(h1 - h) < _MODEL_EPS:
                return h1
            h2 = refit(h1)
            curve = h2 - 2.0 * h1 + h
            aitken = h - (h1 - h) * (h1 - h) / curve if curve else math.inf
            return clip_hurst(aitken) if math.isfinite(aitken) else h2

        # a corrected statistic of 0 or inf: a DomainError, not a warning
        with np.errstate(divide="ignore", over="ignore"):
            hurst = fixed_point_solve(steffensen, clip_hurst(hurst), _MODEL_EPS)
            resid = fit_power_law(scales, stats / model(scales, hurst), flag)[1]
    return build_result(
        method,
        hurst,
        config,
        residual_norm=resid,
        n_points=len(scales),
        excluded_segments=excluded_segments + dropped,
        **diagnostics,
    )
