"""The result record every estimator returns."""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, DegenerateSequenceError
from .numerics import fit_power_law

METHODS = (
    "am", "av", "ghe", "hm", "dfa", "rs", "tta",
    "pm", "awc", "vvl", "lw", "lssd", "lsv",
)


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


def fit_result(method, scales, stats, flag, config, *, offset=0.0, divisor=1.0,
               excluded_segments=0, **diagnostics):
    """Fit ln stats on ln scales in the flag-selected norm and build the
    result with H = offset + slope / divisor.

    The shared tail of the log-log estimators.  The scales live_scales drops
    add to `excluded_segments`; the fit's residual norm and point count fill
    the standard diagnostics, and `diagnostics` passes on to build_result.
    """
    scales, stats, dropped = live_scales(scales, stats)
    fit, resid = fit_power_law(scales, stats, flag)
    return build_result(
        method,
        offset + fit.slope / divisor,
        config,
        residual_norm=resid,
        n_points=len(scales),
        excluded_segments=excluded_segments + dropped,
        **diagnostics,
    )
