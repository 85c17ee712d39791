"""The result record every estimator returns."""

import math
from dataclasses import dataclass, field

from .errors import DataError

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
        return {
            "method": self.method,
            "hurst": self.hurst,
            "config": dict(self.config),
            "diagnostics": dict(self.diagnostics),
        }


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
