"""Block-sum least-squares estimators (LSSD and LSV).

Both methods aggregate the series into non-overlapping blocks of every size
m = 1..min(N//10, isqrt(N)), take the unbiased std s_m of the block sums, and
fit the self-similar scaling E[s_m] = sigma * c(m,H) * m^H with sigma profiled
out analytically; the paper's sizes above sqrt(N) are left out (README, "Block
sizes of lssd and lsv").  LSSD solves the resulting fixed-point equation
H = Phi(H); LSV minimizes a quartic fitting error on [0.001, 0.999].

The input is standardized before blocking: partition.demeaned checks the
floor of 100 samples and subtracts the mean, and the result is divided by
its sample std.  The LSSD mapping is exactly scale-invariant so this is a
no-op there, but the LSV objective mixes a scale-dependent data term
(quartic in the input scale) with an absolute penalty H^{q+1}/(q+1);
standardizing keeps the two terms on the intended footing for inputs of any
magnitude.

The two methods read the same profile of s_m, built once for both on a
partition.PreparedSeries.
"""

import math

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateSequenceError,
    SingularityError,
    SingularSystemError,
)
from .numerics import fixed_point_solve, loc_min_solve
from .partition import as_series, demeaned, sample_std, shared
from .results import build_result, clip_hurst, live_scales

DEFAULT_WEIGHT_P = 2.0
DEFAULT_LSV_WEIGHT_P = 6.0
DEFAULT_PENALTY_Q = 50.0
DEFAULT_EPSILON = 1e-4

_DM_SINGULARITY_TOL = 1e-12


def block_sum_std(x, m):
    """Unbiased std of the floor(N/m) non-overlapping block sums of size m."""
    arr = as_series(x)
    if m < 1:
        raise ArgumentError(f"block size must be >= 1, got {m}")
    k = arr.size // m
    if k < 2:
        raise ArgumentError(
            f"block size {m} leaves {k} complete blocks of {arr.size} "
            f"samples; need at least 2"
        )
    sums = arr[: k * m].reshape(k, m).sum(axis=1)
    return float(np.std(sums, ddof=1))


def _block_sum_std_profile(arr, m_max):
    """s_m for m = 1..m_max via running-total differences.

    Algebraically identical to calling block_sum_std per scale.  Each scale
    reads its k + 1 block edges, k = N//m, as a strided view of the running
    totals.  The std runs the ufuncs np.std(ddof=1) runs, in its order, and
    its closing sqrt(ss / (k - 1)) once for all scales, so the profile is
    bitwise the same without np.std's per-call overhead.
    """
    totals = np.concatenate([[0.0], np.cumsum(arr)])
    ks = arr.size // np.arange(1, m_max + 1)
    ss = np.empty(m_max)
    for m, k in enumerate(ks.tolist(), 1):
        edges = totals[: k * m + 1 : m]
        dev = edges[1:] - edges[:-1]
        dev -= np.add.reduce(dev) / k
        np.square(dev, out=dev)
        ss[m - 1] = np.add.reduce(dev)
    return np.sqrt(ss / (ks - 1))


def fun_cm_lssd(m, n_total, hurst):
    """Scaling correction sqrt((u - u^{2H-1})/(u - 1/2)), u = N/m."""
    u = n_total / np.asarray(m, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.sqrt((u - u ** (2.0 * hurst - 1.0)) / (u - 0.5))


def fun_dm(m, n_total, hurst):
    """ln m + ln u / (1 - u^{2-2H}), u = N/m: like fun_cm_lssd and fun_cm_lsv,
    an array for an array m and a float for a scalar.  The denominator
    vanishes as H -> 1; values within 1e-12 of zero raise a SingularityError
    rather than returning a huge meaningless number.
    """
    u = n_total / np.asarray(m, dtype=float)
    # far below H = 1 the power overflows to inf, and d takes its limit ln m
    with np.errstate(over="ignore"):
        denom = 1.0 - u ** (2.0 - 2.0 * hurst)
    if np.any(np.abs(denom) < _DM_SINGULARITY_TOL):
        raise SingularityError(
            f"1 - u^(2-2H) vanishes at H={hurst}; the scaling exponent is "
            f"indeterminate this close to 1"
        )
    return np.log(np.asarray(m, dtype=float)) + np.log(u) / denom


class BlockSumContext:
    """Everything the LSSD/LSV objective needs: length, weights, s_m stats.

    The attributes after `stats` are the objectives' terms that do not
    depend on H, computed once per context rather than once per solver step.
    """

    def __init__(self, length, weight_p, penalty_q, scales, stats):
        self.length, self.weight_p, self.penalty_q = length, weight_p, penalty_q
        self.scales, self.stats = scales, stats
        self.weight = scales**weight_p
        self.log_scales = np.log(scales)
        self.log_stats = np.log(stats)
        self.lssd_a11 = np.sum(1.0 / self.weight)
        self.lssd_a12 = np.sum(self.log_scales / self.weight)
        self.stats_sq = stats**2
        self.lsv_b1 = np.sum(self.stats_sq**2 / self.weight)


def ctm_lssd(hurst, ctx):
    """The LSSD fixed-point mapping Phi(H).

    Least-squares elimination of ln sigma from the weighted fitting error
    yields Phi as a ratio of accumulator combinations; its fixed point is
    the estimate.  Exactly invariant under rescaling all stats by c > 0.
    """
    m, weight, log_m = ctx.scales, ctx.weight, ctx.log_scales
    d = fun_dm(m, ctx.length, hurst)
    c = fun_cm_lssd(m, ctx.length, hurst)
    gap = ctx.log_stats - np.log(c)

    a11, a12 = ctx.lssd_a11, ctx.lssd_a12
    a21 = np.sum(d / weight)
    a22 = np.sum(d * log_m / weight)
    b1 = np.sum(gap / weight)
    b2 = np.sum(d * gap / weight)

    denom = a11 * a22 - a21 * a12
    scale = max(abs(a11 * a22), abs(a21 * a12))
    if abs(denom) <= 1e-14 * scale or denom == 0.0:
        raise SingularSystemError(
            "accumulator determinant vanishes; a single scale cannot "
            "separate slope from intercept"
        )
    return float((a11 * (b2 - hurst**ctx.penalty_q) - a21 * b1) / denom)


def fun_cm_lsv(m, n_total, hurst):
    """Scaling correction (u - u^{2H-1})/(u - 1), u = N/m; equals 1 at H=1/2."""
    u = n_total / np.asarray(m, dtype=float)
    return (u - u ** (2.0 * hurst - 1.0)) / (u - 1.0)


def obj_fun_lsv(hurst, ctx):
    """The LSV objective Phi(H) = sum s^4/m^p - a12^2/a11 + H^{q+1}/(q+1)."""
    m, weight, s_sq = ctx.scales, ctx.weight, ctx.stats_sq
    c = fun_cm_lsv(m, ctx.length, hurst)

    b1 = ctx.lsv_b1
    a11 = np.sum(c**2 * m ** (4.0 * hurst) / weight)
    a12 = np.sum(c * m ** (2.0 * hurst) * s_sq / weight)
    penalty = hurst ** (ctx.penalty_q + 1.0) / (ctx.penalty_q + 1.0)
    return float(b1 - a12 * a12 / a11 + penalty)


def _max_block_size(n):
    """min(N//10, isqrt(N)): each size m has N//m >= 10 and N//m >= m blocks."""
    return min(n // 10, math.isqrt(n))


def _live_block_profile(arr):
    """live_scales of s_m, m = 1.._max_block_size(N), standardized series."""
    spread = sample_std(arr)
    if spread == 0.0:
        raise DegenerateSequenceError("constant series has no block dispersion")
    arr = arr / spread

    m_max = _max_block_size(arr.size)
    return live_scales(
        np.arange(1.0, m_max + 1.0), _block_sum_std_profile(arr, m_max)
    )


def _block_context(x, p, q):
    arr = demeaned(x, 100)
    scales, stats, excluded = shared(
        x, "block_profile", lambda: _live_block_profile(arr)
    )
    ctx = BlockSumContext(arr.size, float(p), float(q), scales, stats)
    return ctx, excluded


def est_lssd(x, p=DEFAULT_WEIGHT_P, q=DEFAULT_PENALTY_Q, eps=DEFAULT_EPSILON):
    """Block-sum std estimator: solve H = Phi(H) by direct iteration from 0.5.

    The reported value is clipped just inside (0, 1) when the raw fixed
    point escapes the interval; the raw value then appears in diagnostics.
    """
    ctx, excluded = _block_context(x, p, q)
    raw = fixed_point_solve(lambda h: ctm_lssd(h, ctx), 0.5, eps)
    residual = abs(ctm_lssd(raw, ctx) - raw)

    hurst = clip_hurst(raw)
    extra = {"fixed_point_residual": residual}
    if hurst != raw:
        extra["raw_value"] = raw
    return build_result(
        "lssd",
        hurst,
        {"weight_p": float(p), "penalty_q": float(q), "epsilon": float(eps)},
        residual_norm=residual,
        n_points=int(ctx.scales.size),
        excluded_segments=excluded,
        **extra,
    )


def est_lsv(x, p=DEFAULT_LSV_WEIGHT_P, q=DEFAULT_PENALTY_Q, eps=DEFAULT_EPSILON):
    """Block-sum variance estimator: minimize the LSV error over (0, 1).

    Default weight is p=6, heavier than LSSD's p=2: the variance-domain
    residuals grow like m^{4H}, so large (noisy, few-block) scales swamp the
    fit unless they are down-weighted much harder than in the log-domain
    LSSD fit.  With p=6 the estimator tracks fractional-noise targets to
    about +/-0.005 across H in [0.3, 0.8]; with p=2 it wanders by ~0.05.
    """
    ctx, excluded = _block_context(x, p, q)
    hurst, objective = loc_min_solve(lambda h: obj_fun_lsv(h, ctx),
                                     0.001, 0.999, eps)
    return build_result(
        "lsv",
        hurst,
        {"weight_p": float(p), "penalty_q": float(q), "epsilon": float(eps)},
        residual_norm=None,
        n_points=int(ctx.scales.size),
        excluded_segments=excluded,
        objective=objective,
    )
