"""Time-domain Hurst estimators.

Seven estimators driven by scale statistics and a log-log fit:

====== ============================= =========================
method statistic per scale           Hurst from fitted slope
====== ============================= =========================
am     mean |segment mean|           H = 1 + slope
av     var of segment means          H = 1 + slope/2
ghe    mean |Y_{i+tau} - Y_i|^q      H = slope/q
hm     normalized curve length       H = 2 + slope
dfa    mean detrended residual std   H = slope
rs     mean rescaled range           H = slope
tta    total triangle area           H = slope
====== ============================= =========================

Every estimator subtracts the global mean up front.  The statistics are all
mean-free by construction, so this changes nothing mathematically, but it
makes shift invariance hold *exactly* in floating point whenever the shifted
inputs demean to identical arrays.
"""

import math

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateSequenceError,
    InsufficientDataError,
)
from .numerics import format_power_law_data, linear_regr_solver
from .partition import (  # noqa: F401  seq_partition: perfbench traces this name
    as_series,
    cumulative_bias,
    search_opt_seq_len,
    seq_partition,
)
from .results import build_result

DEFAULT_WINDOW = 50


def _prepared(x):
    arr = as_series(x)
    return arr - arr.mean()


def _fit_slope(scales, stats, flag):
    """Log-log fit; returns (fit, l2 norm of the log-residuals)."""
    A, b = format_power_law_data(scales, stats)
    fit = linear_regr_solver(A, b, flag)
    resid = b - (fit.intercept + fit.slope * A[:, 1])
    return fit, float(np.sqrt(np.sum(resid * resid)))


def est_central(x, w=DEFAULT_WINDOW, r=1, flag=2):
    """Absolute-moments (r=1, "am") / aggregate-variance (r=2, "av") method.

    Segment means of the optimal partition scale as m^{r(H-1)}; scales whose
    statistic vanishes are excluded, and fewer than two usable scales is a
    degenerate series.
    """
    if r not in (1, 2):
        raise ArgumentError(f"order r must be 1 or 2, got {r!r}")
    arr = _prepared(x)
    n_total = arr.size
    n_opt, factors = search_opt_seq_len(n_total, w)

    scales, stats = [], []
    excluded = 0
    for m in factors:
        k = n_opt // m
        means = arr[:n_opt].reshape(k, m).mean(axis=1)
        if r == 1:
            nu = float(np.abs(means).mean())  # grand mean is zero by _prepared
        else:
            nu = float(np.var(means, ddof=1))
        if nu > 0.0:
            scales.append(m)
            stats.append(nu)
        else:
            excluded += 1
    if len(scales) < 2:
        raise DegenerateSequenceError(
            f"segment means carry no dispersion at {excluded} of "
            f"{len(factors)} scales"
        )

    fit, resid = _fit_slope(scales, stats, flag)
    return build_result(
        "am" if r == 1 else "av",
        1.0 + fit.slope / r,
        {"window": w, "r": r, "norm": flag},
        residual_norm=resid,
        n_points=len(scales),
        excluded_segments=excluded,
        discarded_samples=n_total - n_opt,
    )


def est_ghe(x, q=1.0, flag=2):
    """Generalized Hurst exponent from q-th moments of profile increments.

    mu_q(tau) = mean |Y_{i+tau} - Y_i|^q over the cumulative-bias profile Y,
    for tau = 1..10; H = slope/q.
    """
    if not q > 0:
        raise ArgumentError(f"moment order q must be positive, got {q}")
    arr = _prepared(x)
    if arr.size <= 20:
        raise InsufficientDataError(f"need more than 20 samples, got {arr.size}")
    y = cumulative_bias(arr)

    lags = np.arange(1, 11)
    stats = np.array(
        [np.mean(np.abs(y[t:] - y[:-t]) ** q) for t in lags]
    )
    if np.any(stats == 0.0):
        t = int(lags[np.argmin(stats)])
        raise DegenerateSequenceError(f"profile repeats with period {t}")

    fit, resid = _fit_slope(lags, stats, flag)
    return build_result(
        "ghe",
        fit.slope / q,
        {"q_order": q, "norm": flag},
        residual_norm=resid,
        n_points=lags.size,
    )


def _higuchi_lag(idx):
    # 1, 2, 3, 4 then floor(2^((idx+5)/4)): 5, 6, 8, 9, 11, 13
    return idx if idx <= 4 else int(2.0 ** ((idx + 5) / 4.0))


def est_higuchi(x, flag=2):
    """Higuchi curve-length method: H = 2 + slope of ln L(m) vs ln m."""
    arr = _prepared(x)
    n = arr.size
    if n <= 64:
        raise InsufficientDataError(f"need more than 64 samples, got {n}")
    y = cumulative_bias(arr)

    lags = np.array([_higuchi_lag(i) for i in range(1, 11)])
    stats = np.empty(lags.size)
    for j, m in enumerate(lags):
        k = n // m
        diffs = np.abs(y[m:] - y[:-m])
        # complete windows only: the first (k-1)*m lagged differences
        length = diffs[: (k - 1) * m].mean()
        stats[j] = (n - 1) * length / m**2
    if np.any(stats == 0.0):
        raise DegenerateSequenceError("flat profile: zero curve length")

    fit, resid = _fit_slope(lags, stats, flag)
    return build_result(
        "hm",
        2.0 + fit.slope,
        {"norm": flag},
        residual_norm=resid,
        n_points=lags.size,
    )


def _detrended_stds(segments, flag):
    """Residual std of each row after an affine fit against t = 1..m.

    For flag 2 the least-squares line has a closed form: with the abscissa
    centred once (tc), each row is demeaned and then loses its projection on
    tc.  The residual is formed explicitly rather than as sum z^2 - b^2 sum
    tc^2: that difference cancels on near-linear rows and can even come out
    negative, while the explicit residual of a row that detrends exactly is
    exactly 0, which the stds > 0 exclusion in est_dfa relies on.
    """
    k, m = segments.shape
    t = np.arange(1.0, m + 1.0)
    if flag == 2:
        tc = t - (m + 1) / 2.0
        resid = segments - segments.mean(axis=1, keepdims=True)
        resid -= ((resid @ tc) / (tc @ tc))[:, None] * tc
        return np.sqrt(np.einsum("ij,ij->i", resid, resid) / (m - 1))
    design = np.column_stack([np.ones(m), t])
    stds = np.empty(k)
    for tau in range(k):
        fit = linear_regr_solver(design, segments[tau], flag)
        stds[tau] = (segments[tau] - (fit.intercept + fit.slope * t)).std(ddof=1)
    return stds


def est_dfa(x, w=DEFAULT_WINDOW, flag=2):
    """Detrended fluctuation analysis; H is the slope itself.

    Each size-m segment of the cumulative-bias profile is detrended by an
    affine fit in the flag-selected norm; S(m) averages the per-segment
    residual stds.  Segments detrended exactly (zero residual) are dropped;
    a scale losing all its segments is a degenerate series.  Note m=2
    always detrends exactly, so DFA needs w >= 3 in practice.
    """
    arr = _prepared(x)
    n_total = arr.size
    n_opt, factors = search_opt_seq_len(n_total, w)
    z = cumulative_bias(arr[:n_opt])

    scales, stats = [], []
    excluded = 0
    for m in factors:
        k = n_opt // m
        stds = _detrended_stds(z.reshape(k, m), flag)
        keep = stds > 0.0
        excluded += int(k - keep.sum())
        if not keep.any():
            raise DegenerateSequenceError(
                f"every segment of size {m} detrends exactly"
            )
        scales.append(m)
        stats.append(float(stds[keep].mean()))

    fit, resid = _fit_slope(scales, stats, flag)
    return build_result(
        "dfa",
        fit.slope,
        {"window": w, "norm": flag},
        residual_norm=resid,
        n_points=len(scales),
        excluded_segments=excluded,
        discarded_samples=n_total - n_opt,
    )


def expected_rs(m):
    """Anis-Lloyd-Peters expectation of the R/S statistic for white noise.

    Exact Gamma-ratio form up to m = 340 — the largest argument there is
    Gamma(170) ~ 4e304, still inside double range, and the direct ratio is
    both exact at m=2 (0.75) and ~2 ulp accurate, unlike the exp(lgamma)
    detour.  Beyond 340 the sqrt(2/(pi m)) asymptotic takes over.
    """
    if m < 2:
        raise ArgumentError(f"need m >= 2, got {m}")
    i = np.arange(1, m)
    tail = float(np.sum(np.sqrt((m - i) / i)))
    lead = (m - 0.5) / m
    if m <= 340:
        ratio = math.gamma((m - 1) / 2.0) / (
            math.sqrt(math.pi) * math.gamma(m / 2.0)
        )
        return lead * ratio * tail
    return lead * math.sqrt(2.0 / (math.pi * m)) * tail


def est_rs(x, w=DEFAULT_WINDOW, flag=2, corrected=False):
    """Rescaled-range analysis; optionally Anis-Lloyd corrected.

    Per segment: range of the locally-demeaned cumulative sum over the local
    std.  `corrected` replaces <R/S>(m) by <R/S>(m) - E[R/S](m) + sqrt(pi*m/2)
    before the fit (off by default; it under-estimates for H > 0.5).
    """
    arr = _prepared(x)
    n_total = arr.size
    n_opt, factors = search_opt_seq_len(n_total, w)

    scales, stats = [], []
    excluded = 0
    for m in factors:
        k = n_opt // m
        segments = arr[:n_opt].reshape(k, m)
        bias = segments - segments.mean(axis=1, keepdims=True)
        profile = np.cumsum(bias, axis=1)
        ranges = profile.max(axis=1) - profile.min(axis=1)
        stds = bias.std(axis=1, ddof=1)
        keep = stds > 0.0
        excluded += int(k - keep.sum())
        if not keep.any():
            raise DegenerateSequenceError(f"every segment of size {m} is constant")
        ratio = float((ranges[keep] / stds[keep]).mean())
        if corrected:
            ratio = ratio - expected_rs(m) + math.sqrt(math.pi * m / 2.0)
        scales.append(m)
        stats.append(ratio)

    fit, resid = _fit_slope(scales, stats, flag)
    return build_result(
        "rs",
        fit.slope,
        {"window": w, "norm": flag, "corrected": bool(corrected)},
        residual_norm=resid,
        n_points=len(scales),
        excluded_segments=excluded,
        discarded_samples=n_total - n_opt,
    )


def est_tta(x, flag=2):
    """Triangle-areas method on the cumulative-bias profile.

    For each lag tau = 3..12, sum the areas (tau/2)|Y_{j+2tau} - 2Y_{j+tau}
    + Y_j| over starting points j spaced 2*tau apart; H = slope of the
    log-log fit against tau.  Lags 1 and 2 are skipped: the absolute second
    difference there is still sensitive to the marginal shape of the input
    (heavy tails inflate it), which tilts the whole fit upward.
    """
    arr = _prepared(x)
    n = arr.size
    if n < 41:
        raise InsufficientDataError(f"need at least 41 samples, got {n}")
    y = cumulative_bias(arr)

    lags = np.arange(3, 13)
    stats = np.empty(lags.size)
    for j, tau in enumerate(lags):
        count = (n - 1) // (2 * tau)
        start = 2 * tau * np.arange(count)
        heights = np.abs(y[start + 2 * tau] - 2.0 * y[start + tau] + y[start])
        stats[j] = 0.5 * tau * heights.sum()
    if np.any(stats == 0.0):
        t = int(lags[np.argmin(stats)])
        raise DegenerateSequenceError(f"profile is collinear at lag {t}")

    fit, resid = _fit_slope(lags, stats, flag)
    return build_result(
        "tta",
        fit.slope,
        {"norm": flag},
        residual_norm=resid,
        n_points=lags.size,
    )
