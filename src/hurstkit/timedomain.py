"""Time-domain Hurst estimators.

Seven estimators driven by scale statistics and a log-log fit:

====== ============================= =========================
method statistic per scale           Hurst from fitted slope
====== ============================= =========================
am     mean |segment mean|           H = 1 + slope, of stat / c_k(H)^{1/2}
av     var of segment means          H = 1 + slope/2, of stat / c_k(H)
ghe    mean |Y_{i+tau} - Y_i|^q      H = slope/q
hm     normalized curve length       H = 2 + slope
dfa    mean detrended residual std   H = slope
rs     mean rescaled range           H = slope
tta    total triangle area           H = slope
====== ============================= =========================

c_k(H) corrects am and av for measuring segment means against the grand mean
of the k segments (see est_central).

Every estimator starts from partition.demeaned, which also checks its
minimum length and scales the deviations into [0.5, 1).  am, av, dfa and rs
then share one partition step (_partitioned), whose search needs w^2
samples, am, av, ghe, hm, dfa and tta one profile (_profile), which
aggregation's lssd and lsv read too, dfa and rs one rule for dropping
zero-spread segments (_live_segments), and all seven end in
results.fit_result.  On a partition.PreparedSeries the partition of each w
and the profile are built once for all the estimators that read them.  Every
one of them drops a scale whose statistic is 0 by the same rule,
results.live_scales.  am, av, lssd and lsv take block sums as differences of
the profile (_block_sums); the window sizes of dfa and rs are independent
passes over the prefix, so _map_scales spreads them over up to four threads
once the prefix is long enough to repay it; each scale is computed as on one
thread.  am and av fit every window size of the partition, as the paper
does; dfa and rs fit at most _MAX_FIT_SIZES of them and at most
_SIZES_PER_DECADE per decade (_fit_sizes), all of them within both bounds
and otherwise the divisors nearest a log-even grid, so a long series pays 48
passes over its prefix instead of 176 at N = 1e6, and N = 3e4 pays 20
instead of 30.
"""

import math

import numpy as np

from . import _cpus
from .errors import DegenerateSequenceError, DomainError, NoPartitionError
# as_series, seq_partition and linear_regr_solver are not called here;
# perfbench traces the names
from .numerics import lad_lines, linear_regr_solver  # noqa: F401
from .partition import (  # noqa: F401
    as_series,
    cumulative_bias,
    demeaned,
    search_opt_seq_len,
    seq_partition,
    shared,
)
from .results import fit_result

DEFAULT_WINDOW = 50

# Below this prefix length starting threads costs more than the window sizes
# save (break-even near 1e5 samples for rs on two cores).
_THREADED_MIN_SAMPLES = 200_000
# Each worker holds about three n_opt-float temporaries; this bounds memory.
_MAX_WORKERS = 4
# dfa and rs fit at most this many window sizes (_fit_sizes), and at most
# _SIZES_PER_DECADE per decade of window size.  Beyond either bound a pass
# per size buys little accuracy: tools/scale_ablation.py keeps the sd within
# 5 % of every divisor's at N <= 1e6, where 32 sizes lost up to 10 %; 19 per
# decade is the least density that leaves N = 1e6 its 48 sizes (18 gives 47,
# which lost 6 % at H = 0.9)
_MAX_FIT_SIZES = 48
_SIZES_PER_DECADE = 19


def _map_scales(stat, factors, n_opt):
    """[stat(m) for m in factors], on worker threads for a long prefix.

    numpy releases the GIL inside the reductions each scale makes, so once
    the n_opt-sample prefix is long enough and more than one CPU is usable
    the scales run on a thread pool.  Results come back in factor order, and
    an exception raised for a scale is re-raised here, the first in factor
    order, exactly as the serial loop would raise it; the scales not yet
    started are then cancelled.  The pool lives for this call only, so no
    thread outlives it.
    """
    workers = min(_cpus.usable_cpus(), _MAX_WORKERS, len(factors))
    if n_opt < _THREADED_MIN_SAMPLES or workers < 2:
        return [stat(m) for m in factors]
    # imported here: concurrent.futures pulls in logging, which the serial
    # path and `import hurstkit` should not pay for
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(stat, factors))


def _partitioned(x, w):
    """The partition step of am, av, dfa and rs.

    Returns the demeaned series, the optimal prefix length n_opt and its
    window sizes.  A log-log fit needs two of them, so fewer is a
    NoPartitionError naming the prefix and the window bound.
    """
    arr = demeaned(x)
    n_opt, factors = shared(x, ("partition", w),
                            lambda: search_opt_seq_len(arr.size, w))
    if len(factors) < 2:
        raise NoPartitionError(
            f"partition of the {n_opt}-sample prefix at w={w} leaves "
            f"{len(factors)} window size; need at least 2"
        )
    return arr, n_opt, factors


def _fit_sizes(factors):
    """The window sizes dfa and rs visit, out of the partition's `factors`.

    The grid has min(_MAX_FIT_SIZES, ceil(_SIZES_PER_DECADE * D) + 1) points
    for factors spanning D decades.  Up to that many sizes, all of them, as
    the same list; beyond, the divisor nearest in log to each point of a
    log-even grid of that many points from the smallest size to the largest,
    each kept once, so both ends stay and the list stays ascending.
    """
    decades = math.log10(factors[-1] / factors[0])
    count = min(_MAX_FIT_SIZES, math.ceil(_SIZES_PER_DECADE * decades) + 1)
    if len(factors) <= count:
        return factors
    logs = np.log(factors)
    grid = np.linspace(logs[0], logs[-1], count)
    nearest = np.abs(logs - grid[:, None]).argmin(axis=1).tolist()
    # ascending, as the grid is: dict.fromkeys keeps each index once, where
    # np.unique would import numpy.ma on its first call in a process
    return [factors[i] for i in dict.fromkeys(nearest)]


def _profile(x, arr):
    """The shared cumulative-bias profile of `arr`, x's demeaned series."""
    return shared(x, "profile", lambda: cumulative_bias(arr))


def _block_sums(y, m, n):
    """Sums of the n//m size-m blocks of the series whose running total is y:
    bitwise np.diff(y[m-1:n:m], prepend=0.0), by one subtraction."""
    sums = np.empty(n // m)
    sums[0] = y[m - 1]
    np.subtract(y[2 * m - 1 : n : m], y[m - 1 : n - m : m], out=sums[1:])
    return sums


def _live_segments(spread, m, cause):
    """Keep the segments of size m whose spread is above 0.

    Returns the keep mask and the number of segments dropped; a scale that
    loses every segment is a degenerate series, which `cause` describes.
    """
    keep = spread > 0.0
    live = np.count_nonzero(keep)
    if not live:
        raise DegenerateSequenceError(f"every segment of size {m} {cause}")
    return keep, int(keep.size - live)


def _mean(values):
    """values.mean() of a 1-D float array, by the ufunc .mean() calls."""
    return float(np.add.reduce(values) / values.size)


def fun_cm_lsv(m, n_total, hurst):
    """Scaling correction (u - u^{2H-1})/(u - 1), u = N/m; equals 1 at H=1/2."""
    u = n_total / np.asarray(m, dtype=float)
    return (u - u ** (2.0 * hurst - 1.0)) / (u - 1.0)


def _grand_mean_factor(scales, n_opt, hurst, r):
    """Mean-square factor c_k(H) of deviations from the grand mean of the
    k = n_opt/m block means of fGn: their mean square over k blocks (r=1) or
    their ddof=1 variance (r=2) is sigma^2 m^{2H-2} c_k(H) exactly.
    """
    c = fun_cm_lsv(scales, n_opt, hurst)  # (k - k^{2H-1}) / (k - 1)
    return c * (1.0 - scales / n_opt) if r == 1 else c


def est_central(x, w=DEFAULT_WINDOW, r=1, flag=2):
    """Absolute-moments (r=1, "am") / aggregate-variance (r=2, "av") method.

    Segment means of the optimal partition scale as m^{H-1}, but each is
    measured against the grand mean of the k = n_opt/m blocks, which takes
    variance out of them (Taqqu, Teverovsky & Willinger 1995).  For fGn the
    deviations have mean square sigma^2 m^{2H-2} (1 - k^{2H-2}) exactly, so

        av: E[var of means, ddof=1] = sigma^2 m^{2H-2} fun_cm_lsv(k, H)
        am: E[mean |deviation|]    ~ sigma m^{H-1} sqrt(1 - k^{2H-2})

    by E|Z| = sqrt(2/pi) sd.  H therefore solves H = 1 + slope(stats /
    c_k(H)^{r/2}) / r, with c_k from _grand_mean_factor: the model of
    results.fit_result, whose fixed point starts from the ordinary log-log
    fit (diagnostic `uncorrected_hurst`) and reports one outside (0, 1) -- a
    trend, a random walk -- as it is.

    Block means are the block sums of _block_sums over m; the r=2
    statistic runs the ufuncs np.var(ddof=1) runs, in its order.
    """
    arr, n_opt, factors = _partitioned(x, w)
    y = _profile(x, arr)

    def scale_stat(m):
        means = _block_sums(y, m, n_opt)
        means /= m
        if r == 1:
            return _mean(np.abs(means, out=means))  # grand mean is 0
        means -= np.add.reduce(means, keepdims=True) / means.size
        np.square(means, out=means)
        return float(np.add.reduce(means) / (means.size - 1))

    return fit_result(
        "am" if r == 1 else "av", factors, [scale_stat(m) for m in factors],
        flag, {"window": w, "r": r, "norm": flag}, offset=1.0, divisor=r,
        model=lambda m, h: _grand_mean_factor(m, n_opt, h, r) ** (r / 2.0),
        discarded_samples=arr.size - n_opt,
    )


def est_ghe(x, q=1.0, flag=2):
    """Generalized Hurst exponent from q-th moments of profile increments.

    mu_q(tau) = mean |Y_{i+tau} - Y_i|^q over the cumulative-bias profile Y,
    for tau = 1..10; H = slope/q, q > 0; an overflowing mu_q is a DomainError.
    """
    y = _profile(x, demeaned(x, 21))

    lags = np.arange(1, 11)
    with np.errstate(over="ignore"):
        stats = [np.mean(np.abs(y[t:] - y[:-t]) ** q) for t in lags]
    if not max(stats) < math.inf:
        raise DomainError(f"|dY|^q_order overflows at q_order = {q!r}")

    return fit_result("ghe", lags, stats, flag, {"q_order": q, "norm": flag},
                      divisor=q)


def _higuchi_lag(idx):
    # 1, 2, 3, 4 then floor(2^((idx+5)/4)): 5, 6, 8, 9, 11, 13
    return idx if idx <= 4 else int(2.0 ** ((idx + 5) / 4.0))


def est_higuchi(x, flag=2):
    """Higuchi curve-length method: H = 2 + slope of ln L(m) vs ln m."""
    y = _profile(x, demeaned(x, 65))
    n = y.size

    lags = np.array([_higuchi_lag(i) for i in range(1, 11)])
    stats = np.empty(lags.size)
    buf = np.empty(n)
    for j, m in enumerate(lags):
        k = n // m
        # complete windows only: the first (k-1)*m lagged differences
        span = (k - 1) * m
        diffs = np.subtract(y[m : m + span], y[:span], out=buf[:span])
        length = np.abs(diffs, out=diffs).mean()
        stats[j] = (n - 1) * length / m**2

    return fit_result("hm", lags, stats, flag, {"norm": flag}, offset=2.0)


def _detrended_stds(segments, flag):
    """Residual std of each row after an affine fit against t = 1..m.

    For flag 2 the least-squares line has a closed form: with the abscissa
    centred once (tc), each row is demeaned and then loses its projection on
    tc.  The residual is formed explicitly rather than as sum z^2 - b^2 sum
    tc^2: that difference cancels on near-linear rows and can even come out
    negative, while the explicit residual of a row that detrends exactly is
    exactly 0, which the zero-spread exclusion in est_dfa relies on.  The
    row means are .mean(axis=1)'s own np.add.reduce and division.  For
    flag 1 one lad_lines call fits the l1 lines of all rows.  A row of two
    points, which either line passes through only up to rounding, gives 0
    at both flags.
    """
    m = segments.shape[1]
    if m == 2:
        return np.zeros(segments.shape[0])
    t = np.arange(1.0, m + 1.0)
    if flag == 2:
        tc = t - (m + 1) / 2.0
        resid = segments - np.add.reduce(segments, axis=1, keepdims=True) / m
        resid -= ((resid @ tc) / (tc @ tc))[:, None] * tc
        return np.sqrt(np.einsum("ij,ij->i", resid, resid) / (m - 1))
    a, b = lad_lines(t, segments)
    return (segments - (a[:, None] + b[:, None] * t)).std(axis=1, ddof=1)


def est_dfa(x, w=DEFAULT_WINDOW, flag=2):
    """Detrended fluctuation analysis; H is the slope itself.

    Each size-m segment of the prefix of the profile ghe, hm and tta read
    is detrended by an affine fit in the flag-selected norm; S(m) averages
    the per-segment residual stds.  Segments detrended exactly (zero
    residual) are dropped; a scale losing all its segments is a degenerate
    series, such as a 0/1 step.  Note m=2 always detrends exactly, so DFA
    needs w >= 3 in practice.  Only the window sizes _fit_sizes keeps are
    visited: `n_points` and `excluded_segments` count those.
    """
    arr, n_opt, factors = _partitioned(x, w)
    sizes = _fit_sizes(factors)
    z = _profile(x, arr)[:n_opt]

    def scale_stat(m):
        stds = _detrended_stds(z.reshape(n_opt // m, m), flag)
        keep, dropped = _live_segments(stds, m, "detrends exactly")
        return _mean(stds[keep]), dropped

    stats, dropped = zip(*_map_scales(scale_stat, sizes, n_opt))

    return fit_result(
        "dfa", sizes, stats, flag, {"window": w, "norm": flag},
        excluded_segments=sum(dropped), discarded_samples=arr.size - n_opt,
    )


def expected_rs(m):
    """Anis-Lloyd-Peters expectation of the R/S statistic for white noise.

    Exact for every m >= 2: the Gamma ratio Gamma((m-1)/2) / (sqrt(pi)
    Gamma(m/2)) is the product r(m) = r(m-2) (m-3)/(m-2), r(2) = 1,
    r(3) = 2/pi, taken as exp of a sum of log1p terms: 0.75 at m = 2 and
    within a few ulps at any m, where Gamma itself overflows past m = 343.
    """
    k = np.arange(m, 3, -2)
    ratio = (1.0, 2.0 / math.pi)[m % 2] * math.exp(
        np.sum(np.log1p(-1.0 / (k - 2.0))))
    i = np.arange(1, m)
    tail = float(np.sum(np.sqrt((m - i) / i)))
    return (m - 0.5) / m * ratio * tail


def est_rs(x, w=DEFAULT_WINDOW, flag=2, corrected=False):
    """Rescaled-range analysis; optionally Anis-Lloyd corrected.

    Per segment: range of the locally-demeaned cumulative sum over the local
    std.  Row means, running sums and extremes are bitwise those of .mean,
    np.cumsum, .max and .min, taken by the ufunc each of them calls.
    `corrected` replaces <R/S>(m) by <R/S>(m) - E[R/S](m) + sqrt(pi*m/2)
    before the fit (off by default; it under-estimates for H > 0.5).  Only
    the window sizes _fit_sizes keeps are visited: `n_points` and
    `excluded_segments` count those.
    """
    arr, n_opt, factors = _partitioned(x, w)
    sizes = _fit_sizes(factors)

    def scale_ratio(m):
        segments = arr[:n_opt].reshape(n_opt // m, m)
        bias = segments - np.add.reduce(segments, axis=1, keepdims=True) / m
        # the rows are demeaned already: std(ddof=1) without a second mean
        stds = np.sqrt(np.einsum("ij,ij->i", bias, bias) / (m - 1))
        profile = np.add.accumulate(bias, axis=1, out=bias)  # in place
        ranges = (np.maximum.reduce(profile, axis=1)
                  - np.minimum.reduce(profile, axis=1))
        keep, dropped = _live_segments(stds, m, "is constant")
        ratio = _mean(ranges[keep] / stds[keep])
        if corrected:
            ratio = ratio - expected_rs(m) + math.sqrt(math.pi * m / 2.0)
        return ratio, dropped

    stats, dropped = zip(*_map_scales(scale_ratio, sizes, n_opt))

    return fit_result(
        "rs", sizes, stats, flag,
        {"window": w, "norm": flag, "corrected": bool(corrected)},
        excluded_segments=sum(dropped), discarded_samples=arr.size - n_opt,
    )


def est_tta(x, flag=2):
    """Triangle-areas method on the cumulative-bias profile.

    For each lag tau = 3..12, sum the areas (tau/2)|Y_{j+2tau} - 2Y_{j+tau}
    + Y_j| over starting points j spaced 2*tau apart; H = slope of the
    log-log fit against tau.  Lags 1 and 2 are skipped: the absolute second
    difference there is still sensitive to the marginal shape of the input
    (heavy tails inflate it), which tilts the whole fit upward.
    """
    y = _profile(x, demeaned(x, 41))
    n = y.size

    lags = np.arange(3, 13)
    stats = np.empty(lags.size)
    for j, tau in enumerate(lags):
        step = 2 * tau
        end = step * ((n - 1) // step)
        heights = np.abs(y[step : end + step : step]
                         - 2.0 * y[tau : end + tau : step] + y[:end:step])
        stats[j] = 0.5 * tau * heights.sum()

    return fit_result("tta", lags, stats, flag, {"norm": flag})
