"""Tests for the seven time-domain estimators.

Every numeric expectation is either computed by hand, taken from an
independent re-implementation written in plain loops (no code shared with
the package beyond numpy itself), evaluated at higher precision with
mpmath or exact rationals, or taken from the implementation a rewrite
replaced, kept here as an oracle.
"""

import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurstkit
from hurstkit import _cpus, results, timedomain
from hurstkit.aggregation import clip_hurst
from hurstkit.errors import (
    ArgumentError,
    DegenerateSequenceError,
    DomainError,
    HurstkitError,
    InsufficientDataError,
)
from hurstkit.generators import FgnSpec, fgn_autocorr, gen_fgn
from hurstkit.numerics import fit_power_law, fixed_point_solve
from hurstkit.partition import (
    PreparedSeries,
    cumulative_bias,
    demeaned,
    search_opt_seq_len,
)
from hurstkit.results import live_scales
from hurstkit.timedomain import (
    _detrended_stds,
    _fit_sizes,
    _grand_mean_factor,
    _higuchi_lag,
    _live_segments,
    est_central,
    est_dfa,
    est_ghe,
    est_higuchi,
    est_rs,
    est_tta,
    expected_rs,
)


# ---------------------------------------------------------------------------
# independent helpers (kept deliberately naive)


def oracle_partition(n, w, alpha=0.99):
    """Candidate with the most divisors in [w, n'/w]; ties -> largest."""
    best = None
    for cand in range(math.ceil(alpha * n), n + 1):
        pairs = [(d, cand // d) for d in range(2, math.isqrt(cand) + 1)
                 if cand % d == 0]
        divs = sorted({d for pair in pairs for d in pair
                       if w <= d <= cand // w})
        if divs and (best is None or len(divs) >= len(best[1])):
            best = (cand, divs)
    assert best is not None
    return best


def oracle_slope(scales, stats):
    return np.polyfit(np.log(scales), np.log(stats), 1)[0]


def rand_series(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).normal(1.5, 2.0, n)


# ---------------------------------------------------------------------------
# central-moment family (am / av)


def test_central_linear_ramp_gives_unit_hurst():
    # every segment-mean deviation has the same magnitude on a ramp, so the
    # log-log fit is flat and H = 1 + 0
    h = est_central(np.arange(1.0, 17.0), w=2, r=1).hurst
    assert abs(h - 1.0) < 1e-12


def oracle_central_fixed_point(divs, stats, n_opt, r):
    """H = 1 + slope(stats / c^{r/2}) / r with c = 1 - k^{2H-2} (times
    k/(k-1) for the ddof=1 variance), iterated from the ordinary fit."""
    h = 1.0 + oracle_slope(divs, stats) / r
    if not 0.0 < h < 1.0:
        return h
    for _ in range(1000):
        h = min(max(h, 1e-6), 1.0 - 1e-6)
        adjusted = []
        for m, s in zip(divs, stats):
            k = n_opt / m
            c = 1.0 - k ** (2.0 * h - 2.0)
            if r == 2:
                c = c * k / (k - 1.0)
            adjusted.append(s / c ** (r / 2.0))
        new = min(max(1.0 + oracle_slope(divs, adjusted) / r, 1e-6), 1.0 - 1e-6)
        if abs(new - h) < 1e-14:
            break
        h = new
    return new


@pytest.mark.parametrize("r", [1, 2])
def test_central_matches_independent_oracle(r):
    # the fGn prefix is long (n_opt >= 2e5) and strongly correlated: there
    # the differences of the running total that give the block means cancel
    # most
    cases = [(rand_series(seed, 1000), 5) for seed in range(5)]
    cases.append((gen_fgn(FgnSpec(0.9, 250_000, 1)), 50))
    for x, w in cases:
        n_opt, divs = oracle_partition(x.size, w)
        assert x.size < 2e5 or n_opt >= 2e5
        stats = []
        for m in divs:
            means = [x[i * m : (i + 1) * m].mean() for i in range(n_opt // m)]
            if r == 1:
                grand = x[: len(x)].mean()
                stats.append(np.mean([abs(mu - grand) for mu in means]))
            else:
                stats.append(np.var(means, ddof=1))
        res = est_central(x, w=w, r=r)
        plain = 1.0 + oracle_slope(divs, stats) / r
        assert res.diagnostics["uncorrected_hurst"] == pytest.approx(plain, abs=1e-9)
        want = oracle_central_fixed_point(divs, stats, n_opt, r)
        assert res.hurst == pytest.approx(want, abs=1e-9)


def _fgn_covariance(hurst, n):
    rho = np.array([fgn_autocorr(t, hurst) for t in range(n)])
    return rho[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7, 0.9])
def test_grand_mean_factor_is_exact_fgn_expectation(hurst):
    # Exact expectations from the unit-variance fGn covariance: with C the
    # covariance of the k block means, sum_i E(mean_i - grand)^2 is
    # tr(C) - sum(C)/k.  am averages it over k, av divides it by k - 1.
    n = 240
    cov = _fgn_covariance(hurst, n)
    for m in (2, 3, 5, 8, 12, 24, 40, 60, 120):
        k = n // m
        blocks = np.kron(np.eye(k), np.full((1, m), 1.0 / m))
        c_means = blocks @ cov @ blocks.T
        spread = np.trace(c_means) - c_means.sum() / k
        for r, want in ((1, spread / k), (2, spread / (k - 1))):
            got = m ** (2.0 * hurst - 2.0) * _grand_mean_factor(
                np.array([float(m)]), n, hurst, r
            )[0]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (m, r)


def _fgn_by_cholesky(hurst, n, seed):
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
    return np.linalg.cholesky(_fgn_covariance(hurst, n)) @ z


def test_central_near_unit_hurst_is_finite_and_warning_free():
    # near H = 1 the factor 1 - k^{2H-2} tends to 0; iterates are clipped
    # inside (0, 1), and an uncorrected estimate outside (0, 1) is returned
    # as it is
    walk = np.cumsum(rand_series(7, 3000) - 1.5)
    inputs = {
        "fgn-0.95": _fgn_by_cholesky(0.95, 2000, 3),
        "ramp": np.arange(3000.0),
        "walk": walk,
    }
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for name, x in inputs.items():
            for r in (1, 2):
                for flag in (1, 2):
                    res = est_central(x, w=10, r=r, flag=flag)
                    assert math.isfinite(res.hurst), (name, r, flag)
                    outside = not 0.0 < res.hurst < 1.0
                    assert res.diagnostics["out_of_range"] is outside
                    if outside:
                        assert res.hurst == res.diagnostics["uncorrected_hurst"]
            for r in (1, 2):
                c = _grand_mean_factor(np.array([10.0, 100.0]), 2000, 1.0 - 1e-6, r)
                assert np.all(c > 0.0) and np.all(np.isfinite(c))


def np_diff_central(x, w, r, flag):
    """est_central as written before its ufunc rewrite, kept as an oracle:
    block means by np.diff, np.var, and one fit_power_law per refit.
    Returns (hurst, uncorrected_hurst, residual_norm)."""
    arr = demeaned(x)
    n_opt, factors = search_opt_seq_len(arr.size, w)
    y = cumulative_bias(arr)

    def scale_stat(m):
        means = np.diff(y[m - 1 : n_opt : m], prepend=0.0) / m
        if r == 1:
            return float(np.abs(means).mean())
        return float(np.var(means, ddof=1))

    scales, stats, _ = live_scales(factors, [scale_stat(m) for m in factors])

    def corrected_fit(hurst):
        c = _grand_mean_factor(scales, n_opt, hurst, r)
        return fit_power_law(scales, stats / c ** (r / 2.0), flag)

    def corrected_hurst(hurst):
        return clip_hurst(1.0 + corrected_fit(hurst)[0].slope / r)

    fit, resid = fit_power_law(scales, stats, flag)
    uncorrected = 1.0 + fit.slope / r
    hurst = uncorrected
    if 0.0 < uncorrected < 1.0:
        hurst = fixed_point_solve(
            corrected_hurst, clip_hurst(uncorrected), results._MODEL_EPS
        )
        _, resid = corrected_fit(hurst)
    return hurst, uncorrected, resid


@pytest.mark.parametrize("length, w", [(30000, 50), (2000, 10)])
@pytest.mark.parametrize("hurst", [0.3, 0.7, 0.9])
@pytest.mark.parametrize("flag", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_central_is_bitwise_the_np_diff_loop(r, flag, hurst, length, w):
    x = gen_fgn(FgnSpec(hurst, length, 11))
    res = est_central(x, w=w, r=r, flag=flag)
    got = (res.hurst, res.diagnostics["uncorrected_hurst"],
           res.diagnostics["residual_norm"])
    assert got == np_diff_central(x, w, r, flag)


def test_central_validation_and_degenerate():
    with pytest.raises(InsufficientDataError):
        est_central(rand_series(0, 2499), w=50)
    with pytest.raises(DegenerateSequenceError):
        est_central(np.ones(1000), w=5)


# ---------------------------------------------------------------------------
# generalized Hurst exponent


def test_ghe_linear_profile_gives_unit_hurst():
    # x constant after the first sample: every lag-tau profile increment is
    # exactly tau times the same constant, so the slope is exactly q
    x = np.full(100, 1.0)
    x[0] = 5.0
    res = est_ghe(x, 1.0)
    assert abs(res.hurst - 1.0) < 1e-9


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_ghe_matches_independent_oracle(q):
    for seed in range(3):
        x = rand_series(10 + seed, 300)
        v = x - x.mean()
        n = v.size
        y = [v[: i + 1].sum() - (i + 1) * v.sum() / n for i in range(n)]
        stats = []
        for tau in range(1, 11):
            stats.append(np.mean([abs(y[i + tau] - y[i]) ** q for i in range(n - tau)]))
        want = oracle_slope(range(1, 11), stats) / q
        assert est_ghe(x, q).hurst == pytest.approx(want, abs=1e-9)


def test_ghe_validation():
    with pytest.raises(ArgumentError, match="^q_order must be"):
        hurstkit.estimate_series(rand_series(0, 100), "ghe", q_order=0.0)
    with pytest.raises(InsufficientDataError):
        est_ghe(rand_series(0, 20))
    with pytest.raises(DegenerateSequenceError):
        est_ghe(np.full(100, 3.3))


# ---------------------------------------------------------------------------
# Higuchi


def test_higuchi_lag_schedule():
    assert [_higuchi_lag(i) for i in range(1, 11)] == [1, 2, 3, 4, 5, 6, 8, 9, 11, 13]


def test_higuchi_matches_independent_oracle():
    for seed in range(3):
        x = rand_series(20 + seed, 400)
        v = x - x.mean()
        n = v.size
        y = np.array([v[: i + 1].sum() - (i + 1) * v.sum() / n for i in range(n)])
        lags, stats = [], []
        for idx in range(1, 11):
            m = idx if idx <= 4 else int(2.0 ** ((idx + 5) / 4.0))
            k = n // m
            diffs = [abs(y[j + m] - y[j]) for j in range(0, (k - 1) * m)]
            lags.append(m)
            stats.append((n - 1) * np.mean(diffs) / m**2)
        want = 2.0 + oracle_slope(lags, stats)
        assert est_higuchi(x).hurst == pytest.approx(want, abs=1e-9)


def test_higuchi_validation():
    with pytest.raises(InsufficientDataError):
        est_higuchi(rand_series(0, 64))
    with pytest.raises(DegenerateSequenceError):
        est_higuchi(np.zeros(100))


# ---------------------------------------------------------------------------
# DFA


def test_dfa_matches_independent_oracle():
    for seed in range(3):
        x = rand_series(30 + seed, 600)
        v = x - x.mean()
        n_opt, divs = oracle_partition(600, 5)
        u = v[:n_opt]
        z = np.array(
            [u[: i + 1].sum() - (i + 1) * u.sum() / n_opt for i in range(n_opt)]
        )
        stats = []
        for m in divs:
            t = np.arange(1.0, m + 1.0)
            stds = []
            for i in range(n_opt // m):
                seg = z[i * m : (i + 1) * m]
                slope, intercept = np.polyfit(t, seg, 1)
                resid = seg - (intercept + slope * t)
                stds.append(np.std(resid, ddof=1))
            stats.append(np.mean([s for s in stds if s > 0]))
        want = oracle_slope(divs, stats)
        assert est_dfa(x, w=5).hurst == pytest.approx(want, abs=1e-9)


def lstsq_detrended_stds(segments):
    """Row residual stds as est_dfa computed them before the closed form."""
    m = segments.shape[1]
    design = np.column_stack([np.ones(m), np.arange(1.0, m + 1.0)])
    coef, *_ = np.linalg.lstsq(design, segments.T, rcond=None)
    return (segments.T - design @ coef).std(axis=0, ddof=1)


def dfa_segments(x, w):
    """Per scale, the (k, m) segments of the profile est_dfa detrends."""
    v = x - x.mean()
    n_opt, factors = search_opt_seq_len(v.size, w)
    z = cumulative_bias(v[:n_opt])
    return [z.reshape(n_opt // m, m) for m in factors]


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_dfa_detrending_matches_lstsq_oracle(hurst):
    x = gen_fgn(FgnSpec(hurst, 30000, 3))
    for segments in dfa_segments(x, 50):
        got = _detrended_stds(segments, 2)
        want = lstsq_detrended_stds(segments)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got.mean() == pytest.approx(want.mean(), rel=1e-12, abs=0)


def test_dfa_detrending_accurate_on_near_linear_rows():
    # a steep trend over unit noise: sum z^2 - b^2 sum t^2 would cancel
    # about 8 digits here; the explicit residual keeps all but about 3
    rng = np.random.Generator(np.random.PCG64(4))
    m = 64
    t = np.arange(1, m + 1)
    rows = (rng.integers(-10**6, 10**6, (20, 1)) + 1000 * t
            + rng.integers(-1, 2, (20, m)))
    tc = [Fraction(2 * i - m - 1, 2) for i in t.tolist()]
    want = []
    for row in rows.tolist():  # exact rational least squares
        dev = [y - Fraction(sum(row), m) for y in row]
        slope = sum(c * d for c, d in zip(tc, dev)) / sum(c * c for c in tc)
        ss = sum((d - slope * c) ** 2 for c, d in zip(tc, dev))
        want.append(math.sqrt(ss / (m - 1)))
    got = _detrended_stds(rows.astype(float), 2)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)


def test_dfa_exact_segments_excluded_as_with_lstsq():
    # integers summing to zero, then zeros: the profile is exactly 0 over the
    # second half, so every segment there detrends exactly
    rng = np.random.Generator(np.random.PCG64(8))
    x = np.zeros(1200)
    x[:600] = rng.integers(-9, 10, 600)
    x[0] -= x.sum()
    want = 0
    for segments in dfa_segments(x, 5):
        stds = _detrended_stds(segments, 2)
        assert np.array_equal(stds == 0.0, lstsq_detrended_stds(segments) == 0.0)
        want += int(np.count_nonzero(stds == 0.0))
    assert want > 0
    assert est_dfa(x, w=5).diagnostics["excluded_segments"] == want


def test_dfa_exact_scale_degenerate_as_with_lstsq():
    # a zero prefix and a balanced tail outside the partition: every segment
    # of every scale detrends exactly, yet the series is not constant
    n = 602
    n_opt, _ = search_opt_seq_len(n, 5)
    assert n - n_opt >= 2
    x = np.zeros(n)
    x[n_opt], x[n_opt + 1] = 3.0, -3.0
    segments = dfa_segments(x, 5)[0]
    assert not np.any(lstsq_detrended_stds(segments))
    with pytest.raises(DegenerateSequenceError, match="detrends exactly"):
        est_dfa(x, w=5)


@pytest.mark.parametrize("flag", [1, 2])
def test_dfa_two_point_rows_detrend_to_zero(flag):
    # a line through two points fits both; its residual used to round to a
    # nonzero std on 113 (flag 1) and 7549 (flag 2) of these 15000 rows
    z = cumulative_bias(demeaned(gen_fgn(FgnSpec(0.7, 30000, 5))))
    stds = _detrended_stds(z.reshape(-1, 2), flag)
    assert stds.shape == (15000,)
    assert np.count_nonzero(stds) == 0


@pytest.mark.parametrize("flag", [1, 2])
def test_dfa_window_two_is_degenerate_at_both_norms(flag):
    with pytest.raises(DegenerateSequenceError):
        est_dfa(gen_fgn(FgnSpec(0.7, 3000, 5)), w=2, flag=flag)


def test_dfa_flag1_close_to_flag2_on_clean_data():
    x = rand_series(77, 900)
    h2 = est_dfa(x, w=5, flag=2).hurst
    h1 = est_dfa(x, w=5, flag=1).hurst
    assert abs(h1 - h2) < 0.15


def test_dfa_constant_series_degenerate():
    with pytest.raises(DegenerateSequenceError):
        est_dfa(np.full(600, 2.0), w=5)


# ---------------------------------------------------------------------------
# expected R/S and rescaled range


def test_expected_rs_m2_exact():
    assert expected_rs(2) == 0.75


def test_expected_rs_against_mpmath():
    mpmath.mp.dps = 50
    for m in (2, 3, 4, 10, 50, 200, 340, 341, 343, 344, 500, 1000, 5001, 20000):
        tail = mpmath.fsum(mpmath.sqrt(mpmath.mpf(m - i) / i) for i in range(1, m))
        exact = (
            (m - mpmath.mpf("0.5"))
            / m
            * mpmath.gamma(mpmath.mpf(m - 1) / 2)
            / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(m) / 2))
            * tail
        )
        assert expected_rs(m) == pytest.approx(float(exact), rel=1e-13)


def test_expected_rs_strictly_increasing():
    vals = [expected_rs(m) for m in range(2, 1001)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rs_matches_independent_oracle():
    for corrected in (False, True):
        x = rand_series(40, 600)
        v = x - x.mean()
        n_opt, divs = oracle_partition(600, 5)
        stats = []
        for m in divs:
            ratios = []
            for i in range(n_opt // m):
                seg = v[i * m : (i + 1) * m]
                bias = seg - seg.mean()
                prof = np.cumsum(bias)
                s = np.std(bias, ddof=1)
                if s > 0:
                    ratios.append((prof.max() - prof.min()) / s)
            ratio = np.mean(ratios)
            if corrected:
                ratio = ratio - expected_rs(m) + math.sqrt(math.pi * m / 2.0)
            stats.append(ratio)
        want = oracle_slope(divs, stats)
        got = est_rs(x, w=5, corrected=corrected)
        assert got.hurst == pytest.approx(want, abs=1e-9)
        assert got.config["corrected"] is corrected


def test_rs_in_place_profile_is_bitwise_two_buffer_form(monkeypatch):
    # the profile overwrites the demeaned rows once their std is taken; the
    # ratios equal the form that keeps both arrays, bit for bit
    x = gen_fgn(FgnSpec(0.7, 30000, 4))
    arr = demeaned(x)
    n_opt, factors = search_opt_seq_len(arr.size, 50)
    got = []
    scale_map = timedomain._map_scales

    def recording_map(stat, factors, n_opt):
        ratios = scale_map(stat, factors, n_opt)
        got.extend(ratio for ratio, _ in ratios)
        return ratios

    monkeypatch.setattr(timedomain, "_map_scales", recording_map)
    est_rs(x, 50)
    want = []
    for m in _fit_sizes(factors):
        segments = arr[:n_opt].reshape(n_opt // m, m)
        bias = segments - segments.mean(axis=1, keepdims=True)
        profile = np.cumsum(bias, axis=1)
        ranges = profile.max(axis=1) - profile.min(axis=1)
        stds = np.sqrt(np.einsum("ij,ij->i", bias, bias) / (m - 1))
        assert (stds > 0).all()
        want.append(float((ranges / stds).mean()))
    assert got == want


def mask_scale_stats(x, w, method, corrected=False):
    """Per visited scale, (statistic, segments dropped) of rs or dfa (flag
    2) as written before their ufunc rewrite: .mean, np.cumsum, .max, .min
    and a boolean mask of the live segments."""
    arr = demeaned(x)
    n_opt, factors = search_opt_seq_len(arr.size, w)
    z = cumulative_bias(arr)[:n_opt]
    out = []
    for m in _fit_sizes(factors):
        if method == "rs":
            segments = arr[:n_opt].reshape(n_opt // m, m)
            bias = segments - segments.mean(axis=1, keepdims=True)
            spread = np.sqrt(np.einsum("ij,ij->i", bias, bias) / (m - 1))
            profile = np.cumsum(bias, axis=1, out=bias)
            ranges = profile.max(axis=1) - profile.min(axis=1)
        else:
            segments = z.reshape(n_opt // m, m)
            tc = np.arange(1.0, m + 1.0) - (m + 1) / 2.0
            resid = segments - segments.mean(axis=1, keepdims=True)
            resid -= ((resid @ tc) / (tc @ tc))[:, None] * tc
            spread = np.sqrt(np.einsum("ij,ij->i", resid, resid) / (m - 1))
        keep = spread > 0.0
        if method == "rs":
            stat = float((ranges[keep] / spread[keep]).mean())
            if corrected:
                stat = stat - expected_rs(m) + math.sqrt(math.pi * m / 2.0)
        else:
            stat = float(spread[keep].mean())
        out.append((stat, int(keep.size - keep.sum())))
    return out


def _zero_tail():
    # integers summing to 0, then zeros: the demeaned series and its profile
    # are exactly 0 over the tail, so segments drop there in rs and dfa
    x = np.zeros(3000)
    x[:1500] = np.random.Generator(np.random.PCG64(9)).integers(-9, 10, 1500)
    x[0] -= x.sum()
    return x


@pytest.mark.parametrize("estimate, method, corrected", [
    (lambda x: est_rs(x, w=10), "rs", False),
    (lambda x: est_rs(x, w=10, corrected=True), "rs", True),
    (lambda x: est_dfa(x, w=10), "dfa", False),
], ids=["rs", "rs-corrected", "dfa"])
@pytest.mark.parametrize("case", ["fgn", "zero-tail"])
def test_scale_stats_are_bitwise_the_mask_formulas(monkeypatch, estimate,
                                                   method, corrected, case):
    x = gen_fgn(FgnSpec(0.7, 30000, 4)) if case == "fgn" else _zero_tail()
    got = []
    scale_map = timedomain._map_scales

    def recording_map(stat, factors, n_opt):
        stats = scale_map(stat, factors, n_opt)
        got.extend(stats)
        return stats

    monkeypatch.setattr(timedomain, "_map_scales", recording_map)
    estimate(x)
    want = mask_scale_stats(x, 10, method, corrected)
    assert got == want
    assert (sum(dropped for _, dropped in want) > 0) is (case == "zero-tail")


# ---------------------------------------------------------------------------
# window sizes dfa and rs visit


def count_capped_fit_sizes(factors):
    """_fit_sizes as written before its density bound: all of up to 48
    sizes, otherwise the divisors nearest a log-even grid of 48 points."""
    if len(factors) <= 48:
        return factors
    logs = np.log(factors)
    grid = np.linspace(logs[0], logs[-1], 48)
    nearest = np.abs(logs - grid[:, None]).argmin(axis=1)
    return [factors[i] for i in np.unique(nearest)]


@pytest.mark.parametrize("n, w", [(1000000, 50), (30000, 10), (5000, 50)])
def test_fit_sizes_within_both_bounds_are_the_count_capped_list(n, w):
    # 176 sizes over 2.53 decades at N = 1e6 and 58 over 2.47 at w = 10 ask
    # for 50 and 48 grid points at 19 per decade: the cap of 48 binds, and
    # the 6 sizes over 0.30 decades at N = 5000 are fitted whole
    _, factors = search_opt_seq_len(n, w)
    assert timedomain._MAX_FIT_SIZES == 48
    assert timedomain._SIZES_PER_DECADE == 19
    assert _fit_sizes(factors) == count_capped_fit_sizes(factors)
    if len(factors) <= 48:
        assert _fit_sizes(factors) is factors


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(2, 10**7), min_size=2, max_size=400,
                unique=True).map(sorted))
def test_fit_sizes_thins_a_long_partition(factors):
    sizes = _fit_sizes(factors)
    decades = math.log10(factors[-1] / factors[0])
    bound = min(48, math.ceil(19 * decades) + 1)
    assert 2 <= len(sizes) <= bound
    assert (sizes is factors) is (len(factors) <= bound)
    assert sizes[0] == factors[0] and sizes[-1] == factors[-1]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    assert set(sizes) <= set(factors)
    assert all(type(m) is int for m in sizes)


def test_fit_sizes_keeps_each_nearest_divisor_once():
    # a gap in log spacing: many grid points fall nearest to 60 or 1e6
    sizes = _fit_sizes(list(range(2, 61)) + [10**6])
    assert sizes[-2:] == [60, 10**6]
    assert len(sizes) < 48


def test_thinning_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, about 1.3 MiB and a few
    # ms in every process; a short path is thinned too, so none may pay it
    run_in_fresh_process(
        "import sys; from hurstkit.timedomain import _fit_sizes; "
        "assert len(_fit_sizes(list(range(10, 100)))) < 90; "
        "assert 'numpy.ma' not in sys.modules, 'imported'")


def test_dfa_and_rs_fit_20_sizes_at_3e4():
    # 30 window sizes over 1.07 decades: 22 grid points at 19 per decade,
    # nearest to 20 distinct sizes for dfa and rs; am and av fit every one
    x = PreparedSeries(gen_fgn(FgnSpec(0.7, 30000, 4)))
    for estimate in (est_dfa, est_rs):
        assert estimate(x).diagnostics["n_points"] == 20
    for r in (1, 2):
        assert est_central(x, r=r).diagnostics["n_points"] == 30


def test_committed_ablation_meets_its_rule():
    # tools/scale_ablation.py's table: in every cell the capped sizes keep
    # the sd within 5 % of every size's, move the mean by <= 0.001 and fail
    # no more often
    path = Path(__file__).resolve().parents[1] / "tools" / "scale_ablation.tsv"
    header, *rows = [line.split("\t") for line in
                     path.read_text(encoding="utf-8").splitlines()]
    cells = [dict(zip(header, row)) for row in rows]
    assert {(c["n"], c["w"]) for c in cells} == {
        ("10000", "50"), ("30000", "50"), ("100000", "50"), ("300000", "50"),
        ("1000000", "50"), ("30000", "10"),
        ("1000", "-"), ("30000", "-"), ("100000", "-"), ("1000000", "-")}
    assert len(cells) == 10 * 4 * 2
    for cell in cells:
        assert float(cell["sd_ratio"]) <= 1.05, cell
        assert abs(float(cell["difference"])) <= 0.001, cell
        assert int(cell["failures_capped"]) <= int(cell["failures_every"])
        assert cell["rule"] == "held"
        n, every, capped = (int(cell[key]) for key in
                            ("n", "sizes_every", "sizes_capped"))
        if cell["method"] in ("dfa", "rs"):
            assert capped <= 48 and capped < every
        else:
            assert (every, capped) == (n // 10, math.isqrt(n))


def test_rs_corrected_closer_to_half_on_white_noise():
    # the small-sample correction exists to remove the classic upward bias
    errs_plain, errs_corr = [], []
    for seed in range(3):
        x = rand_series(50 + seed, 3000)
        errs_plain.append(abs(est_rs(x, w=50).hurst - 0.5))
        errs_corr.append(abs(est_rs(x, w=50, corrected=True).hurst - 0.5))
    assert np.mean(errs_corr) < np.mean(errs_plain)


def test_rs_constant_series_degenerate():
    with pytest.raises(DegenerateSequenceError):
        est_rs(np.full(600, 1.0), w=5)


@pytest.mark.parametrize("estimate", [
    lambda x: est_rs(x),
    lambda x: est_rs(x, corrected=True),
    lambda x: est_dfa(x),
    lambda x: est_dfa(x, flag=1),
], ids=["rs", "rs-corrected", "dfa", "dfa-norm1"])
def test_overflowed_segment_spreads_are_a_domain_error(estimate):
    # every segment std of 1e200 x fGn is inf: rs read each R/S ratio as 0,
    # and the corrected statistic as a function of m alone, a plausible H.
    # Warnings are errors here, so the norm=1 std's overflow in its square
    # must stay silent until the DomainError
    x = 1e200 * gen_fgn(FgnSpec(0.7, 3000, 42))
    with pytest.raises(DomainError,
                       match="^the spread of a segment of size 50 overflows$"):
        estimate(x)


def mask_live_segments(spread, m, cause):
    """_live_segments as written before its max pass."""
    if not np.isfinite(spread).all():
        raise DomainError(f"the spread of a segment of size {m} overflows")
    keep = spread > 0.0
    if not keep.any():
        raise DegenerateSequenceError(f"every segment of size {m} {cause}")
    return keep, int(keep.size - keep.sum())


def _outcome(live, spread):
    try:
        keep, dropped = live(spread, 7, "is constant")
    except HurstkitError as exc:
        return type(exc), str(exc)
    return spread[keep].tolist(), dropped


@pytest.mark.parametrize("spread", [
    [math.inf], [math.nan, 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, 2.0],
    [0.0, math.nan], [0.0, math.inf], [2.0, 0.0, 3.0, 0.0],
])
def test_live_segments_is_the_mask_rule(spread):
    spread = np.array(spread)
    assert _outcome(_live_segments, spread) == _outcome(mask_live_segments,
                                                        spread)


# ---------------------------------------------------------------------------
# triangle areas


def test_tta_matches_independent_oracle():
    for seed in range(3):
        x = rand_series(60 + seed, 500)
        v = x - x.mean()
        n = v.size
        y = np.array([v[: i + 1].sum() - (i + 1) * v.sum() / n for i in range(n)])
        stats = []
        for tau in range(3, 13):
            total = 0.0
            j = 0
            while j + 2 * tau <= n - 1:
                total += 0.5 * tau * abs(y[j + 2 * tau] - 2 * y[j + tau] + y[j])
                j += 2 * tau
            stats.append(total)
        want = oracle_slope(range(3, 13), stats)
        assert est_tta(x).hurst == pytest.approx(want, abs=1e-9)


def index_array_tta_stats(x):
    """The ten triangle-area sums of est_tta as written before it read the
    profile by strided slices: an index array and three gathers per lag."""
    y = cumulative_bias(demeaned(x, 41))
    n = y.size
    stats = []
    for tau in range(3, 13):
        count = (n - 1) // (2 * tau)
        start = 2 * tau * np.arange(count)
        heights = np.abs(y[start + 2 * tau] - 2.0 * y[start + tau] + y[start])
        stats.append(0.5 * tau * heights.sum())
    return stats


@pytest.mark.parametrize("n", [41, 1000, 30000, 30001])
def test_tta_stats_are_bitwise_the_index_array_form(monkeypatch, n):
    x = gen_fgn(FgnSpec(0.7, n, 4))
    got = []
    fit = timedomain.fit_result

    def recording_fit(method, scales, stats, *args, **kwargs):
        got.extend(stats)
        return fit(method, scales, stats, *args, **kwargs)

    monkeypatch.setattr(timedomain, "fit_result", recording_fit)
    est_tta(x)
    assert got == index_array_tta_stats(x)


def test_tta_validation():
    with pytest.raises(InsufficientDataError):
        est_tta(rand_series(0, 40))
    with pytest.raises(DegenerateSequenceError):
        est_tta(np.full(100, 4.2))


# ---------------------------------------------------------------------------
# threaded scale map


@pytest.mark.parametrize(
    "runner, mapped",
    [
        (lambda x: est_central(x, 50, 1, 2), False),
        (lambda x: est_central(x, 50, 2, 2), False),
        (lambda x: est_dfa(x, 50, 1), True),
        (lambda x: est_dfa(x, 50, 2), True),
        (lambda x: est_rs(x, 50, 2, False), True),
        (lambda x: est_rs(x, 50, 2, True), True),
    ],
    ids=["am", "av", "dfa-norm1", "dfa", "rs", "rs-corrected"],
)
def test_threaded_scale_map_matches_serial(monkeypatch, runner, mapped):
    # four workers even on one CPU, so the threaded branch runs everywhere
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: 4)
    threads = set()
    scale_map = timedomain._map_scales

    def recording_map(stat, factors, n_opt):
        def recorded(m):
            threads.add(threading.current_thread())
            return stat(m)
        return scale_map(recorded, factors, n_opt)

    monkeypatch.setattr(timedomain, "_map_scales", recording_map)

    def outcome(floor, x):
        monkeypatch.setattr(timedomain, "_THREADED_MIN_SAMPLES", floor)
        try:
            return runner(x).to_dict()
        except HurstkitError as exc:  # raised in a worker for dfa and rs
            return type(exc), str(exc)

    workers = set()
    for x in (gen_fgn(FgnSpec(0.7, 3000, 3)), rand_series(8, 3000),
              np.full(3000, 2.0)):
        threads.clear()
        serial = outcome(10**12, x)
        assert threads <= {threading.main_thread()}
        assert outcome(0, x) == serial
        workers |= threads - {threading.main_thread()}
    assert bool(workers) is mapped


def run_in_fresh_process(code):
    """Run `code` in a new interpreter that imports this hurstkit."""
    src = str(Path(hurstkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_import_leaves_thread_pool_unloaded():
    # concurrent.futures imports logging: only a threaded scale map pays
    run_in_fresh_process(
        "import sys, hurstkit, hurstkit.cli; "
        "assert 'concurrent.futures' not in sys.modules, 'imported'")


# ---------------------------------------------------------------------------
# shared surface checks


@pytest.mark.parametrize(
    "runner, method, config_keys",
    [
        (lambda x: est_central(x, 50, 1, 2), "am", {"window", "r", "norm"}),
        (lambda x: est_central(x, 50, 2, 2), "av", {"window", "r", "norm"}),
        (lambda x: est_ghe(x, 1.0, 2), "ghe", {"q_order", "norm"}),
        (lambda x: est_higuchi(x, 2), "hm", {"norm"}),
        (lambda x: est_dfa(x, 50, 2), "dfa", {"window", "norm"}),
        (lambda x: est_rs(x, 50, 2, False), "rs", {"window", "norm", "corrected"}),
        (lambda x: est_tta(x, 2), "tta", {"norm"}),
    ],
)
def test_result_surface(runner, method, config_keys):
    res = runner(rand_series(99, 10000))
    assert res.method == method
    assert set(res.config) == config_keys
    for key in ("residual_norm", "n_points", "excluded_segments",
                "discarded_samples", "out_of_range"):
        assert key in res.diagnostics
    assert 0.0 < res.hurst < 1.0
    assert res.diagnostics["out_of_range"] is False
    assert res.diagnostics["n_points"] >= 2


@pytest.mark.parametrize("runner", [est_ghe, est_higuchi, est_tta])
def test_periodic_profile_drops_zero_lags(runner):
    # the profile of +1, -1, ... is 1, 0, 1, 0, ...: every even lag has a
    # statistic of 0 and drops out, the odd lags are all alike, so H is ~0
    res = runner(np.tile([1.0, -1.0], 5000))
    assert abs(res.hurst) < 1e-3
    assert res.diagnostics["excluded_segments"] > 0
    assert res.diagnostics["n_points"] == 10 - res.diagnostics["excluded_segments"]


def test_exact_shift_invariance_on_balanced_integers():
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.integers(-40, 40, 300).astype(float)
    x[0] -= x.sum() % x.size  # make the mean an exact integer
    shifted = x + 7.0
    assert est_ghe(x, 1.0).hurst == est_ghe(shifted, 1.0).hurst
    assert est_tta(x).hurst == est_tta(shifted).hurst
    assert est_higuchi(x).hurst == est_higuchi(shifted).hurst
