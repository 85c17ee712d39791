"""Tests for the block-sum least-squares estimators (LSSD / LSV)."""

import math
import re

import numpy as np
import pytest

from hurstkit import aggregation
from hurstkit.aggregation import (
    BlockSumContext,
    _block_sum_std_profile,
    block_sum_std,
    ctm_lssd,
    est_lssd,
    est_lsv,
    fun_cm_lssd,
    fun_cm_lsv,
    fun_dm,
    obj_fun_lsv,
)
from hurstkit.errors import (
    ArgumentError,
    DegenerateSequenceError,
    DomainError,
    InsufficientDataError,
    NonConvergenceError,
    SingularityError,
    SingularSystemError,
)
from hurstkit.generators import FgnSpec, gen_fgn, gen_iid
from hurstkit.harness import estimate_series
from hurstkit.numerics import fixed_point_solve, loc_min_solve
from hurstkit.partition import (
    PreparedSeries,
    cumulative_bias,
    demeaned,
    sample_std,
)
from hurstkit.timedomain import est_central


def rand_series(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).normal(2.0, 3.0, n)


def make_ctx(seed=11, n=400, p=2.0, q=50.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    scales = np.arange(1.0, 41.0)
    stats = rng.uniform(0.5, 4.0, scales.size) * scales**0.6
    return BlockSumContext(n, p, q, scales, stats)


# ---------------------------------------------------------------------------
# block sums


def test_block_sum_std_hand_examples():
    assert block_sum_std([1.0, 1.0, 1.0, 1.0], 2) == 0.0
    # blocks (1+2, 3+4) = (3, 7): std = sqrt(8) = 2*sqrt(2)
    assert block_sum_std([1.0, 2.0, 3.0, 4.0], 2) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-14
    )


def test_block_sum_std_m1_is_sample_std_exactly():
    x = rand_series(0, 101)
    assert block_sum_std(x, 1) == sample_std(x)


def test_block_sum_std_validation():
    with pytest.raises(ArgumentError):
        block_sum_std([1.0, 2.0, 3.0], 2)  # one complete block only
    with pytest.raises(ArgumentError):
        block_sum_std([1.0, 2.0, 3.0, 4.0], 0)


def test_block_profile_matches_literal():
    x = rand_series(1, 500)
    profile = _block_sum_std_profile(np.cumsum(x), 50)
    for m in range(1, 51):
        assert profile[m - 1] == pytest.approx(block_sum_std(x, m), abs=1e-10)


def running_total_profile(x, m_max):
    """The profile by np.std of one gather of block edges per m."""
    totals = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty(m_max)
    for m in range(1, m_max + 1):
        edges = totals[m * np.arange(x.size // m + 1)]
        out[m - 1] = np.std(edges[1:] - edges[:-1], ddof=1)
    return out


@pytest.mark.parametrize("n", [1000, 10007, 30000])
def test_block_profile_matches_per_scale_loops(n):
    # m_max = N//10, the paper's range, as the ablation's every-size arm
    # runs it: beyond sqrt(N) many sizes share one block count k = N//m,
    # and each still takes its own strided pass
    x = rand_series(n, n)
    m_max = n // 10
    profile = _block_sum_std_profile(np.cumsum(x), m_max)
    assert np.array_equal(profile, running_total_profile(x, m_max))
    # block sums by reshape round differently from running-total differences
    direct = np.array([block_sum_std(x, m) for m in range(1, m_max + 1)])
    np.testing.assert_allclose(profile, direct, rtol=1e-12, atol=0)


def test_block_profile_lone_scales_match_per_scale_loop():
    # every size to N//10 of a long series, sizes with a block count of
    # their own and sizes that share one alike
    n = 100003
    x = rand_series(n, n)
    m_max = n // 10
    assert np.array_equal(_block_sum_std_profile(np.cumsum(x), m_max),
                          running_total_profile(x, m_max))
    # running totals of a series with mean 2 lose digits as n grows: against
    # reshaped block sums this one is off by up to 1.8e-12 relative, and the
    # profile of the demeaned series est_lssd reads by 5.6e-15
    z = demeaned(x)
    direct = np.array([block_sum_std(z, m) for m in range(1, m_max + 1)])
    np.testing.assert_allclose(_block_sum_std_profile(cumulative_bias(z), m_max),
                               direct, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# scaling-correction helpers


def test_fun_cm_lssd_examples():
    # u = 10, H = 0.5: sqrt((10-1)/9.5)
    assert fun_cm_lssd(1, 10, 0.5) == pytest.approx(math.sqrt(9.0 / 9.5), abs=1e-12)
    assert fun_cm_lssd(1, 10**9, 0.5) == pytest.approx(1.0, abs=1e-4)
    for hurst in (0.05, 0.3, 0.5, 0.8, 0.95):
        u = 7.3
        c = fun_cm_lssd(10, 73, hurst)
        assert 0.0 < c < math.sqrt(u / (u - 0.5))


def test_fun_dm_examples():
    assert fun_dm(1, 10, 0.5) == pytest.approx(-math.log(10.0) / 9.0, abs=1e-12)
    n = 64
    assert fun_dm(n // 2, n, 0.5) == pytest.approx(
        math.log(n / 2.0) - math.log(2.0), abs=1e-12
    )


def test_fun_dm_singularity_near_one():
    with pytest.raises(SingularityError):
        fun_dm(5, 50, 1.0 - 1e-14)
    # comfortably away from 1 is fine
    fun_dm(5, 50, 0.9999)


def test_fun_cm_lsv_examples():
    for u_m, u_n in ((1, 10), (3, 33), (7, 1000)):
        assert fun_cm_lsv(u_m, u_n, 0.5) == 1.0
    assert fun_cm_lsv(1, 10, 0.75) == pytest.approx(
        (10.0 - math.sqrt(10.0)) / 9.0, abs=1e-12
    )
    for hurst in (0.1, 0.4, 0.6, 0.9):
        assert fun_cm_lsv(4, 90, hurst) > 0.0
    # all three corrections: a float for a scalar m, an array for an array
    m = np.array([[1.0, 4.0], [7.0, 9.0]])
    for fun in (fun_cm_lssd, fun_dm, fun_cm_lsv):
        assert isinstance(fun(4, 90, 0.7), float)
        got = fun(m, 90, 0.7)
        assert isinstance(got, np.ndarray) and got.shape == m.shape
        want = [[fun(v, 90, 0.7) for v in row] for row in m.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# LSSD mapping


def accumulation_ctm_lssd(hurst, ctx):
    """Phi(H) of ctm_lssd, accumulated scale by scale in plain floats."""
    a11 = a12 = a21 = a22 = b1 = b2 = 0.0
    for m, s in zip(ctx.scales.tolist(), ctx.stats.tolist()):
        u = ctx.length / m
        c = math.sqrt((u - u ** (2 * hurst - 1)) / (u - 0.5))
        d = math.log(m) + math.log(u) / (1 - u ** (2 - 2 * hurst))
        w = m**ctx.weight_p
        a11 += 1.0 / w
        a12 += math.log(m) / w
        a21 += d / w
        a22 += d * math.log(m) / w
        b1 += (math.log(s) - math.log(c)) / w
        b2 += d * (math.log(s) - math.log(c)) / w
    return (a11 * (b2 - hurst**ctx.penalty_q) - a21 * b1) / (
        a11 * a22 - a21 * a12
    )


def test_ctm_lssd_matches_accumulation_oracle():
    ctx = make_ctx()
    for hurst in (0.2, 0.5, 0.77):
        want = accumulation_ctm_lssd(hurst, ctx)
        assert ctm_lssd(hurst, ctx) == pytest.approx(want, abs=1e-12)


def test_ctm_lssd_integer_penalty_is_real_below_zero():
    # H^q of a negative H is real for an integer q, so the mapping is the
    # oracle's there as well, default q = 50 included
    for q in (1.0, 3.0, 50.0):
        ctx = make_ctx(q=q)
        for hurst in (-0.3, -0.02):
            want = accumulation_ctm_lssd(hurst, ctx)
            assert ctm_lssd(hurst, ctx) == pytest.approx(want, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_lssd_integer_penalty_passes_through_negative_iterates(monkeypatch):
    # q = 3 on anti-persistent noise steps through H < 0 on its way to a
    # fixed point above 0, as it always did
    seen = []

    def traced(hurst, ctx):
        seen.append(hurst)
        return ctm_lssd(hurst, ctx)

    monkeypatch.setattr(aggregation, "ctm_lssd", traced)
    res = estimate_series(gen_fgn(FgnSpec(0.1, 3000, 1)), "lssd", penalty_q=3.0)
    assert min(seen) < 0.0 < res.hurst < 1.0
    assert "raw_value" not in res.diagnostics


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [0.5, 1e-300])
def test_lssd_non_integer_penalty_below_zero_is_a_domain_error(q):
    # H^q of an iterate below 0 is complex for a non-integer q; the mapping
    # kept its real part with a ComplexWarning per step, so q = 0.5 spent
    # the whole step budget and q = 1e-300 returned an unflagged 1e-6 from
    # a "fixed point" at -0.2455
    x = gen_fgn(FgnSpec(0.7, 3000, 1))
    match = (r"^lssd: H\^penalty_q is not real at the iterate H = -\d\.\d+, "
             rf"penalty_q = {re.escape(repr(q))}$")
    with pytest.raises(DomainError, match=match):
        estimate_series(x, "lssd", penalty_q=q)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method, p", [("lssd", 1e6), ("lsv", 1e6),
                                       ("lssd", 200.0), ("lsv", 200.0)])
def test_weight_that_overflows_names_weight_p(method, p):
    # 54^200 is past the float range: N = 3000 fits block sizes up to 54
    match = (rf"^{method}: the weight m\^weight_p overflows at m = 54, "
             rf"weight_p = {re.escape(repr(p))}$")
    with pytest.raises(DomainError, match=match):
        estimate_series(gen_fgn(FgnSpec(0.7, 3000, 1)), method, weight_p=p)


def test_ctm_lssd_scale_invariance_exact():
    ctx = make_ctx(seed=23)
    rng = np.random.Generator(np.random.PCG64(5))
    for hurst in rng.uniform(0.05, 0.95, 5):
        base = ctm_lssd(hurst, ctx)
        for factor in (1e-6, 0.37, 42.0, 1e6):
            scaled = BlockSumContext(
                ctx.length,
                ctx.weight_p,
                ctx.penalty_q,
                ctx.scales,
                ctx.stats * factor,
            )
            assert ctm_lssd(hurst, scaled) == pytest.approx(base, abs=1e-12)


def test_ctm_lssd_single_scale_is_singular():
    ctx = BlockSumContext(100, 2.0, 50.0, np.array([4.0]), np.array([2.0]))
    with pytest.raises(SingularSystemError):
        ctm_lssd(0.5, ctx)


# ---------------------------------------------------------------------------
# LSV objective


def test_obj_fun_lsv_matches_accumulation_oracle():
    ctx = make_ctx(seed=31)
    for hurst in (0.15, 0.5, 0.85):
        b1 = a11 = a12 = 0.0
        for m, s in zip(ctx.scales, ctx.stats):
            u = ctx.length / m
            c = (u - u ** (2 * hurst - 1)) / (u - 1.0)
            w = m**ctx.weight_p
            b1 += s**4 / w
            a11 += c**2 * m ** (4 * hurst) / w
            a12 += c * m ** (2 * hurst) * s**2 / w
        want = b1 - a12**2 / a11 + hurst ** (ctx.penalty_q + 1) / (
            ctx.penalty_q + 1
        )
        assert obj_fun_lsv(hurst, ctx) == pytest.approx(want, abs=1e-10)


def test_penalty_magnitude():
    # the penalty contribution at H=1, q=50 is 1/51
    assert 1.0**51 / 51.0 == pytest.approx(0.019608, abs=5e-7)


def test_obj_fun_lsv_synthetic_self_consistency():
    n, h0 = 30000, 0.6
    m = np.arange(1.0, n // 10 + 1.0)
    c0 = fun_cm_lsv(m, n, h0)
    grid = np.arange(0.01, 1.0, 0.01)

    # variance-domain model: s^2 = c * m^(2 H0) * sigma^2 -> exact recovery
    ctx = BlockSumContext(n, 2.0, 50.0, m, np.sqrt(c0) * m**h0)
    vals = [obj_fun_lsv(h, ctx) for h in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(h0, abs=1e-9)

    # std-domain variant (s = c * m^H0): still lands within one grid step
    ctx = BlockSumContext(n, 2.0, 50.0, m, c0 * m**h0)
    vals = [obj_fun_lsv(h, ctx) for h in grid]
    assert abs(grid[int(np.argmin(vals))] - h0) <= 0.010001


def test_context_validation():
    # the context's weight and penalty come from options estimate_series checks
    x = rand_series(0, 1000)
    for method in ("lssd", "lsv"):
        with pytest.raises(ArgumentError, match="^weight_p must be"):
            estimate_series(x, method, weight_p=-1.0)
        with pytest.raises(ArgumentError, match="^penalty_q must be"):
            estimate_series(x, method, penalty_q=0.0)


# ---------------------------------------------------------------------------
# full estimators


def test_est_lssd_white_noise_surface():
    res = est_lssd(rand_series(41, 2000))
    assert 0.35 < res.hurst < 0.65
    assert res.config == {"weight_p": 2.0, "penalty_q": 50.0, "epsilon": 1e-4}
    assert res.diagnostics["fixed_point_residual"] < 1e-4
    assert res.diagnostics["n_points"] <= 200
    assert "raw_value" not in res.diagnostics
    # an alternation drives the fixed point below 0: clipped, raw value kept
    for seed in range(1, 6):
        x = np.tile([1.0, -1.0], 2500) + 0.01 * gen_iid("normal", 5000, seed)
        res = est_lssd(x)
        assert res.hurst == aggregation.clip_hurst(0.0)
        assert res.diagnostics["raw_value"] == pytest.approx(-0.85, abs=0.01)


def test_est_lsv_white_noise_surface_and_sandwich():
    from hurstkit.aggregation import _block_context

    x = rand_series(43, 2000)
    res = est_lsv(x)
    assert 0.35 < res.hurst < 0.65
    assert res.config == {"weight_p": 6.0, "penalty_q": 50.0, "epsilon": 1e-4}

    ctx, _ = _block_context(x, 6.0, 50.0)
    eps = res.config["epsilon"]
    mid = obj_fun_lsv(res.hurst, ctx)
    assert mid <= obj_fun_lsv(res.hurst - 10 * eps, ctx)
    assert mid <= obj_fun_lsv(res.hurst + 10 * eps, ctx)


@pytest.mark.parametrize("hurst, seed", [(0.3, 1), (0.5, 2), (0.8, 3)])
def test_est_lsv_evaluates_no_hurst_twice(hurst, seed, monkeypatch):
    # the objective comes from the minimizer, not from one more evaluation
    calls = []

    def recorded(h, ctx):
        calls.append((h, obj_fun_lsv(h, ctx)))
        return calls[-1][1]

    monkeypatch.setattr(aggregation, "obj_fun_lsv", recorded)
    res = est_lsv(gen_fgn(FgnSpec(hurst, 3000, seed)))
    seen = dict(calls)
    assert len(seen) == len(calls)
    assert res.diagnostics["objective"] == seen[res.hurst]


def test_est_lssd_scale_and_shift_stability():
    x = rand_series(47, 1500)
    base = est_lssd(x).hurst
    assert est_lssd(1e6 * x).hurst == pytest.approx(base, abs=1e-9)
    assert est_lssd(x + 1e3).hurst == pytest.approx(base, abs=1e-9)


def test_estimators_reject_short_and_constant():
    for est in (est_lssd, est_lsv):
        with pytest.raises(InsufficientDataError):
            est(rand_series(0, 99))
        with pytest.raises(DegenerateSequenceError):
            est(np.full(500, 3.0))


def test_lssd_lsv_agree_on_fractional_noise():
    for h in (0.3, 0.5, 0.7):
        x = gen_fgn(FgnSpec(h, 30000, 42))
        a = est_lssd(x).hurst
        b = est_lsv(x).hurst
        assert abs(a - b) <= 0.03
        assert abs(a - h) <= 0.05 and abs(b - h) <= 0.05


def test_block_sizes_stop_at_sqrt_n():
    # N = 1e5: 316 block sizes, not the paper's 10000; am and av keep every
    # divisor of the partition
    x = PreparedSeries(gen_fgn(FgnSpec(0.7, 100000, 4)))
    for est in (est_lssd, est_lsv):
        assert est(x).diagnostics["n_points"] == 316
    for r in (1, 2):
        assert est_central(x, r=r).diagnostics["n_points"] == 54


@pytest.mark.parametrize("n", range(100, 110))
def test_short_series_keep_every_size_to_n_over_10(n):
    # isqrt(N) = N//10 = 10 below 110 samples: the paper's sizes, and the
    # estimates of np.std of the shared profile's differences over them,
    # bitwise
    x = rand_series(n, n)
    arr = demeaned(x)
    y = cumulative_bias(arr)
    stats = np.array([np.std(np.diff(y[m - 1 :: m], prepend=0.0), ddof=1)
                      for m in range(1, n // 10 + 1)]) / sample_std(arr)
    scales = np.arange(1.0, n // 10 + 1.0)
    ctx = BlockSumContext(n, 2.0, 50.0, scales, stats)
    raw = fixed_point_solve(lambda h: ctm_lssd(h, ctx), 0.5, 1e-4)
    res = est_lssd(x)
    assert res.diagnostics["n_points"] == 10
    assert res.hurst == aggregation.clip_hurst(raw)
    ctx = BlockSumContext(n, 6.0, 50.0, scales, stats)
    hurst, _ = loc_min_solve(lambda h: obj_fun_lsv(h, ctx), 0.001, 0.999, 1e-4)
    assert est_lsv(x).hurst == hurst


def test_lssd_on_a_slow_sine_fails_fast(monkeypatch):
    # over every size to N//10 the iteration cycled through its 10^4-step
    # budget (0.5 s); over the sizes to sqrt(N) it leaves the reals at once
    calls = []

    def counted(h, ctx):
        calls.append(h)
        return ctm_lssd(h, ctx)

    monkeypatch.setattr(aggregation, "ctm_lssd", counted)
    with pytest.raises(NonConvergenceError):
        est_lssd(np.sin(0.01 * np.arange(5000)))
    assert len(calls) < 100
