"""Tests for the block-sum least-squares estimators (LSSD / LSV)."""

import math

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
    InsufficientDataError,
    SingularityError,
    SingularSystemError,
)
from hurstkit.generators import FgnSpec, gen_fgn, gen_iid
from hurstkit.harness import estimate_series
from hurstkit.partition import sample_std


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
    profile = _block_sum_std_profile(x, 50)
    for m in range(1, 51):
        assert profile[m - 1] == pytest.approx(block_sum_std(x, m), abs=1e-10)


def running_total_profile(x, m_max):
    """The profile as it ran before scales were grouped: one gather per m."""
    totals = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty(m_max)
    for m in range(1, m_max + 1):
        edges = totals[m * np.arange(x.size // m + 1)]
        out[m - 1] = np.std(edges[1:] - edges[:-1], ddof=1)
    return out


@pytest.mark.parametrize("n", [1000, 10007, 30000])
def test_block_profile_matches_per_scale_loops(n):
    # m_max = N//10 makes many scales share one block count k = N//m
    x = rand_series(n, n)
    m_max = n // 10
    profile = _block_sum_std_profile(x, m_max)
    assert np.array_equal(profile, running_total_profile(x, m_max))
    # block sums by reshape round differently from running-total differences
    direct = np.array([block_sum_std(x, m) for m in range(1, m_max + 1)])
    np.testing.assert_allclose(profile, direct, rtol=1e-12, atol=0)


def test_block_profile_lone_scales_match_per_scale_loop():
    # 370 of the 622 block counts at n = 100003 hold one scale each
    n = 100003
    x = rand_series(n, n)
    m_max = n // 10
    assert np.array_equal(_block_sum_std_profile(x, m_max),
                          running_total_profile(x, m_max))
    # running totals of a series with mean 2 lose digits as n grows: against
    # reshaped block sums this one is off by up to 1.8e-12 relative, and the
    # standardized series est_lssd passes by 5e-15
    z = (x - x.mean()) / sample_std(x)
    direct = np.array([block_sum_std(z, m) for m in range(1, m_max + 1)])
    np.testing.assert_allclose(_block_sum_std_profile(z, m_max), direct,
                               rtol=1e-12, atol=0)


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


def test_ctm_lssd_matches_accumulation_oracle():
    ctx = make_ctx()
    for hurst in (0.2, 0.5, 0.77):
        a11 = a12 = a21 = a22 = b1 = b2 = 0.0
        for m, s in zip(ctx.scales, ctx.stats):
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
        want = (a11 * (b2 - hurst**ctx.penalty_q) - a21 * b1) / (
            a11 * a22 - a21 * a12
        )
        assert ctm_lssd(hurst, ctx) == pytest.approx(want, abs=1e-12)


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
        assert res.diagnostics["raw_value"] == pytest.approx(-0.70, abs=0.01)


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
