"""Tests for the regression and scalar-solver primitives.

The least-squares solver is checked against the normal equations, the
least-absolute-deviations path against an exact linear-programming solution,
also on inputs full of ties and on dfa's batched rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from hurstkit import estimate_series
from hurstkit.errors import DomainError, NonConvergenceError
from hurstkit.generators import FgnSpec, gen_fgn, gen_iid
from hurstkit.numerics import (
    fit_power_law,
    fixed_point_solve,
    lad_lines,
    linear_regr_solver,
    loc_min_solve,
)
from hurstkit.partition import cumulative_bias, search_opt_seq_len
from hurstkit.timedomain import _detrended_stds


def l1_obj(A, b, coef):
    return float(np.sum(np.abs(b - A @ np.asarray(coef))))


def exact_lad(A, b):
    """LAD via LP: min sum(t) s.t. -t <= b - A c <= t."""
    n = len(b)
    cost = np.concatenate([np.zeros(2), np.ones(n)])
    A_ub = np.block([[A, -np.eye(n)], [-A, -np.eye(n)]])
    b_ub = np.concatenate([b, -b])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * 2 + [(0, None)] * n, method="highs")
    assert res.success
    return res.fun


# ------------------------------------------------------ power-law fitting


def test_fit_power_law_log_log_layout():
    # ln y = 1 + 2 ln x through (1, e) and (e, e^3)
    fit, resid = fit_power_law(np.array([1.0, math.e]),
                               np.array([math.e, math.e**3]), 2)
    assert fit.intercept == pytest.approx(1.0, abs=1e-15)
    assert fit.slope == pytest.approx(2.0, abs=1e-15)
    assert resid == pytest.approx(0.0, abs=1e-15)


def test_fit_power_law_domain_errors():
    with pytest.raises(DomainError, match="index 2"):
        fit_power_law(np.array([1.0, -1.0, 2.0]), np.ones(3), 2)
    # the offending value prints as a Python float, not as np.float64(0.0)
    with pytest.raises(DomainError, match=r"^non-positive y entry at index 3: 0.0$"):
        fit_power_law(np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0, 0.0]), 2)


@pytest.mark.parametrize("flag", [1, 2])
def test_fit_power_law_rejects_non_finite(flag):
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match=r"^non-finite y entry at index 2: inf$"):
        fit_power_law(x, np.array([1.0, math.inf, 3.0]), flag)
    with pytest.raises(DomainError, match=r"^non-finite y entry at index 1: nan$"):
        fit_power_law(x, np.array([math.nan, 2.0, 3.0]), flag)
    with pytest.raises(DomainError, match=r"^non-finite x entry at index 3: inf$"):
        fit_power_law(np.array([1.0, 2.0, math.inf]), x, flag)


# ---------------------------------------------------------------- l2 fitting


def test_l2_matches_normal_equations():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        x = rng.uniform(0.1, 20.0, n)
        A = np.column_stack([np.ones(n), np.log(x)])
        b = rng.normal(size=n)
        fit = linear_regr_solver(A, b, 2)
        ref = np.linalg.solve(A.T @ A, A.T @ b)
        assert abs(fit.intercept - ref[0]) < 1e-10
        assert abs(fit.slope - ref[1]) < 1e-10


def test_l2_exact_on_collinear_points():
    A = np.column_stack([np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])])
    b = 2.5 - 0.75 * A[:, 1]
    fit = linear_regr_solver(A, b, 2)
    assert fit.intercept == pytest.approx(2.5, abs=1e-12)
    assert fit.slope == pytest.approx(-0.75, abs=1e-12)


# ---------------------------------------------------------------- l1 fitting


def test_l1_ignores_single_outlier():
    A = np.column_stack([np.ones(5), np.arange(1.0, 6.0)])
    b = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    fit = linear_regr_solver(A, b, 1)
    assert fit.slope == pytest.approx(1.0, abs=1e-6)
    assert fit.intercept == pytest.approx(0.0, abs=1e-6)


def lad_cases(rng, n):
    """(abscissa, values) pairs, the degenerate ones full of ties.

    Continuous data; half-integer values; integer walks on integer
    abscissae (collinear triples); walks in steps of 0.1 and one-decimal
    values, whose collinear points compute unequal slopes; duplicate
    abscissae.
    """
    t = np.log(rng.uniform(0.5, 10.0, n))
    steps = rng.integers(-1, 2, n)
    yield t, 1.3 + 0.4 * t + rng.standard_t(3, n) * 0.3
    yield t, np.round(rng.normal(0.0, 3.0, n)) / 2.0
    yield np.arange(1.0, n + 1.0), np.cumsum(steps).astype(float)
    yield np.arange(1.0, n + 1.0), np.cumsum(steps) / 10.0
    dup = np.r_[0.0, 4.0, rng.integers(0, 5, n - 2)].astype(float)
    yield dup, rng.normal(size=n)
    yield dup, np.round(rng.normal(size=n), 1)


def test_l1_never_beaten_by_l2_and_close_to_exact():
    rng = np.random.default_rng(7)
    for _ in range(60):
        for t, b in lad_cases(rng, int(rng.integers(5, 30))):
            A = np.column_stack([np.ones(t.size), t])
            f1 = linear_regr_solver(A, b, 1)
            f2 = linear_regr_solver(A, b, 2)
            o1 = l1_obj(A, b, [f1.intercept, f1.slope])
            o2 = l1_obj(A, b, [f2.intercept, f2.slope])
            assert o1 <= o2 + 1e-12
            assert o1 <= exact_lad(A, b) * (1.0 + 1e-12) + 1e-12


@pytest.mark.parametrize("source", ["fgn", "mod7"])
def test_batched_lad_rows_match_single_rows_and_are_exact(source):
    x = (gen_fgn(FgnSpec(0.7, 3000, 4)) if source == "fgn"
         else (np.arange(3000) % 7).astype(float))
    n_opt, factors = search_opt_seq_len(x.size, 10)
    z = cumulative_bias(x - x.mean())[:n_opt]
    for m in (factors[0], factors[len(factors) // 2], factors[-1]):
        segments = z.reshape(n_opt // m, m)
        t = np.arange(1.0, m + 1.0)
        A = np.column_stack([np.ones(m), t])
        stds = _detrended_stds(segments, 1)
        for row in np.linspace(0, segments.shape[0] - 1, 4).astype(int):
            (a,), (b,) = lad_lines(t, segments[row][None, :])
            resid = segments[row] - (a + b * t)
            assert stds[row] == resid.std(ddof=1)
            obj = np.abs(resid).sum()
            assert obj <= exact_lad(A, segments[row]) * (1.0 + 1e-12) + 1e-12


def pair_line_costs(t, z):
    """Least l1 cost of each row of z over the lines through two of its
    points, which include an optimal one (brute force, 50 rows at a time)."""
    i, j = np.triu_indices(t.size, 1)
    best = []
    for rows in np.array_split(z, max(1, z.shape[0] // 50)):
        b = (rows[:, j] - rows[:, i]) / (t[j] - t[i])
        a = rows[:, i] - b * t[i]
        fitted = a[:, :, None] + b[:, :, None] * t
        best.append(np.abs(rows[:, None, :] - fitted).sum(axis=2).min(axis=1))
    return np.concatenate(best)


@pytest.mark.parametrize("family, m", [("poisson", 10), ("poisson", 20),
                                       ("poisson", 50), ("geometric", 10),
                                       ("geometric", 20)])
def test_lad_lines_optimal_on_integer_data_profiles(family, m):
    # an integer series makes profile points collinear up to rounding; a
    # tolerance with only the rounding of the differences missed them as
    # pivots and stopped on lines up to 53 % above the optimum
    x = gen_iid(family, 10000, 7)
    v = x - x.mean()
    n_opt, _ = search_opt_seq_len(v.size, 50)
    t = np.arange(1.0, m + 1.0)
    # dfa's profile, and the profile of its partitioned prefix alone
    for z in (cumulative_bias(v), cumulative_bias(v[:n_opt])):
        z = z[: z.size // m * m].reshape(-1, m)
        a, b = lad_lines(t, z)
        cost = np.abs(z - (a[:, None] + b[:, None] * t)).sum(axis=1)
        best = pair_line_costs(t, z)
        assert np.all(cost <= best * (1.0 + 1e-12))


def test_l1_estimates_move_less_than_rounding_under_a_one_ulp_shift():
    # a flat l1 optimum must not let rounding pick a different line
    x = gen_fgn(FgnSpec(0.7, 30000, 2))
    y = np.nextafter(x, np.inf)
    for method in ("am", "av", "ghe", "hm", "dfa", "rs", "tta", "pm", "awc",
                   "vvl"):
        h = estimate_series(x, method, norm=1).hurst
        assert estimate_series(y, method, norm=1).hurst == pytest.approx(
            h, rel=1e-12), method


# -------------------------------------------------------------- fixed points


def test_fixed_point_of_cosine():
    root = fixed_point_solve(math.cos, 1.0, 1e-12)
    assert abs(root - 0.7390851332151607) < 1e-9


def test_fixed_point_returns_first_improved_iterate_within_eps():
    # halving map from 1.0 with eps 0.1 stops at |0.0625 - 0.125| < 0.1
    got = fixed_point_solve(lambda t: 0.5 * t, 1.0, 0.1)
    assert got == 0.0625


def test_fixed_point_passes_params():
    def affine(t, a, c):
        return a * t + c

    got = fixed_point_solve(lambda t: affine(t, 0.5, 1.0), 0.0, 1e-13)
    assert got == pytest.approx(2.0, abs=1e-9)


def test_fixed_point_divergence_reports_iterates():
    with pytest.raises(NonConvergenceError) as exc:
        fixed_point_solve(lambda t: 2.0 * t + 1.0, 1.0, 1e-8)
    assert exc.value.last is not None
    assert exc.value.previous is not None


def test_fixed_point_overflow_in_update_reports_iterates():
    # 2 -> 400 -> ... -> 3.4e292, whose update overflows the float range
    with pytest.raises(NonConvergenceError) as exc:
        fixed_point_solve(lambda t: (10.0 * t) ** 2.0, 2.0, 1e-8)
    assert math.isfinite(exc.value.last)
    assert exc.value.last == (10.0 * exc.value.previous) ** 2.0


def test_fixed_point_nan_iterate_is_nonconvergence():
    # abs(nan - guess) >= eps is False, so a NaN must not read as converged
    with pytest.raises(NonConvergenceError, match="left the reals") as exc:
        fixed_point_solve(lambda t: math.sqrt(t - 1.0) if t >= 1.0 else math.nan,
                          2.0, 1e-8)
    assert math.isnan(exc.value.last) and exc.value.previous == 0.0  # 2 -> 1 -> 0


def test_fixed_point_budget_exhaustion():
    with pytest.raises(NonConvergenceError) as exc:
        fixed_point_solve(lambda t: t + 1.0, 0.0, 1e-8)
    assert exc.value.last == exc.value.previous + 1.0


# ------------------------------------------------------- interval minimizer


def test_brent_quadratic():
    def f(t):
        return (t - 2.0) ** 2

    x, fx = loc_min_solve(f, 0.0, 5.0, 1e-8)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == f(x)


def test_brent_cosine_interior_minimum():
    x, fx = loc_min_solve(math.cos, 0.5, 2.0 * math.pi - 0.5, 1e-10)
    assert x == pytest.approx(math.pi, abs=1e-6)
    assert fx == math.cos(x)


def test_brent_monotone_edges():
    for f, edge in ((lambda t: t, 1.0), (lambda t: -t, 3.0)):
        x, fx = loc_min_solve(f, 1.0, 3.0, 1e-8)
        assert x == pytest.approx(edge, abs=1e-5)
        assert fx == f(x)


def test_brent_stays_inside_interval_and_passes_params():
    seen = []

    def f(t, shift):
        seen.append(t)
        return (t - shift) ** 4

    x, fx = loc_min_solve(lambda t: f(t, 0.25), 0.001, 0.999, 1e-8)
    assert x == pytest.approx(0.25, abs=1e-3)
    assert fx == f(x, 0.25)
    assert all(0.001 <= t <= 0.999 for t in seen)


def test_brent_validation_and_budget():
    with pytest.raises(NonConvergenceError):
        # denormal tolerance can never be met near zero
        loc_min_solve(lambda t: t, 0.0, 1.0, 5e-324)


@settings(deadline=None)
@given(st.floats(0.05, 0.95), st.floats(1.0, 50.0))
def test_brent_recovers_parabola_vertex(center, curvature):
    def f(t):
        return curvature * (t - center) ** 2

    x, fx = loc_min_solve(f, 0.0, 1.0, 1e-9)
    assert abs(x - center) < 1e-5
    assert fx == f(x)
