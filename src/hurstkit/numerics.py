"""Power-law fitting and the two small solvers everything else leans on.

The whole toolkit reduces estimation to one of three primitives:

* fit ln(y) = alpha + beta * ln(x) in the l2 or l1 sense (fit_power_law),
* run a scalar fixed-point iteration, or
* minimize a scalar function on an interval (Brent's method).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    DomainError,
    NonConvergenceError,
    RankDeficiencyError,
    UnderdeterminedSystemError,
)

# IRLS knobs for the l1 path: residual smoothing and slope-change stop.
_IRLS_DELTA = 1e-8
_IRLS_SLOPE_TOL = 1e-9
_IRLS_MAX_ITER = 200

_FIXED_POINT_BUDGET = 10_000
_BRENT_BUDGET = 500
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class RegressionFit:
    intercept: float
    slope: float
    norm_flag: int


def format_power_law_data(x, y):
    """Turn positive (x, y) pairs into the log-log regression system.

    Returns (A, b) with rows A_i = (1, ln x_i) and b_i = ln y_i.  Any
    non-positive entry is a domain error naming the (1-based) offending
    index; fewer than two pairs cannot determine a line.
    """
    xa = np.asarray(x, dtype=float).reshape(-1)
    ya = np.asarray(y, dtype=float).reshape(-1)
    if xa.size != ya.size:
        raise ArgumentError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise UnderdeterminedSystemError(
            f"need >= 2 pairs to fit a power law, got {xa.size}"
        )
    for name, v in (("x", xa), ("y", ya)):
        bad = np.flatnonzero(~(v > 0))
        if bad.size:
            i = int(bad[0]) + 1
            raise DomainError(f"non-positive {name} entry at index {i}: {v[bad[0]]!r}")
    A = np.column_stack([np.ones_like(xa), np.log(xa)])
    return A, np.log(ya)


def _l1_objective(A, b, coef):
    return float(np.sum(np.abs(b - A @ coef)))


def linear_regr_solver(A, b, flag):
    """Fit b ~ A @ (intercept, slope) in the norm selected by `flag`.

    flag=2 : ordinary least squares (Moore-Penrose via SVD).
    flag=1 : least absolute deviations by iteratively reweighted least
             squares, started from the l2 fit; weights 1/max(|r|, 1e-8),
             stopping when the slope moves by < 1e-9.  The best iterate by
             l1 objective is returned, so the result is never worse than
             the l2 fit in the l1 sense.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[1] != 2 or A.shape[0] != b.size:
        raise ArgumentError(f"expected (n, 2) design and length-n rhs, got {A.shape}")
    if flag not in (1, 2):
        raise ArgumentError(f"norm flag must be 1 or 2, got {flag!r}")
    if np.ptp(A[:, 1]) == 0.0:
        raise RankDeficiencyError("all abscissae identical; slope is undetermined")

    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    if flag == 2:
        return RegressionFit(float(coef[0]), float(coef[1]), 2)

    best = coef.copy()
    best_obj = _l1_objective(A, b, coef)
    for _ in range(_IRLS_MAX_ITER):
        r = b - A @ coef
        wgt = 1.0 / np.maximum(np.abs(r), _IRLS_DELTA)
        sw = np.sqrt(wgt)
        new, *_ = np.linalg.lstsq(A * sw[:, None], b * sw, rcond=None)
        obj = _l1_objective(A, b, new)
        if obj < best_obj:
            best, best_obj = new.copy(), obj
        if abs(new[1] - coef[1]) < _IRLS_SLOPE_TOL:
            coef = new
            break
        coef = new
    return RegressionFit(float(best[0]), float(best[1]), 1)


def fit_power_law(x, y, flag):
    """Fit ln y = intercept + slope * ln x in the flag-selected norm.

    Returns (fit, l2 norm of the log-residuals); the slope fitter every
    log-log estimator uses.
    """
    A, b = format_power_law_data(x, y)
    fit = linear_regr_solver(A, b, flag)
    resid = b - (fit.intercept + fit.slope * A[:, 1])
    return fit, float(np.sqrt(np.sum(resid * resid)))


def _update(updater, guess, params, previous):
    try:
        return float(updater(guess, *params))
    except OverflowError:
        raise NonConvergenceError(
            f"iteration overflowed evaluating the update at {guess!r}",
            last=guess, previous=previous,
        ) from None


def fixed_point_solve(updater, x0, eps, params=()):
    """Iterate x <- updater(x, *params) until successive iterates are closer
    than `eps`; returns the last iterate.

    A budget of 10^4 steps guards divergence; blowing it, leaving the reals
    or overflowing inside the update raises NonConvergenceError carrying the
    last two iterates.
    """
    if eps <= 0:
        raise ArgumentError(f"need eps > 0, got {eps}")
    guess = float(x0)
    improved = _update(updater, guess, params, None)
    steps = 1
    while abs(improved - guess) >= eps:
        if not math.isfinite(improved):
            raise NonConvergenceError(
                f"iteration left the reals after {steps} steps",
                last=improved, previous=guess,
            )
        if steps >= _FIXED_POINT_BUDGET:
            raise NonConvergenceError(
                f"no fixed point after {steps} steps; last two iterates "
                f"{guess!r} -> {improved!r}",
                last=improved, previous=guess,
            )
        previous, guess = guess, improved
        improved = _update(updater, guess, params, previous)
        steps += 1
    return improved


def loc_min_solve(f, lo, hi, tol, params=()):
    """Brent's minimizer on [lo, hi]: golden-section bracketing with
    successive parabolic interpolation; never evaluates outside the interval.

    `tol` is the absolute positioning tolerance; the effective tolerance also
    includes a sqrt(machine-eps) relative term, per the classic algorithm.
    """
    lo = float(lo)
    hi = float(hi)
    if not tol > 0:
        raise ArgumentError(f"need tol > 0, got {tol}")
    if not lo < hi:
        raise ArgumentError(f"need lo < hi, got [{lo}, {hi}]")

    rel = math.sqrt(np.finfo(float).eps)
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = float(f(x, *params))
    evals = 1
    d = e = 0.0

    while True:
        mid = 0.5 * (a + b)
        tol1 = rel * abs(x) + tol
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x

        use_golden = True
        if abs(e) > tol1:
            # parabola through (x,fx), (w,fw), (v,fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = d
            if abs(p) < abs(0.5 * q * r) and p > q * (a - x) and p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < mid else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < mid else (a - x)
            d = _GOLDEN * e

        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        if evals >= _BRENT_BUDGET:
            raise NonConvergenceError(
                f"minimizer budget of {_BRENT_BUDGET} evaluations exhausted",
                last=u, previous=x,
            )
        fu = float(f(u, *params))
        evals += 1

        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
