"""Power-law fitting and the two small solvers everything else leans on.

The whole toolkit reduces estimation to one of three primitives:

* fit one line in the l2 or l1 sense (fit_line), on logs in fit_power_law,
* run a scalar fixed-point iteration, or
* minimize a scalar function on an interval (Brent's method).
"""

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, NonConvergenceError

_FIXED_POINT_BUDGET = 10_000
_BRENT_BUDGET = 500
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

RegressionFit = namedtuple("RegressionFit", "intercept slope")


def lad_lines(t, z):
    """Exact least-absolute-deviations lines z[i] ~ a[i] + b[i] * t; (a, b).

    Every row of the 2-D float `z` shares `t` (two distinct values at least).
    Pivot descent (Wesolowsky 1981): the best line through a data point p
    has the lower weighted median of the slopes (z_j - z_p) / (t_j - t_p),
    weights |t_j - t_p|.  A row starts at the point nearest median(t) and
    pivots on each point of its line until none gives a better line or the
    fit is exact.  The line through p and q holds a point j when its
    residual is at most 4*eps*(|z_j| + |z_p| + |slope dt_j| + (|z_q| +
    |z_p|) |dt_j / dt_q|), dt = t - t_p: twice the rounding of the operands
    (the last term is the slope's, carried out to t_j), not only of their
    differences, which leaves room for the rounding z brings from its own
    computation.  So points collinear before rounding, as integer data make
    them, are all tried as pivots.  Tie rule: a gain must beat the rounding,
    new < cost * (1 - m*eps) for m points, so a flat optimum keeps the first
    optimal line met: the result is deterministic.
    """
    k, m = z.shape
    eps = np.finfo(float).eps
    a, b, cost = np.full((3, k), np.inf)
    pivot = np.full(k, np.argmin(np.abs(t - np.median(t))))
    todo = np.zeros((k, m), dtype=bool)  # points of the line still to try
    live = np.arange(k)
    while live.size:
        p = pivot[live][:, None]
        dt = t - t[p]
        zj = z[live]
        zp = np.take_along_axis(zj, p, axis=1)
        dz = zj - zp
        slopes = dz / np.where(dt == 0.0, np.nan, dt)  # weight 0 where NaN
        order = np.argsort(slopes, axis=1)
        cum = np.cumsum(np.take_along_axis(np.abs(dt), order, axis=1), axis=1)
        at = (cum < 0.5 * cum[:, -1:]).sum(axis=1, keepdims=True)
        q = np.take_along_axis(order, at, 1)  # the line runs through p and q
        slope = np.take_along_axis(slopes, q, 1)
        resid = np.abs(dz - slope * dt)
        new = resid.sum(axis=1)
        gain = new < cost[live] * (1.0 - m * eps)
        rows = live[gain]
        a[rows] = z[rows, pivot[rows]] - slope[gain, 0] * t[pivot[rows]]
        b[rows], cost[rows] = slope[gain, 0], new[gain]
        zq, dtq = np.take_along_axis(zj, q, 1), np.take_along_axis(dt, q, 1)
        reach = np.abs(dt / dtq)  # the slope's rounding grows with it
        rounding = (np.abs(zj) + np.abs(zp) + np.abs(slope * dt)
                    + (np.abs(zq) + np.abs(zp)) * reach)
        todo[rows] = (resid <= 4 * eps * rounding)[gain]
        todo[live, p[:, 0]] = False
        pivot[live] = np.argmax(todo[live], axis=1)
        live = live[todo[live, pivot[live]] & (cost[live] > 0.0)]
    return a, b


def fit_line(t, b, flag):
    """The line b ~ intercept + slope * t of float arrays t and b, t with two
    distinct values at least.  flag=2: least squares in closed form about
    the means t', b' of both, slope = sum (t - t')(b - b') / sum (t - t')^2,
    intercept = b' - slope t', so a flat b has slope 0 up to its rounding.
    flag=1: the exact least-absolute-deviations line of lad_lines.
    """
    if flag == 2:
        t_mean, b_mean = np.add.reduce(t) / t.size, np.add.reduce(b) / b.size
        tc = t - t_mean
        slope = float((tc @ (b - b_mean)) / (tc @ tc))
        return RegressionFit(float(b_mean - slope * t_mean), slope)
    return RegressionFit(*np.ravel(lad_lines(t, b[None, :])).tolist())


def linear_regr_solver(A, b, flag):
    """fit_line of b on t = A[:, 1], A = (1, t): the design-matrix form."""
    return fit_line(A[:, 1], b, flag)


def fit_power_law(x, y, flag):
    """Fit ln y = intercept + slope * ln x in the flag-selected norm.

    `x` and `y` are float arrays of two or more pairs, not all x equal, as
    live_scales returns them; an entry that is not finite and positive is a
    DomainError naming its (1-based) index, looked for only when the min/max
    test fails.  Then fit_line on the logs; returns (fit, l2 norm of the
    log-residuals).  The slope fitter every log-log estimator uses.
    """
    for name, v in (("x", x), ("y", y)):
        if not (np.minimum.reduce(v) > 0.0 and np.maximum.reduce(v) < math.inf):
            i = int(np.flatnonzero(~(np.isfinite(v) & (v > 0)))[0])
            value = float(v[i])
            kind = "non-positive" if math.isfinite(value) else "non-finite"
            raise DomainError(f"{kind} {name} entry at index {i + 1}: {value}")
    t, b = np.log(x), np.log(y)
    fit = fit_line(t, b, flag)
    resid = b - (fit.intercept + fit.slope * t)
    return fit, float(np.sqrt(np.sum(resid * resid)))


def _update(updater, guess, previous):
    try:
        return float(updater(guess))
    except OverflowError:
        raise NonConvergenceError(
            f"iteration overflowed evaluating the update at {guess!r}",
            last=guess, previous=previous,
        ) from None


def fixed_point_solve(updater, x0, eps):
    """Iterate x <- updater(x) until successive iterates are closer than
    `eps` (> 0); returns the last iterate.  A caller binds its data into the
    one-argument `updater`, as lambda h: phi(h, data).

    A budget of 10^4 steps guards divergence; blowing it, an iterate that
    is NaN or inf, or an overflow inside the update raises
    NonConvergenceError carrying the last two iterates.
    """
    guess = float(x0)
    improved = _update(updater, guess, None)
    steps = 1
    while True:
        if not math.isfinite(improved):
            raise NonConvergenceError(
                f"iteration left the reals after {steps} steps",
                last=improved, previous=guess,
            )
        if abs(improved - guess) < eps:
            return improved
        if steps >= _FIXED_POINT_BUDGET:
            raise NonConvergenceError(
                f"no fixed point after {steps} steps; last two iterates "
                f"{guess!r} -> {improved!r}",
                last=improved, previous=guess,
            )
        previous, guess = guess, improved
        improved = _update(updater, guess, previous)
        steps += 1


def loc_min_solve(f, lo, hi, tol):
    """Brent's minimizer of the one-argument f on [lo, hi] (a caller binds
    its data, as lambda h: psi(h, data)): golden-section bracketing with
    successive parabolic interpolation; never evaluates outside the interval.

    `tol` > 0 is the absolute tolerance, plus a sqrt(machine-eps) relative
    term as in the classic algorithm.  Returns (x, f(x)) at the best point.
    """
    rel = math.sqrt(np.finfo(float).eps)
    a, b = float(lo), float(hi)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = float(f(x))
    evals = 1
    d = e = 0.0

    while True:
        mid = 0.5 * (a + b)
        tol1 = rel * abs(x) + tol
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, fx

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
        fu = float(f(u))
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
