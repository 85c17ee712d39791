"""End-to-end acceptance gate: eight binding checks on the released surface.

Each test evaluates one criterion in full, records a PASS/FAIL line for the
terminal checklist (see conftest), and then asserts.  The heavyweight
benchmark sweeps are shared through module-scoped fixtures so the whole gate
stays well inside its runtime budgets.
"""

import math
import time
from math import isqrt

import numpy as np
import pytest
from conftest import record_verdict

from hurstkit.aggregation import (
    BlockSumContext,
    block_sum_std,
    ctm_lssd,
    fun_cm_lsv,
    obj_fun_lsv,
)
from hurstkit.bench import run_fgn_suite, run_random_suite
from hurstkit.generators import DISTRIBUTIONS, FgnSpec, fgn_autocorr, gen_fgn
from hurstkit.harness import estimate_series
from hurstkit.numerics import linear_regr_solver
from hurstkit.partition import gen_sbpf, sample_std, search_opt_seq_len
from hurstkit.results import METHODS
from hurstkit.spectral import LwObjectiveData, obj_fun_lw
from hurstkit.timedomain import expected_rs
from hurstkit.transforms import dft

# absolute tolerance on |mean estimate - true H| for the fractional-noise
# sweep: tight for the profile/block methods, looser for moment/spectrum
# methods, loosest for the uncorrected range statistic, whose bias changes
# sign across H (about +0.09 at H = 0.2 and -0.04 at H = 0.9 at N = 3e4)
FGN_TOL = {
    "ghe": 0.02, "hm": 0.02, "dfa": 0.02, "tta": 0.02, "lssd": 0.02, "lsv": 0.02,
    "am": 0.05, "av": 0.05, "pm": 0.05, "awc": 0.05, "vvl": 0.05, "lw": 0.05,
    "rs": 0.08,
}


def _verdict(criterion, label, failures, detail):
    passed = not failures
    record_verdict(criterion, label, passed, detail if passed else "; ".join(failures))
    assert passed, f"criterion {criterion} ({label}): " + "; ".join(failures)


def _suite_cells(report, labels):
    for label in labels:
        for method in METHODS:
            yield label, method, report.cell(label, method)


@pytest.fixture(scope="module")
def random_report():
    t0 = time.perf_counter()
    report = run_random_suite(replicates=10, length=10000, seed=42)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fgn_report():
    t0 = time.perf_counter()
    report = run_fgn_suite(h_values=(0.3, 0.5, 0.7), replicates=10, length=30000, seed=42)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fgn_wide_report():
    report = run_fgn_suite(
        h_values=(0.4, 0.5, 0.6, 0.7, 0.8), replicates=10, length=30000, seed=42
    )
    return report


def test_acceptance_1_white_noise_anchor(random_report):
    # every (distribution, method) mean over 10 replicates of length-10^4
    # i.i.d. noise sits in [0.44, 0.56]; the whole sweep under 10 minutes
    report, elapsed = random_report
    failures = []
    for dist, method, cell in _suite_cells(report, DISTRIBUTIONS):
        if cell.error is not None:
            failures.append(f"{dist}/{method} errored: {cell.error}")
        elif not 0.44 <= cell.mean <= 0.56:
            failures.append(f"{dist}/{method} mean {cell.mean:.4f} outside [0.44, 0.56]")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 600s")
    _verdict(
        1,
        "white-noise anchor",
        failures,
        f"all 78 cells in [0.44, 0.56] ({elapsed:.1f}s)",
    )


def test_acceptance_2_fgn_accuracy(fgn_report):
    # mean estimates over 10 fractional-noise replicates (length 3x10^4)
    # track the true H at 0.3/0.5/0.7 within per-method bands
    report, elapsed = fgn_report
    failures = []
    worst = 0.0
    for h in (0.3, 0.5, 0.7):
        for _, method, cell in _suite_cells(report, [f"{h:.4g}"]):
            if cell.error is not None:
                failures.append(f"{method}@H={h} errored: {cell.error}")
                continue
            dev = abs(cell.mean - h)
            worst = max(worst, dev - FGN_TOL[method])
            if dev > FGN_TOL[method]:
                failures.append(
                    f"{method}@H={h} mean {cell.mean:.4f} deviates {dev:.4f} "
                    f"> {FGN_TOL[method]}"
                )
    if elapsed >= 1800.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1800s")
    _verdict(
        2,
        "fractional-noise accuracy",
        failures,
        f"all 39 cells within band ({elapsed:.1f}s)",
    )


def test_acceptance_3_spectrum_relative_error(fgn_wide_report):
    # the four spectrum-domain methods keep mean relative error under 6%
    # at every H in 0.4..0.8
    failures = []
    worst = 0.0
    for h in (0.4, 0.5, 0.6, 0.7, 0.8):
        for method in ("pm", "awc", "vvl", "lw"):
            cell = fgn_wide_report.cell(f"{h:.4g}", method)
            if cell.error is not None:
                failures.append(f"{method}@H={h} errored: {cell.error}")
                continue
            rel = abs(cell.mean - h) / h * 100.0
            worst = max(worst, rel)
            if rel >= 6.0:
                failures.append(f"{method}@H={h} relative error {rel:.2f}% >= 6%")
    _verdict(
        3,
        "spectrum-method relative error",
        failures,
        f"worst relative error {worst:.2f}% < 6%",
    )


def test_acceptance_4_partition_worked_example():
    # the bounded-factor search reproduces the worked example exactly
    failures = []
    if gen_sbpf(48, 4) != [4, 6, 8, 12]:
        failures.append(f"gen_sbpf(48, 4) = {gen_sbpf(48, 4)}")
    if gen_sbpf(48, 5) != [6, 8]:
        failures.append(f"gen_sbpf(48, 5) = {gen_sbpf(48, 5)}")
    n_opt, factors = search_opt_seq_len(997, 20, 0.99)
    if n_opt != 990:
        failures.append(f"search_opt_seq_len(997, 20, 0.99) = {n_opt}")
    pairs = {(m, n_opt // m) for m in factors}
    want = {(22, 45), (30, 33), (33, 30), (45, 22)}
    if pairs != want:
        failures.append(f"partition pairs {sorted(pairs)}")
    _verdict(
        4,
        "partition worked example",
        failures,
        "gen_sbpf(48,4/5), n_opt=990 and all four (m,k) pairs exact",
    )


def test_acceptance_5_oracle_equivalences():
    failures = []

    # (a) least-squares line fit agrees with the normal equations
    rng = np.random.Generator(np.random.PCG64(1234))
    worst_ls = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        t = np.log(rng.uniform(1.0, 50.0, n))
        b = rng.uniform(-3.0, 3.0) + rng.uniform(-3.0, 3.0) * t
        b += rng.normal(0.0, 0.5, n)
        A = np.column_stack([np.ones(n), t])
        fit = linear_regr_solver(A, b, 2)
        ref = np.linalg.solve(A.T @ A, A.T @ b)
        worst_ls = max(worst_ls, abs(fit.intercept - ref[0]), abs(fit.slope - ref[1]))
    if worst_ls > 1e-10:
        failures.append(f"l2 fit vs normal equations: worst gap {worst_ls:.2e}")

    # (b) bounded-factor enumeration agrees with divisor brute force
    mismatches = 0
    checked = 0
    for a in range(4, 10001):
        divisors = []
        i = 1
        while i * i <= a:
            if a % i == 0:
                divisors.append(i)
                if i != a // i:
                    divisors.append(a // i)
            i += 1
        root = isqrt(a)
        for w in sorted({2, 3, 7, root}):
            if not 2 <= w <= root:
                continue
            checked += 1
            want = sorted(d for d in divisors if w <= d <= a // w)
            if gen_sbpf(a, w) != want:
                mismatches += 1
    if mismatches:
        failures.append(f"gen_sbpf brute force: {mismatches}/{checked} mismatches")

    # (c) fft-backed transform agrees with the direct O(N^2) sum
    worst_dft = 0.0
    for n in (7, 16, 100, 255):
        x = rng.normal(0.0, 1.0, n) + 1j * rng.normal(0.0, 1.0, n)
        j = np.arange(n)
        direct = np.exp(-2j * np.pi * np.outer(j, j) / n) @ x
        worst_dft = max(worst_dft, float(np.max(np.abs(dft(x) - direct))))
        xr = rng.normal(0.0, 1.0, n)
        direct_r = np.exp(-2j * np.pi * np.outer(j, j) / n) @ xr
        worst_dft = max(worst_dft, float(np.max(np.abs(dft(xr) - direct_r))))
    if worst_dft > 1e-9:
        failures.append(f"dft vs direct sum: worst gap {worst_dft:.2e}")

    # (d) both scalar objectives agree with plain running-sum accumulation
    worst_obj = 0.0
    freqs = np.arange(1, 129) / 256.0
    power = rng.uniform(0.1, 5.0, freqs.size)
    data = LwObjectiveData(freqs, power)
    for h in (0.2, 0.5, 0.8):
        acc = 0.0
        for f, p in zip(freqs, power):
            acc += f ** (2.0 * h - 1.0) * p
        mean_lf = sum(math.log(f) for f in freqs) / freqs.size
        want = math.log(acc / freqs.size) - (2.0 * h - 1.0) * mean_lf
        worst_obj = max(worst_obj, abs(obj_fun_lw(h, data) - want))

    scales = np.arange(1.0, 41.0)
    stats = rng.uniform(0.5, 4.0, scales.size) * scales**0.6
    ctx = BlockSumContext(400, 2.0, 50.0, scales, stats)
    for h in (0.15, 0.5, 0.85):
        b1 = a11 = a12 = 0.0
        for m, s in zip(scales, stats):
            u = ctx.length / m
            c = (u - u ** (2.0 * h - 1.0)) / (u - 1.0)
            w = m**ctx.weight_p
            b1 += s**4 / w
            a11 += c**2 * m ** (4.0 * h) / w
            a12 += c * m ** (2.0 * h) * s**2 / w
        want = b1 - a12**2 / a11 + h ** (ctx.penalty_q + 1.0) / (ctx.penalty_q + 1.0)
        worst_obj = max(worst_obj, abs(obj_fun_lsv(h, ctx) - want))
    if worst_obj > 1e-10:
        failures.append(f"objective accumulation oracles: worst gap {worst_obj:.2e}")

    _verdict(
        5,
        "oracle equivalences",
        failures,
        f"l2 {worst_ls:.1e}, factors {checked} cases, dft {worst_dft:.1e}, "
        f"objectives {worst_obj:.1e}",
    )


def test_acceptance_6_generator_fidelity():
    # sample autocorrelations of generated fractional noise match the
    # closed-form curve within 3 Monte-Carlo standard errors
    failures = []
    worst_z = 0.0
    for h in (0.3, 0.5, 0.8):
        rows = []
        for seed in range(10):
            x = gen_fgn(FgnSpec(h, 30000, seed))
            denom = float(np.dot(x, x))
            rows.append(
                [float(np.dot(x[:-lag], x[lag:])) / denom for lag in range(1, 6)]
            )
        rows = np.asarray(rows)
        means = rows.mean(axis=0)
        ses = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
        for lag in range(1, 6):
            want = fgn_autocorr(lag, h)
            z = abs(means[lag - 1] - want) / ses[lag - 1]
            worst_z = max(worst_z, z)
            if z > 3.0:
                failures.append(
                    f"H={h} lag={lag}: mean {means[lag - 1]:+.5f} vs {want:+.5f} "
                    f"is {z:.2f} standard errors"
                )
    _verdict(
        6,
        "generator autocorrelation fidelity",
        failures,
        f"15 (H, lag) cells within 3 SE (worst {worst_z:.2f})",
    )


def _balanced_integers(seed, n=5000):
    # integer-valued series whose sum is divisible by n, so the sample mean
    # is an exact float and adding an integer shift is a bitwise no-op after
    # the estimators' internal centering
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.integers(-500, 501, n)
    v[0] -= int(v.sum()) % n
    return v.astype(float)


def test_acceptance_7_invariance_suite():
    failures = []
    worst_scale = {method: 0.0 for method in METHODS}
    for seed in range(5):
        x = _balanced_integers(100 + seed)
        for method in METHODS:
            base = estimate_series(x, method).hurst
            if estimate_series(x + 7.0, method).hurst != base:
                failures.append(f"{method} shift-variant on input {seed}")
            for c in (1e-3, 1e4):
                gap = abs(estimate_series(c * x, method).hurst - base)
                worst_scale[method] = max(worst_scale[method], gap)
    for method, gap in worst_scale.items():
        tol = 1e-6 if method == "lw" else 1e-9
        if gap > tol:
            failures.append(f"{method} scale gap {gap:.2e} > {tol}")

    # the block-sum fixed-point mapping cancels a common stat rescaling
    rng = np.random.Generator(np.random.PCG64(77))
    scales = np.arange(1.0, 41.0)
    stats = rng.uniform(0.5, 4.0, scales.size) * scales**0.6
    ctx = BlockSumContext(400, 2.0, 50.0, scales, stats)
    for h in (0.25, 0.5, 0.75):
        base = ctm_lssd(h, ctx)
        for factor in (1e-6, 0.37, 42.0, 1e6):
            scaled = BlockSumContext(400, 2.0, 50.0, scales, stats * factor)
            if abs(ctm_lssd(h, scaled) - base) > 1e-12:
                failures.append(f"ctm_lssd rescale residue at H={h}, c={factor}")

    _verdict(
        7,
        "invariance suite",
        failures,
        "shift exact, scale within 1e-9 (1e-6 for lw), stat rescale cancels",
    )


def test_acceptance_8_point_values():
    failures = []
    if expected_rs(2) != 0.75:
        failures.append(f"expected_rs(2) = {expected_rs(2)!r}")
    for m, n in ((2, 100), (7, 997), (50, 30000)):
        if fun_cm_lsv(m, n, 0.5) != 1.0:
            failures.append(f"fun_cm_lsv({m}, {n}, 0.5) = {fun_cm_lsv(m, n, 0.5)!r}")

    # every block-sum fixed-point run lands within 1e-4 of self-consistency,
    # confirmed against an independently rebuilt context
    runs = [gen_fgn(FgnSpec(h, 5000, s)) for h in (0.3, 0.5, 0.7, 0.8) for s in (0, 1)]
    rng = np.random.Generator(np.random.PCG64(9))
    runs.append(rng.normal(0.0, 1.0, 5000))
    runs.append(rng.uniform(0.0, 1.0, 5000))
    worst = 0.0
    for x in runs:
        res = estimate_series(x, "lssd")
        reported = res.diagnostics["fixed_point_residual"]
        v = (x - x.mean()) / sample_std(x)
        kept_scales, kept_stats = [], []
        n = x.size
        for m in range(1, min(n // 10, math.isqrt(n)) + 1):
            s = block_sum_std(v, m)
            if s > 0.0:
                kept_scales.append(float(m))
                kept_stats.append(s)
        ctx = BlockSumContext(
            x.size, 2.0, 50.0, np.asarray(kept_scales), np.asarray(kept_stats)
        )
        independent = abs(ctm_lssd(res.hurst, ctx) - res.hurst)
        worst = max(worst, reported, independent)
        if reported >= 1e-4 or independent >= 1e-4:
            failures.append(
                f"fixed-point residual {max(reported, independent):.2e} on a "
                f"length-{x.size} run"
            )
    _verdict(
        8,
        "pinned point values",
        failures,
        f"expected_rs(2)=0.75 and fun_cm_lsv(.,.,0.5)=1 exact; "
        f"worst fixed-point residual {worst:.1e}",
    )
