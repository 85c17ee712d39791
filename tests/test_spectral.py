"""Tests for the periodogram, wavelet, and full-band Whittle estimators."""

import numpy as np
import pytest

from hurstkit import spectral
from hurstkit.errors import (
    ArgumentError,
    CutoffTooSmallError,
    DegenerateSequenceError,
    InsufficientDataError,
)
from hurstkit.generators import FgnSpec, gen_fgn
from hurstkit.harness import estimate_series
from hurstkit.numerics import loc_min_solve
from hurstkit.partition import demeaned
from hurstkit.spectral import (
    MIN_LEVEL_COEFFS,
    LwObjectiveData,
    _periodogram,
    est_dwt,
    est_lw,
    est_pm,
    obj_fun_lw,
)
from hurstkit.transforms import DB24_LOWPASS, HAAR_LOWPASS, dft, wavedec


def rand_series(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).normal(0.7, 1.3, n)


# ---------------------------------------------------------------------------
# periodogram


def test_pm_matches_independent_oracle():
    for seed in range(3):
        x = rand_series(seed, 256)
        v = x - x.mean()
        n = v.size
        spec = np.fft.fft(v)
        scales, power = [], []
        for j in range(1, n // 2 + 1):
            lam = 2.0 * np.pi * j / n  # GPH: bin j at angular frequency lam
            if j / n <= 0.1:
                scales.append(4.0 * np.sin(lam / 2.0) ** 2)
                power.append(abs(spec[j]) ** 2 / (2.0 * np.pi * n))
        slope = np.polyfit(np.log(scales), np.log(power), 1)[0]
        want = 0.5 - slope
        assert est_pm(x, 0.1, 2).hurst == pytest.approx(want, abs=1e-9)


def dft_periodogram(x):
    """j/N and |X_j|^2, j = 1..floor(N/2), from the complex reference DFT."""
    arr = demeaned(x, 100)
    j = np.arange(1, arr.size // 2 + 1)
    bins = dft(arr)[j]
    return j / arr.size, bins.real**2 + bins.imag**2


def spectral_inputs(n):
    return [("fgn", gen_fgn(FgnSpec(0.7, n, 11))), ("iid", rand_series(11, n))]


@pytest.mark.parametrize("n", [100, 101, 4096, 30000, 30001])
def test_periodogram_matches_reference_dft(n):
    # the real-input FFT gives the complex DFT's bins to rounding
    for _, x in spectral_inputs(n):
        freq, got = _periodogram(x)
        want_freq, want = dft_periodogram(x)
        assert np.array_equal(freq, want_freq) and freq[-1] == n // 2 / n
        assert got.shape == want.shape == (n // 2,)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


@pytest.mark.parametrize("n", [30000, 30001])
def test_pm_and_lw_match_reference_dft_periodogram(n, monkeypatch):
    inputs = spectral_inputs(n) + [("fgn-h0.3", gen_fgn(FgnSpec(0.3, n, 12)))]
    got = {(name, m): estimate_series(x, m).hurst
           for name, x in inputs for m in ("pm", "lw")}
    monkeypatch.setattr(spectral, "_periodogram", dft_periodogram)
    for name, x in inputs:
        want_pm = estimate_series(x, "pm").hurst
        assert got[name, "pm"] == pytest.approx(want_pm, rel=1e-12, abs=0)
        # lw moves within its Brent tolerance, 1e-8 + 1.5e-8 * H
        want_lw = estimate_series(x, "lw").hurst
        assert got[name, "lw"] == pytest.approx(want_lw, rel=0, abs=5e-8)


def test_periodogram_rounding_level_bins_are_zero():
    # a +-1 alternation has one bin, the last, above 0 in exact arithmetic
    alternating = np.tile([1.0, -1.0], 5000)
    _, power = _periodogram(alternating)
    assert np.count_nonzero(power) == 1 and power[-1] > 0
    with pytest.raises(DegenerateSequenceError,
                       match="^pm: the scale statistic is 0 at 1000 of 1000"):
        estimate_series(alternating, "pm")
    # a 0/1 step: every even bin is 0
    _, power = _periodogram(np.r_[np.zeros(5000), np.ones(5000)])
    assert not power[1::2].any() and power[::2].all()


def test_pm_point_count_and_config():
    res = est_pm(rand_series(4, 200), 0.1, 2)
    # j = 1..20 satisfy j/200 <= 0.1
    assert res.diagnostics["n_points"] == 20
    assert res.config == {"cutoff": 0.1, "norm": 2}


def test_pm_validation():
    x = rand_series(1, 400)
    with pytest.raises(ArgumentError, match="^cutoff must be"):
        estimate_series(x, "pm", cutoff=0.0)
    with pytest.raises(ArgumentError, match="^cutoff must be"):
        estimate_series(x, "pm", cutoff=0.6)
    with pytest.raises(CutoffTooSmallError):
        est_pm(x, 1e-5)
    with pytest.raises(InsufficientDataError):
        est_pm(rand_series(1, 99), 0.1)


# ---------------------------------------------------------------------------
# wavelet estimators


@pytest.mark.parametrize("r, lowpass", [(1, DB24_LOWPASS), (2, HAAR_LOWPASS)])
def test_dwt_matches_independent_assembly(r, lowpass):
    # the transform itself is validated by hand in test_transforms; this
    # checks the estimator's level bookkeeping and slope mapping over it
    for seed in range(3):
        x = rand_series(10 + seed, 1024)
        v = x - x.mean()
        dec = wavedec(v, lowpass)
        scales, stats = [], []
        for level, detail in enumerate(dec.details, start=1):
            if detail.size < MIN_LEVEL_COEFFS:
                continue
            mag = np.abs(detail)
            stat = mag.mean() if r == 1 else np.var(mag, ddof=1)
            if stat > 0:
                scales.append(2.0**level)
                stats.append(stat)
        slope = np.polyfit(np.log(scales), np.log(stats), 1)[0]
        want = 0.5 + slope / r
        assert est_dwt(x, r).hurst == pytest.approx(want, abs=1e-10)


def test_dwt_excludes_thin_levels():
    res = est_dwt(rand_series(3, 64), r=2)
    # 6 levels on 64 samples; only the 32- and 16-coefficient levels survive
    assert res.diagnostics["n_points"] == 2
    assert res.diagnostics["excluded_segments"] == 4


def test_dwt_validation():
    with pytest.raises(InsufficientDataError):
        est_dwt(rand_series(0, 63))
    with pytest.raises(DegenerateSequenceError):
        est_dwt(np.full(128, 5.0), r=2)


def test_dwt_method_ids():
    x = rand_series(8, 256)
    assert est_dwt(x, 1).method == "awc"
    assert est_dwt(x, 2).method == "vvl"


# ---------------------------------------------------------------------------
# full-band Whittle


def test_obj_fun_lw_matches_accumulation_oracle():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(3):
        freq = np.sort(rng.uniform(0.01, 0.5, 40))
        power = rng.uniform(0.1, 5.0, 40)
        data = LwObjectiveData(freq, power)
        for hurst in (0.1, 0.45, 0.9):
            acc = 0.0
            for f, p in zip(freq, power):
                acc += f ** (2 * hurst - 1) * p
            want = np.log(acc / len(freq)) - (2 * hurst - 1) * np.mean(
                [np.log(f) for f in freq]
            )
            assert obj_fun_lw(hurst, data) == pytest.approx(want, abs=1e-12)


def test_obj_fun_lw_power_law_minimum():
    # I(f) = f^(1-2H0) is the idealized long-memory spectrum; the profile
    # likelihood is minimized exactly at H0
    h0 = 0.7
    freq = np.arange(1, 1025) / 2048
    data = LwObjectiveData(freq, freq ** (1.0 - 2.0 * h0))
    hurst, psi = loc_min_solve(lambda h: obj_fun_lw(h, data),
                               0.001, 0.999, 1e-8)
    assert hurst == pytest.approx(h0, abs=1e-6)
    assert psi == obj_fun_lw(hurst, data)


def test_lw_objective_data_validation():
    with pytest.raises(DegenerateSequenceError):
        obj_fun_lw(0.5, LwObjectiveData(np.array([0.1, 0.2]), np.zeros(2)))


def test_est_lw_white_noise_and_surface():
    res = est_lw(rand_series(21, 3000))
    assert 0.4 < res.hurst < 0.6
    assert 0.001 <= res.hurst <= 0.999
    assert res.config == {}
    assert "objective" in res.diagnostics
    assert res.diagnostics["residual_norm"] is None
    assert res.diagnostics["n_points"] == 1500


@pytest.mark.parametrize("hurst, seed", [(0.3, 1), (0.5, 2), (0.8, 3)])
def test_est_lw_evaluates_no_hurst_twice(hurst, seed, monkeypatch):
    # the objective comes from the minimizer, not from one more evaluation
    calls = []

    def recorded(h, data):
        calls.append((h, obj_fun_lw(h, data)))
        return calls[-1][1]

    monkeypatch.setattr(spectral, "obj_fun_lw", recorded)
    res = est_lw(gen_fgn(FgnSpec(hurst, 3000, seed)))
    seen = dict(calls)
    assert len(seen) == len(calls)
    assert res.diagnostics["objective"] == seen[res.hurst]


def test_est_lw_validation():
    with pytest.raises(InsufficientDataError):
        est_lw(rand_series(0, 99))
    with pytest.raises(DegenerateSequenceError):
        est_lw(np.full(200, 1.23))
