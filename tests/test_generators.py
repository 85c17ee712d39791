"""Tests for the noise generators.

The FGN sampler is checked distribution-level against the target
autocovariance (many short paths), plus exact determinism per seed.
"""

import numpy as np
import pytest

from hurstkit.errors import ArgumentError
from hurstkit.generators import (
    DISTRIBUTIONS,
    FgnSpec,
    fgn_autocorr,
    gen_fgn,
    gen_iid,
)


# ------------------------------------------------------------------ iid noise


def test_gen_iid_normal_deterministic_per_seed():
    a = gen_iid("normal", 100, 42)
    b = gen_iid("normal", 100, 42)
    c = gen_iid("normal", 100, 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.dtype == np.float64


def test_gen_iid_supports():
    n = 4000
    draws = {name: gen_iid(name, n, 7) for name in DISTRIBUTIONS}
    assert abs(draws["normal"].mean()) < 0.1
    assert np.all(draws["chisq"] >= 0)
    geo = draws["geometric"]
    assert np.all(geo >= 1) and np.array_equal(geo, np.round(geo))
    poi = draws["poisson"]
    assert np.all(poi >= 0) and np.array_equal(poi, np.round(poi))
    assert abs(poi.mean() - 5.0) < 0.2
    assert np.all(draws["exponential"] >= 0)
    uni = draws["uniform"]
    assert np.all((uni >= 0) & (uni < 1))
    for name in DISTRIBUTIONS:
        assert draws[name].dtype == np.float64


def test_gen_iid_unknown_family():
    with pytest.raises(ArgumentError, match="cauchy"):
        gen_iid("cauchy", 10, 0)


def test_generator_length_validation():
    with pytest.raises(ArgumentError):
        gen_iid("normal", 0, 1)


# ---------------------------------------------------------------- FGN basics


def test_fgn_spec_validation():
    FgnSpec(0.5, 100, 0)
    with pytest.raises(ArgumentError):
        FgnSpec(0.0, 100, 0)
    with pytest.raises(ArgumentError):
        FgnSpec(1.0, 100, 0)
    with pytest.raises(ArgumentError):
        FgnSpec(0.5, 1, 0)
    with pytest.raises(ArgumentError):
        FgnSpec(0.5, 100, -3)


def test_autocorr_frozen_values():
    # lag 2 at H = 0.75: (3^1.5 - 2*2^1.5 + 1)/2
    assert fgn_autocorr(2, 0.75) == pytest.approx(
        0.5 * (3.0**1.5 - 2.0 * 2.0**1.5 + 1.0), abs=1e-15
    )
    assert fgn_autocorr(2, 0.75) == pytest.approx(0.269649, abs=5e-7)
    # lag 1 at H = 0.7: 2^0.4 - 1
    assert fgn_autocorr(1, 0.7) == pytest.approx(2.0**0.4 - 1.0, abs=1e-15)
    assert fgn_autocorr(1, 0.7) == pytest.approx(0.31951, abs=5e-6)


def test_autocorr_white_noise_and_symmetry():
    assert fgn_autocorr(0, 0.3) == 1.0
    for lag in range(1, 6):
        assert fgn_autocorr(lag, 0.5) == 0.0
        assert fgn_autocorr(-lag, 0.8) == fgn_autocorr(lag, 0.8)


def test_autocorr_sign_by_regime():
    assert fgn_autocorr(1, 0.8) > 0  # persistent
    assert fgn_autocorr(1, 0.2) < 0  # anti-persistent


def test_gen_fgn_deterministic_and_accepts_tuple():
    a = gen_fgn(FgnSpec(0.7, 1000, 42))
    b = gen_fgn((0.7, 1000, 42))
    c = gen_fgn(FgnSpec(0.7, 1000, 43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (1000,)


# ----------------------------------------------- FGN distributional fidelity


def test_fgn_empirical_covariance_matches_target():
    # many short paths: the empirical correlations at small lags must match
    # rho(tau) to Monte-Carlo accuracy (~1/sqrt(reps))
    ell, reps, hurst = 8, 20000, 0.7
    paths = np.empty((reps, ell))
    for r in range(reps):
        paths[r] = gen_fgn(FgnSpec(hurst, ell, 1_000_000 + r))
    paths *= float(ell) ** hurst  # undo the grid scale: unit variance now
    var = paths.var()
    assert var == pytest.approx(1.0, abs=0.05)
    for lag in (1, 2, 3):
        emp = np.mean(paths[:, :-lag] * paths[:, lag:]) / var
        assert emp == pytest.approx(fgn_autocorr(lag, hurst), abs=0.03)


def test_fgn_pointwise_scale():
    # mean square of the output is length**(-2H), up to sampling noise
    for hurst in (0.3, 0.5, 0.8):
        ratios = []
        for seed in range(10):
            x = gen_fgn(FgnSpec(hurst, 10000, seed))
            ratios.append(np.mean(x * x) * 10000.0 ** (2 * hurst))
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.1)


def test_fgn_half_is_white():
    x = gen_fgn(FgnSpec(0.5, 20000, 5))
    r1 = np.sum(x[:-1] * x[1:]) / np.sum(x * x)
    assert abs(r1) < 0.03
