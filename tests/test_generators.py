"""Tests for the noise generators.

The FGN sampler is checked distribution-level against the target
autocovariance (many short paths), plus exact determinism per seed, and
path by path against the full complex-FFT construction it replaced.
"""

import tracemalloc

import numpy as np
import pytest

from hurstkit.errors import ArgumentError, EmbeddingError
from hurstkit.generators import (
    DISTRIBUTIONS,
    FgnSpec,
    _embedding_amplitudes,
    _rng,
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


@pytest.mark.parametrize("length, seed, field", [
    (10.0, 1, "length"),
    (10, 1.5, "seed"),
    ("10", 1, "length"),
    (10, -1, "seed"),
])
def test_gen_iid_names_a_bad_count(length, seed, field):
    with pytest.raises(ArgumentError, match=field):
        gen_iid("normal", length, seed)


def test_generators_take_numpy_integers():
    assert np.array_equal(gen_iid("normal", np.int64(50), np.uint32(3)),
                          gen_iid("normal", 50, 3))
    assert np.array_equal(gen_fgn(FgnSpec(0.7, np.int32(50), np.int64(3))),
                          gen_fgn(FgnSpec(0.7, 50, 3)))


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


@pytest.mark.parametrize("length, seed, field", [
    (3000.0, 1, "length"),
    (3000, 1.5, "seed"),
    (3000, 1.0, "seed"),
    (None, 1, "length"),
])
def test_fgn_spec_names_a_non_integral_count(length, seed, field):
    with pytest.raises(ArgumentError, match=f"{field} must be an integer"):
        FgnSpec(0.7, length, seed)


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


# ----------------------------------------- FGN against the complex-FFT oracle


def _complex_fgn(spec):
    """(amplitudes, path) by the full-length complex construction: one
    complex FFT of the 2*ell even row for the eigenvalues, the whole
    Hermitian noise vector written out, one complex FFT for the path."""
    ell, hurst = spec.length, spec.hurst
    rho = fgn_autocorr(np.arange(ell, dtype=float), hurst)
    row = np.concatenate([rho, [0.0], rho[:0:-1]])
    eig = np.fft.fft(row).real
    if eig.min() < -1e-9 * eig.max():
        raise EmbeddingError(f"negative eigenvalue {eig.min():.3e}")
    amp = np.sqrt(np.clip(eig, 0.0, None))

    rng = _rng(spec.seed)
    m = rng.standard_normal(ell)
    n = rng.standard_normal(ell)
    w = np.empty(2 * ell, dtype=complex)
    half = 1.0 / np.sqrt(4.0 * ell)
    w[0] = amp[0] / np.sqrt(2.0 * ell) * m[0]
    w[1:ell] = amp[1:ell] * half * (m[1:] + 1j * n[1:])
    w[ell] = amp[ell] / np.sqrt(2.0 * ell) * n[0]
    w[ell + 1 :] = amp[1:ell][::-1] * half * (m[1:][::-1] - 1j * n[1:][::-1])
    return amp, float(ell) ** (-hurst) * np.fft.fft(w).real[:ell]


ORACLE_GRID = [(h, ell) for h in (0.3, 0.5, 0.7, 0.9) for ell in (2, 3, 1000, 30001)]


@pytest.mark.parametrize("hurst, ell", ORACLE_GRID)
def test_gen_fgn_matches_complex_oracle(hurst, ell):
    spec = FgnSpec(hurst, ell, 11)
    try:
        amp_ref, path_ref = _complex_fgn(spec)
    except EmbeddingError:
        with pytest.raises(EmbeddingError, match="negative eigenvalue"):
            gen_fgn(spec)
        return
    amp = _embedding_amplitudes(hurst, ell)
    assert amp.shape == (ell + 1,)
    assert amp.flags.c_contiguous and amp.flags.owndata
    assert np.abs(amp - amp_ref[: ell + 1]).max() <= 1e-12 * amp_ref.max()
    path = gen_fgn(spec)
    assert np.abs(path - path_ref).max() <= 1e-13 * float(ell) ** (-hurst)


@pytest.mark.parametrize("ell", [1000, 30000])
def test_gen_fgn_embedding_fails_at_h092(ell):
    with pytest.raises(EmbeddingError, match="negative eigenvalue"):
        gen_fgn(FgnSpec(0.92, ell, 1))


def test_gen_fgn_path_owns_its_samples():
    x = gen_fgn(FgnSpec(0.7, 1001, 3))
    assert x.flags.owndata and x.base is None
    assert x.nbytes == 8 * 1001


def test_gen_fgn_peak_memory():
    # about five float arrays of the path's length at the peak; the
    # complex construction above peaks at 13
    ell = 2**17
    spec = FgnSpec(0.7, ell, 1)
    gen_fgn(spec)  # the FFT plans and the generator's tables, once
    tracemalloc.start()
    try:
        gen_fgn(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * ell


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
