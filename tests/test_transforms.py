"""Tests for the Fourier and wavelet transforms.

The DFT is verified against a direct O(N^2) evaluation of the defining sum;
the wavelet cascade against hand-computed Haar values, energy conservation,
the defining identities of the 48-tap filter, and the cascade it replaced,
kept here as an oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstkit.generators import FgnSpec, gen_fgn
from hurstkit.transforms import (
    DB24_LOWPASS,
    HAAR_LOWPASS,
    dft,
    qmf_highpass,
    wavedec,
)

SQ2 = math.sqrt(2.0)


def dft_direct(x):
    """The defining sum, evaluated literally."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * math.pi * k * j / n)) for j in k])


def two_extension_wavedec(x, lowpass):
    """(details, approx) of wavedec as written before it shared one periodic
    extension between its two filters: each filter extended the stage on
    its own."""

    def analysis_step(a, filt):
        ext = np.concatenate([a, np.resize(a, filt.size - 1)])
        return np.correlate(ext, filt, mode="valid")[::2]

    h = np.asarray(lowpass, dtype=float)
    g = qmf_highpass(h)
    a, details = x, []
    for _ in range(int(np.log2(a.size))):
        if a.size % 2:
            a = np.append(a, a[-1])
        details.append(analysis_step(a, g))
        a = analysis_step(a, h)
    return details, a


def decomposition_energy(dec):
    return sum(float(np.sum(d**2)) for d in dec.details) + float(
        np.sum(dec.approx**2)
    )


# ---------------------------------------------------------------------- DFT


@pytest.mark.parametrize("n", [7, 16, 100, 255])
def test_dft_matches_direct_sum(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    assert np.max(np.abs(dft(x) - dft_direct(x))) < 1e-9


def periodogram(x):
    """|X_k|^2 / N from the reference dft; est_pm reads the same bins from a
    real-input FFT (tests/test_spectral.py checks the two agree)."""
    spec = dft(np.asarray(x, dtype=float))
    return (spec.real**2 + spec.imag**2) / spec.size


def test_dft_inverted_by_ifft():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(129)
    assert np.max(np.abs(np.fft.ifft(dft(x)) - x)) < 1e-12


def test_periodogram_impulse_and_constant():
    assert periodogram([1.0, 0.0, 0.0, 0.0]).tolist() == [0.25] * 4
    assert periodogram([1.0, 1.0, 1.0, 1.0]).tolist() == [4.0, 0.0, 0.0, 0.0]


def test_periodogram_parseval():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(301)
    assert np.sum(periodogram(x)) == pytest.approx(np.sum(x**2), rel=1e-12)


# ------------------------------------------------------------------ filters


def test_qmf_haar_convention():
    g = qmf_highpass(HAAR_LOWPASS)
    assert np.allclose(g, [1.0 / SQ2, -1.0 / SQ2], atol=1e-15)


def test_db24_defining_identities():
    h = np.asarray(DB24_LOWPASS)
    assert h.size == 48
    assert abs(h.sum() - SQ2) < 1e-12
    assert abs(np.sum(h * h) - 1.0) < 1e-12
    # orthonormality to even shifts of itself
    for lag in range(2, 48, 2):
        assert abs(np.sum(h[lag:] * h[:-lag])) < 1e-14
    # the mirror filter has zero mean and unit energy
    g = qmf_highpass(h)
    assert abs(g.sum()) < 1e-12
    assert abs(np.sum(g * g) - 1.0) < 1e-12


# ------------------------------------------------------------------ wavedec


def test_haar_one_level_by_hand():
    dec = wavedec(np.array([4.0, 2.0, 7.0, 1.0]), HAAR_LOWPASS)
    assert np.allclose(dec.details[0], [2.0 / SQ2, 6.0 / SQ2], atol=1e-15)


def test_haar_default_depth_and_second_level():
    dec = wavedec(np.array([4.0, 2.0, 7.0, 1.0]), HAAR_LOWPASS)
    assert len(dec.details) == 2  # floor(log2(4))
    # second level acts on [6/sq2, 8/sq2]
    assert np.allclose(dec.details[1], [(6.0 - 8.0) / 2.0], atol=1e-15)
    assert np.allclose(dec.approx, [(6.0 + 8.0) / 2.0], atol=1e-15)


def test_haar_odd_length_repeats_last_sample():
    dec = wavedec(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), HAAR_LOWPASS)
    assert len(dec.details) == 2  # floor(log2(5))
    assert np.allclose(dec.details[0], [-1.0 / SQ2, -1.0 / SQ2, 0.0], atol=1e-15)
    # the first level's approximation [3, 7, 10]/sq2 is odd too: its last
    # sample repeats, [3, 7, 10, 10]/sq2
    assert np.allclose(dec.details[1], [-2.0, 0.0], atol=1e-15)
    assert np.allclose(dec.approx, [5.0, 10.0], atol=1e-15)


def test_haar_constant_signal_has_zero_details():
    dec = wavedec(np.full(64, 3.25), HAAR_LOWPASS)
    for d in dec.details:
        assert np.all(d == 0.0)
    assert dec.approx[0] == pytest.approx(3.25 * 8.0, abs=1e-12)


def test_energy_conserved_on_dyadic_lengths():
    rng = np.random.default_rng(21)
    for filt in (HAAR_LOWPASS, DB24_LOWPASS):
        x = rng.standard_normal(512)
        dec = wavedec(x, filt)
        assert decomposition_energy(dec) == pytest.approx(
            float(np.sum(x**2)), abs=1e-8
        )


def test_db24_annihilates_interior_polynomial():
    # a cubic ramp: every detail window not crossing the wrap-around is zero
    n = 256
    t = np.arange(n, dtype=float)
    x = 1.0 + 0.5 * t - 0.01 * t**2 + 1e-4 * t**3
    dec = wavedec(x, DB24_LOWPASS)
    interior = dec.details[0][: (n - 48) // 2]
    assert np.max(np.abs(interior)) < 1e-8
    # ... and the boundary-crossing windows are decidedly not zero
    assert np.max(np.abs(dec.details[0])) > 1.0


def test_wavedec_level_lengths_halve():
    # floor(log2(96)) = 6 levels; the odd stage of 3 is extended to 4
    dec = wavedec(np.arange(96.0), HAAR_LOWPASS)
    assert [d.size for d in dec.details] == [48, 24, 12, 6, 3, 2]
    assert dec.approx.size == 2


@pytest.mark.parametrize("filt", [HAAR_LOWPASS, DB24_LOWPASS],
                         ids=["haar", "db24"])
@pytest.mark.parametrize("n", [30000, 30001, 40])
def test_wavedec_is_bitwise_the_two_extension_form(filt, n):
    # 30000 has odd stages, and 40 stages shorter than the 48-tap filter,
    # whose extension wraps around more than once
    x = gen_fgn(FgnSpec(0.7, n, 4))
    dec = wavedec(x, filt)
    details, approx = two_extension_wavedec(x, filt)
    assert len(dec.details) == len(details)
    for got, want in zip(dec.details, details):
        assert np.array_equal(got, want)
    assert np.array_equal(dec.approx, approx)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_wavedec_parseval_property(log2n, seed):
    x = np.random.default_rng(seed).standard_normal(2**log2n)
    for filt in (HAAR_LOWPASS, DB24_LOWPASS):
        dec = wavedec(x, filt)
        assert decomposition_energy(dec) == pytest.approx(
            float(np.sum(x**2)), rel=1e-10
        )


@given(st.integers(min_value=2, max_value=400),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_dft_roundtrip_property(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    back = np.fft.ifft(dft(x))
    assert np.max(np.abs(back.real - x)) < 1e-10
    assert np.max(np.abs(back.imag)) < 1e-10
