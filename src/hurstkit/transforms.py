"""Fourier and wavelet machinery of the frequency-domain estimators.

`dft` is the reference transform, numpy's complex pocketfft (any length,
Bluestein under the hood); the periodogram takes the same bins from a
real-input FFT and is tested against it.  The wavelet side is
self-contained: an orthonormal periodized filter-bank cascade (Mallat 1989)
plus the two filters the estimators use (Haar and a 48-tap Daubechies filter
with 24 vanishing moments, generated offline by spectral factorization in
60-digit arithmetic -- see tools/make_db24.py).

Each level of the cascade is one blocked product.  For a filter of L > 2
taps, windows of W = 2B + L - 2 samples of the stage's periodic extension,
starting 2B samples apart, times one banded W x 2B matrix that holds both
filters give B = 16 detail and B approximation coefficients per row.  The
band's zeros add exactly nothing, so each output is still the sum of its L
products, rounded in BLAS's order.  numpy copies the overlapping windows
into a contiguous buffer, one chunk of rows at a time; a chunk holds at most
2^18 multiply-adds, up to which OpenBLAS runs a gemm on one thread, so the
coefficients do not depend on the BLAS thread count and a process pool's
workers start no BLAS threads (OpenBLAS 0.3.31 on 2 vCPUs: above it, some
of these thin products took 6-8 ms a call on two threads, against at most
0.15 ms on one).  The 2-tap Haar filter is two products and a sum per
output, g0 a[2i] + g1 a[2i+1]: with g1 = -g0 an equal pair's detail is
exactly 0, where a fused multiply-add would leave the rounding of g0 a[2i]
behind.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

HAAR_LOWPASS = (0.7071067811865476, 0.7071067811865476)

DB24_LOWPASS = (
    -4.3427825038037102e-12,
    6.9918011576382310e-11,
    -4.0246586445843798e-10,
    4.7483758242562311e-10,
    5.1577767896719996e-9,
    -2.2557403881760861e-8,
    -5.0576454197925003e-10,
    2.1663396532785746e-7,
    -4.0325077568799716e-7,
    -8.9802531439384077e-7,
    3.9011003385977026e-6,
    1.3411577508091147e-8,
    -2.0228882926126977e-5,
    2.1832414604665584e-5,
    6.5593886393056341e-5,
    -0.00014600798177626168,
    -0.00011812332379695547,
    0.00058612705931831099,
    -4.4161848561415201e-5,
    -0.0016964568189748244,
    0.0011537649368394815,
    0.0037360461782825233,
    -0.0047465687863231138,
    -0.0062914353700181878,
    0.013049970871085736,
    0.0076617218816465859,
    -0.028213107094901891,
    -0.0049447094281256283,
    0.051301620039980879,
    -0.0045784362418192216,
    -0.082161654208001667,
    0.020980113709144815,
    0.12101630346922424,
    -0.038777173577920016,
    -0.17117535137034689,
    0.042528729641483833,
    0.23923738878031086,
    0.0047766136843447282,
    -0.31794307899936274,
    -0.18727140688515624,
    0.28098555323371188,
    0.57493922109554200,
    0.50437104083992499,
    0.27290891606772633,
    0.097262235833625197,
    0.022482339949716411,
    0.0030820817149054944,
    0.00019143580094755137,
)


def dft(x):
    """Discrete Fourier transform (complex output, any length)."""
    return np.fft.fft(np.asarray(x))


def qmf_highpass(lowpass):
    """Quadrature-mirror highpass g[k] = (-1)^k h[L-1-k] for a lowpass h."""
    h = np.asarray(lowpass, dtype=float).reshape(-1)
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


@dataclass
class WaveletDecomposition:
    """Multi-level periodized analysis: details[0] is the finest scale."""

    details: list = field(default_factory=list)
    approx: np.ndarray = None


_BLOCK = 16  # detail (and approximation) coefficients per row of the product
_CHUNK_MACS = 2**18  # multiply-adds per matrix product, at most


@lru_cache(maxsize=8)
def _band(lowpass):
    """The W x 2B banded matrix of one analysis step, W = 2B + L - 2.

    Column c < B holds the highpass g at rows 2c .. 2c + L - 1, column B + c
    the lowpass h at the same rows, so a window of W samples starting at
    sample 2jB times the band gives the B detail and B approximation
    coefficients j*B .. j*B + B - 1.  Built once per filter; read-only,
    since every call shares it.
    """
    h = np.asarray(lowpass, dtype=float)
    g = qmf_highpass(h)
    band = np.zeros((2 * _BLOCK + h.size - 2, 2 * _BLOCK))
    for c in range(_BLOCK):
        band[2 * c : 2 * c + h.size, c] = g
        band[2 * c : 2 * c + h.size, _BLOCK + c] = h
    band.flags.writeable = False
    return band


def _banded_step(a, band):
    """One analysis step of an even-length stage through the band: returns
    the (rows, 2B) product whose row j holds details then approximations
    j*B .. j*B + B - 1, zero-padded past n/2.

    The windows are views of the stage's periodic extension, 2B samples
    apart; numpy copies each chunk of them into a contiguous buffer for
    BLAS, and the chunks keep each product within _CHUNK_MACS multiply-adds.
    """
    width, cols = band.shape
    rows = -(-a.size // cols)
    # np.resize repeats the stage as often as a wrap longer than it needs
    wrap = rows * cols + width - cols - a.size
    ext = np.concatenate([a, np.resize(a, wrap)])
    windows = np.lib.stride_tricks.sliding_window_view(ext, width)[::cols]
    out = np.empty((rows, cols))
    chunk = max(1, _CHUNK_MACS // band.size)  # band.size: one row's
    for s in range(0, rows, chunk):
        np.matmul(windows[s : s + chunk], band, out=out[s : s + chunk])
    return out


def wavedec(x, lowpass):
    """Orthonormal periodized wavelet analysis of a 1-D signal, floor(log2 n)
    levels deep.

    `x` is a float array of n >= 2 samples, as partition.demeaned returns
    it, and `lowpass` an even-length filter.  Odd-length stages are extended
    by repeating the last sample before filtering.  Returns a
    :class:`WaveletDecomposition`; detail coefficients come out finest
    scale first, each level an array of its own, half its stage's length.

    A level is the stride-2 circular correlation
    out[i] = sum_k f[k] * a[(2i + k) % n] of the stage a with f = g, h:
    for L > 2 taps through the banded product of _banded_step (the module
    docstring gives the band and its chunk bound), for Haar as
    f[0] * a[0::2] + f[1] * a[1::2], which keeps an equal pair's detail
    exactly 0.
    """
    h = np.asarray(lowpass, dtype=float)
    g = qmf_highpass(h)
    band = _band(tuple(lowpass)) if h.size > 2 else None

    a = x
    out = WaveletDecomposition()
    for _ in range(int(np.log2(a.size))):
        if a.size % 2:
            a = np.append(a, a[-1])
        if band is None:
            even, odd = a[0::2], a[1::2]
            out.details.append(g[0] * even + g[1] * odd)
            a = h[0] * even + h[1] * odd
        else:
            prod, half = _banded_step(a, band), a.size // 2
            out.details.append(prod[:, :_BLOCK].flatten()[:half])
            a = prod[:, _BLOCK:].flatten()[:half]
    out.approx = a
    return out
