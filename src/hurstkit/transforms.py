"""Fourier and wavelet machinery shared by the frequency-domain estimators.

The DFT is delegated to numpy's pocketfft (any length, Bluestein under the
hood).  The wavelet side is self-contained: an orthonormal periodized
filter-bank cascade plus the two filters the estimators use (Haar and a
48-tap Daubechies filter with 24 vanishing moments, generated offline by
spectral factorization in 60-digit arithmetic -- see tools/make_db24.py).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

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


def _analysis_step(a, filt):
    # circular correlation, stride 2: out[i] = sum_k filt[k] * a[(2i+k) % n]
    n = a.size
    ext = np.concatenate([a, np.resize(a, filt.size - 1)])
    return np.correlate(ext, filt, mode="valid")[::2]


@dataclass
class WaveletDecomposition:
    """Multi-level periodized analysis: details[0] is the finest scale."""

    details: list = field(default_factory=list)
    approx: np.ndarray = None

    @property
    def levels(self):
        return len(self.details)


def wavedec(x, lowpass=HAAR_LOWPASS, levels=None):
    """Orthonormal periodized wavelet analysis of a 1-D signal.

    Odd-length stages are extended by repeating the last sample before
    filtering.  `levels` defaults to floor(log2(n)).  Returns a
    :class:`WaveletDecomposition`; detail coefficients come out finest
    scale first.
    """
    a = np.asarray(x, dtype=float).reshape(-1)
    if a.size < 2:
        raise ArgumentError(f"need at least 2 samples, got {a.size}")
    h = np.asarray(lowpass, dtype=float).reshape(-1)
    if h.size < 2 or h.size % 2:
        raise ArgumentError(f"lowpass filter length must be even >= 2, got {h.size}")
    if levels is None:
        levels = int(np.log2(a.size))
    if levels < 1:
        raise ArgumentError(f"need levels >= 1, got {levels}")
    g = qmf_highpass(h)

    out = WaveletDecomposition()
    for _ in range(levels):
        if a.size % 2:
            a = np.append(a, a[-1])
        out.details.append(_analysis_step(a, g))
        a = _analysis_step(a, h)
    out.approx = a
    return out
