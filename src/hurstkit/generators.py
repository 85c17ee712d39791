"""Synthetic series: i.i.d. noise and exact fractional Gaussian noise.

The FGN sampler uses circulant embedding of the covariance (Davies-Harte):
embed the length-ell autocovariance in a 2*ell circulant, diagonalize it with
one FFT, colour complex white noise by the eigenvalue square roots, and read
the sample off a second FFT.  The output is exact in distribution -- no
truncation or approximation beyond floating point.

The embedding depends on (H, N) only and the noise on the seed only, so
gen_fgn is two steps: _embedding_amplitudes, then _draw_fgn.  The fGn suite
computes the amplitudes once per H and draws every replicate from them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, EmbeddingError

#: relative tolerance for calling an embedding eigenvalue "negative"
_EIG_TOL = 1e-9

#: the i.i.d. families the benchmark draws from
DISTRIBUTIONS = ("normal", "chisq", "geometric", "poisson", "exponential", "uniform")


@dataclass(frozen=True)
class FgnSpec:
    """Parameters of one fractional-Gaussian-noise draw."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ArgumentError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.length < 2:
            raise ArgumentError(f"length must be >= 2, got {self.length}")
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def gen_iid(name, length, seed):
    """I.i.d. samples from one of the benchmark families.

    normal(0,1), chisq(1 dof), geometric(p=0.25) on {1,2,...}, poisson(5),
    exponential(mean 1), uniform(0,1).
    """
    if length < 1:
        raise ArgumentError(f"length must be >= 1, got {length}")
    rng = _rng(seed)
    if name == "normal":
        out = rng.standard_normal(length)
    elif name == "chisq":
        out = rng.chisquare(1, length)
    elif name == "geometric":
        out = rng.geometric(0.25, length).astype(float)
    elif name == "poisson":
        out = rng.poisson(5.0, length).astype(float)
    elif name == "exponential":
        out = rng.exponential(1.0, length)
    elif name == "uniform":
        out = rng.uniform(0.0, 1.0, length)
    else:
        raise ArgumentError(
            f"unknown distribution {name!r}; choose one of {DISTRIBUTIONS}"
        )
    return np.asarray(out, dtype=float)


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

    Raises EmbeddingError if the circulant eigenvalues come out negative
    beyond roundoff.  That does happen at high H: the middle of the circulant
    row holds 0.0 where the Davies-Harte embedding puts rho_n, and at
    H = 0.92 this raises for every length from 1e3 to 3e4.
    """
    if not isinstance(spec, FgnSpec):
        spec = FgnSpec(*spec)
    return _draw_fgn(spec, _embedding_amplitudes(spec.hurst, spec.length))


def _embedding_amplitudes(hurst, ell):
    """Square roots of the 2*ell circulant eigenvalues; EmbeddingError if
    one is negative beyond roundoff."""
    rho = fgn_autocorr(np.arange(ell, dtype=float), hurst)
    row = np.concatenate([rho, [0.0], rho[:0:-1]])  # even circulant row
    eig = np.fft.fft(row).real
    floor = -_EIG_TOL * eig.max()
    if eig.min() < floor:
        raise EmbeddingError(
            f"circulant embedding has negative eigenvalue {eig.min():.3e} "
            f"(hurst={hurst}, length={ell})"
        )
    return np.sqrt(np.clip(eig, 0.0, None))


def _draw_fgn(spec, amp):
    """One path for `spec` from its embedding amplitudes `amp`."""
    ell, hurst = spec.length, spec.hurst
    rng = _rng(spec.seed)
    m = rng.standard_normal(ell)
    n = rng.standard_normal(ell)

    w = np.empty(2 * ell, dtype=complex)
    half = 1.0 / np.sqrt(4.0 * ell)
    w[0] = amp[0] / np.sqrt(2.0 * ell) * m[0]
    w[1:ell] = amp[1:ell] * half * (m[1:] + 1j * n[1:])
    w[ell] = amp[ell] / np.sqrt(2.0 * ell) * n[0]
    w[ell + 1 :] = amp[1:ell][::-1] * half * (m[1:][::-1] - 1j * n[1:][::-1])

    path = np.fft.fft(w).real[:ell]
    return float(ell) ** (-hurst) * path
