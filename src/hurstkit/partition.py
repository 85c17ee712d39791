"""Exact segmentation of a series into equal-length windows.

A length N usually does not divide evenly into windows of interesting sizes.
Instead of padding or overlapping, we look for the *optimal sub-length*: the
candidate length in [ceil(alpha*N), N] with the most "bounded proper factors"
-- divisors d with w <= d <= a//w -- and partition only that prefix.  Every
window size used downstream then tiles the prefix exactly, and only a small
tail (at most (1-alpha)*N samples) is discarded.

The search counts bounded factors for every candidate at once with a divisor
sieve: each d in [w, N//w] marks its multiples a in the candidate window that
satisfy d*w <= a, and a bincount over the marks gives every candidate's
count.  The marks number about (1-alpha)*N*ln(N/w^2) + N/w, so the search
costs O(N) array work and no Python loop over candidates.

A PreparedSeries lets several estimators share one input: `demeaned`
validates, demeans and scales it once, and `shared` keeps what they build
from it (a partition, a profile, a periodogram) for the next one to read.
"""

import reprlib

import numpy as np

from .errors import ArgumentError, InsufficientDataError, NoPartitionError

DEFAULT_ALPHA = 0.99


def as_series(x):
    """Validate and return a 1-D float64 array (length >= 2, finite).

    Values that are not real numbers (a string that is not a number, an
    object, a complex value, complex array included) are an ArgumentError
    naming the input.
    """
    try:
        if getattr(getattr(x, "dtype", None), "kind", None) == "c":
            raise TypeError  # numpy would drop the imaginary part, warning
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ArgumentError(
            f"expected a series of real numbers, got {reprlib.repr(x)}"
        ) from None
    if arr.ndim != 1:
        arr = arr.squeeze()
        if arr.ndim != 1:
            raise ArgumentError(f"expected a 1-D series, got shape {np.shape(x)}")
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ArgumentError(f"series contains a non-finite value at index {bad}")
    return arr


class PreparedSeries:
    """One input series that several estimators read in turn.

    It holds the input as given and validates nothing when built: the first
    estimator's `demeaned` call does that, so an invalid input raises inside
    every estimator exactly as the plain array would.
    """

    __slots__ = ("source", "_cache")

    def __init__(self, x):
        self.source = x
        self._cache = {}


def shared(x, key, build):
    """build(), kept under `key` on a PreparedSeries `x` and built only once.

    On a plain array this is just build().  A kept value is made read-only
    (arrays become read-only views, lists become tuples).  A build that
    raises keeps nothing, so the next estimator raises the same error anew.
    """
    if not isinstance(x, PreparedSeries):
        return build()
    try:
        return x._cache[key]
    except KeyError:
        value = x._cache[key] = _read_only(build())
        return value


def _read_only(value):
    if isinstance(value, np.ndarray):
        value = value.view()  # the caller's own array keeps its flags
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        value = tuple(_read_only(item) for item in value)
    return value


def demeaned(x, min_length=2):
    """Validate with as_series, check the length floor, subtract the mean
    and scale by 2^-e, e the np.frexp exponent of max|deviation|.

    The prepare step of every estimator; `min_length` is the caller's floor.
    Their statistics are mean- and scale-free, so this changes nothing
    mathematically, but every estimator sees deviations in [0.5, 1), and
    shift and 2^k scaling invariance hold exactly whenever the inputs demean
    to the same array up to 2^k.  A PreparedSeries is validated and demeaned
    once; the floor is checked on every call.
    """
    source = x.source if isinstance(x, PreparedSeries) else x
    arr = shared(x, "series", lambda: as_series(source))
    if arr.size < min_length:
        raise InsufficientDataError(
            f"need at least {min_length} samples, got {arr.size}"
        )
    def build():
        dev = arr - arr.mean()
        # ldexp: 2.0**-e can leave the float range where dev * 2^-e does not
        return np.ldexp(dev, -np.frexp(max(dev.max(), -dev.min()))[1], out=dev)

    return shared(x, "demeaned", build)


def cumulative_bias(x):
    """Mean-adjusted running sums: Y_i = sum_{j<=i} (x_j - mean(x)).

    `x` is a validated float array, as demeaned returns it.  Computed as
    cumsum(x) - i*mean so the final element telescopes to zero up to a
    couple of ulps regardless of length (the two terms share the final
    rounding of the total sum), with both terms formed in place.
    """
    c = np.cumsum(x, dtype=float)
    n = c.size
    ramp = np.arange(1.0, n + 1.0)
    ramp *= c[-1] / n
    c -= ramp
    return c


def sample_std(x):
    """Unbiased (n-1) standard deviation of two or more samples."""
    return float(np.std(x, ddof=1))


def gen_sbpf(a, w):
    """Bounded proper factors of `a`: divisors d with w <= d <= a // w.

    Returns an ascending list of ints; empty when `a` is prime.  Takes
    a >= 4 and 2 <= w <= isqrt(a), as search_opt_seq_len passes them.
    """
    cand = np.arange(w, a // w + 1)
    return [int(d) for d in cand[a % cand == 0]]


def search_opt_seq_len(n, w, alpha=DEFAULT_ALPHA):
    """Pick the length in [ceil(alpha*n), n] with the most bounded proper factors.

    Takes ints n and w >= 2, as timedomain._partitioned passes them.  Ties
    go to the *largest* candidate so the least data is discarded.  Returns
    ``(n_opt, factors)``, `factors` the ascending divisor list of the winner.

    Raises
    ------
    InsufficientDataError
        if n < w*w (no candidate can have a factor in the band).
    NoPartitionError
        if every candidate in the range is factor-free.
    """
    if not 0.95 <= alpha <= 1.0:
        raise ArgumentError(f"need 0.95 <= alpha <= 1, got {alpha}")
    if n < w * w:
        raise InsufficientDataError(
            f"partition of {n} samples at w={w} needs w^2 = {w * w}"
        )

    lo = int(np.ceil(alpha * n))
    d = np.arange(w, n // w + 1)
    # first multiple of d that is both in the window and >= d*w
    first = np.maximum(-(-lo // d), w) * d
    reps = np.maximum((n - first) // d + 1, 0)
    offsets = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    marks = np.repeat(first - lo, reps) + offsets * np.repeat(d, reps)
    counts = np.bincount(marks, minlength=n - lo + 1)
    best = counts.size - 1 - int(np.argmax(counts[::-1]))  # largest wins ties
    if counts[best] == 0:
        raise NoPartitionError(
            f"partition of {n} samples at w={w} finds no length in "
            f"[{lo}, {n}] with a factor in [{w}, length//{w}]"
        )
    best_len = lo + best
    return best_len, gen_sbpf(best_len, w)


def seq_partition(x, m, k):
    """Split the first m*k samples into k back-to-back windows of length m.

    The remainder x[m*k:] is discarded.  Returns a (k, m) array whose rows
    are the windows in order.
    """
    arr = as_series(x)
    m = int(m)
    k = int(k)
    if m < 1 or k < 1:
        raise ArgumentError(f"need m >= 1 and k >= 1, got m={m} k={k}")
    if m * k > arr.size:
        raise ArgumentError(f"m*k = {m * k} exceeds series length {arr.size}")
    return arr[: m * k].reshape(k, m)
