"""Exception taxonomy.

Two families matter to callers (and to the CLI exit-code mapping):

* :class:`ArgumentError` — the caller passed something unusable (bad flag,
  window out of range, tolerance <= 0, ...).  CLI exit code 1.
* :class:`DataError` — the arguments were fine but the data (or an iteration
  on it) failed: too short, degenerate, non-convergent, unparseable.
  CLI exit code 2.
"""


class HurstkitError(Exception):
    """Base class for every error raised by this package."""


class ArgumentError(HurstkitError, ValueError):
    """A parameter is outside its documented range or otherwise unusable."""


class DataError(HurstkitError):
    """The input data (or a computation on it) cannot produce an estimate."""


class InsufficientDataError(DataError):
    """Fewer samples than the operation needs."""


class DomainError(DataError):
    """A value outside the mathematical domain (e.g. log of a non-positive
    statistic); the message names the offending index."""


class DegenerateSequenceError(DataError):
    """A statistic the estimator must take a logarithm of collapsed to zero
    (constant input, all-equal segment means, zero-variance segments, ...)."""


class NoPartitionError(DataError):
    """No candidate length in the search range has any bounded proper factor."""


class NonConvergenceError(DataError):
    """An iteration exhausted its budget; carries the last iterates seen."""

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class SingularityError(DataError):
    """Evaluation at (or numerically at) a pole of a formula."""


class SingularSystemError(DataError):
    """A linear system's denominator/determinant vanished."""


class EmbeddingError(DataError):
    """Circulant embedding produced a materially negative eigenvalue."""


class CutoffTooSmallError(ArgumentError):
    """Frequency cutoff leaves fewer than two spectral bins."""


class SeriesParseError(DataError):
    """A data file failed to parse; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number
