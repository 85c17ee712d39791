"""hurstkit: thirteen Hurst-exponent estimators over an optimal-partition
core, with a reproducible fractional-Gaussian-noise generator and benchmark
suites."""

from .bench import run_fgn_suite, run_random_suite
from .errors import ArgumentError, DataError, HurstkitError
from .generators import FgnSpec, gen_fgn, gen_iid
from .harness import estimate_file, estimate_series, read_series, write_fgn
from .results import METHODS, EstimateResult

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "DataError",
    "EstimateResult",
    "FgnSpec",
    "HurstkitError",
    "METHODS",
    "estimate_file",
    "estimate_series",
    "gen_fgn",
    "gen_iid",
    "read_series",
    "run_fgn_suite",
    "run_random_suite",
    "write_fgn",
]
