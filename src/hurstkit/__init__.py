"""hurstkit: thirteen Hurst-exponent estimators over an optimal-partition
core, with a reproducible fractional-Gaussian-noise generator and benchmark
suites."""

from .aggregation import (
    BlockSumContext,
    block_sum_std,
    ctm_lssd,
    est_lssd,
    est_lsv,
    fun_cm_lssd,
    fun_cm_lsv,
    fun_dm,
    obj_fun_lsv,
)
from .bench import BenchReport, relative_error, run_fgn_suite, run_random_suite
from .errors import (
    ArgumentError,
    DataError,
    HurstkitError,
    InsufficientDataError,
)
from .generators import (
    DISTRIBUTIONS,
    FgnSpec,
    fgn_autocorr,
    gen_fgn,
    gen_gauss,
    gen_iid,
)
from .harness import (
    estimate_file,
    estimate_series,
    read_fgn_header,
    read_series,
    write_fgn,
)
from .numerics import (
    euclid_dist,
    fixed_point_solve,
    format_power_law_data,
    linear_regr_solver,
    loc_min_solve,
)
from .partition import (
    cumulative_bias,
    gen_sbpf,
    sample_std,
    search_opt_seq_len,
    seq_partition,
)
from .results import METHODS, EstimateResult
from .spectral import LwObjectiveData, est_dwt, est_lw, est_pm, obj_fun_lw
from .timedomain import (
    est_central,
    est_dfa,
    est_ghe,
    est_higuchi,
    est_rs,
    est_tta,
    expected_rs,
)
from .transforms import dft, idft, periodogram, wavedec

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BenchReport",
    "BlockSumContext",
    "DISTRIBUTIONS",
    "DataError",
    "EstimateResult",
    "FgnSpec",
    "HurstkitError",
    "InsufficientDataError",
    "LwObjectiveData",
    "METHODS",
    "block_sum_std",
    "ctm_lssd",
    "cumulative_bias",
    "dft",
    "est_central",
    "est_dfa",
    "est_dwt",
    "est_ghe",
    "est_higuchi",
    "est_lssd",
    "est_lsv",
    "est_lw",
    "est_pm",
    "est_rs",
    "est_tta",
    "estimate_file",
    "estimate_series",
    "euclid_dist",
    "expected_rs",
    "fgn_autocorr",
    "fixed_point_solve",
    "format_power_law_data",
    "fun_cm_lssd",
    "fun_cm_lsv",
    "fun_dm",
    "gen_fgn",
    "gen_gauss",
    "gen_iid",
    "gen_sbpf",
    "idft",
    "linear_regr_solver",
    "loc_min_solve",
    "obj_fun_lsv",
    "obj_fun_lw",
    "periodogram",
    "read_fgn_header",
    "read_series",
    "relative_error",
    "run_fgn_suite",
    "run_random_suite",
    "sample_std",
    "search_opt_seq_len",
    "seq_partition",
    "write_fgn",
]
