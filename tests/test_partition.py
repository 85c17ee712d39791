"""Tests for sequence partitioning and the shared array helpers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurstkit import estimate_series
from hurstkit.errors import (
    ArgumentError,
    InsufficientDataError,
    NoPartitionError,
)
from hurstkit.partition import (
    as_series,
    cumulative_bias,
    demeaned,
    gen_sbpf,
    sample_std,
    search_opt_seq_len,
    seq_partition,
)


def bounded_factors(a, w):
    """Brute-force oracle: divisors d of a with w <= d <= a // w."""
    return [d for d in range(1, a + 1) if a % d == 0 and w <= d <= a // w]


def brute_force_search(n, w, alpha):
    lo = math.ceil(alpha * n)
    best_count, best_a = 0, None
    for a in range(lo, n + 1):
        c = len(bounded_factors(a, w))
        if c >= best_count and c > 0:
            best_count, best_a = c, a
    return best_a


def trial_division_search(n, w, alpha):
    """The search as it ran before the sieve: trial-divide each candidate.

    Returns the winning length, or None when every candidate is factor-free.
    """
    lo = int(np.ceil(alpha * n))
    best_len, best_count = lo, -1
    for a in range(lo, n + 1):
        cand = np.arange(w, a // w + 1)
        c = int(np.count_nonzero(a % cand == 0))
        if c >= best_count:  # >= : later (larger) candidates win ties
            best_len, best_count = a, c
    return best_len if best_count > 0 else None


# ---------------------------------------------------------------- as_series


def test_as_series_returns_float64_copy():
    out = as_series([1, 2, 3])
    assert out.dtype == np.float64
    assert out.tolist() == [1.0, 2.0, 3.0]


def test_demeaned_checks_floor_then_subtracts_mean():
    with pytest.raises(InsufficientDataError, match="^need at least 4 samples, got 3$"):
        demeaned([1.0, 2.0, 6.0], 4)
    # deviations -2, -1, 3 scaled by 2^-2, which brings max|x| into [0.5, 1)
    assert demeaned([1.0, 2.0, 6.0]).tolist() == [-0.5, -0.25, 0.75]
    with pytest.raises(ArgumentError):
        demeaned([1.0, math.nan, 2.0], 2)


def test_as_series_rejects_short_and_multidim():
    with pytest.raises(InsufficientDataError):
        as_series([1.0])
    with pytest.raises(ArgumentError):
        as_series([[1.0, 2.0], [3.0, 4.0]])


def test_as_series_names_nonfinite_index():
    with pytest.raises(ArgumentError, match="2"):
        as_series([1.0, 2.0, np.nan, 4.0])


@pytest.mark.parametrize("value", ["abc", ["1", "2", "x"], [1 + 2j, 3.0],
                                   np.array([1 + 1j, 2.0]), object()],
                         ids=["str", "str-list", "complex-list",
                              "complex-array", "object"])
def test_as_series_names_non_numeric_input(value):
    with pytest.raises(ArgumentError,
                       match="^expected a series of real numbers, got "):
        as_series(value)
    with pytest.raises(ArgumentError, match="^pm: expected a series of real"):
        estimate_series(value, "pm")


# --------------------------------------------------------------- debiasing


def test_cumulative_bias_small_case():
    # cumsum [1,3,6], ramp (6/3)*[1,2,3] = [2,4,6]
    assert cumulative_bias([1.0, 2.0, 3.0]).tolist() == [-1.0, -1.0, 0.0]


def test_cumulative_bias_ends_at_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(rng.integers(2, 500))
        b = cumulative_bias(x)
        assert abs(b[-1]) < 1e-9 * max(1.0, np.abs(x).sum())


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=60),
    st.integers(min_value=-100, max_value=100),
)
def test_cumulative_bias_shift_exact_for_balanced_integers(vals, shift):
    # pad so the total is divisible by the length: then every intermediate
    # quantity is an exact small integer and the shift cancels bit-for-bit
    x = np.array(vals, dtype=float)
    x[0] -= x.sum() % len(x)
    assert x.sum() % len(x) == 0
    lhs = cumulative_bias(x)
    rhs = cumulative_bias(x + float(shift))
    assert np.array_equal(lhs, rhs)


# ------------------------------------------------------------- sample_std


def test_sample_std_frozen_value():
    # var of 1..4 about mean 2.5 is (2.25+0.25+0.25+2.25)/3 = 5/3
    assert sample_std([1.0, 2.0, 3.0, 4.0]) == pytest.approx(
        math.sqrt(5.0 / 3.0), abs=1e-15
    )


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50))
def test_sample_std_nonnegative_and_shift_stable(vals):
    x = np.array(vals)
    s = sample_std(x)
    assert s >= 0.0
    assert sample_std(x + 10.0) == pytest.approx(s, abs=1e-9)


# ----------------------------------------------------------------- gen_sbpf


def test_gen_sbpf_worked_examples():
    assert gen_sbpf(48, 4) == [4, 6, 8, 12]
    assert gen_sbpf(48, 5) == [6, 8]
    assert gen_sbpf(49, 2) == [7]


@given(st.integers(min_value=4, max_value=5000), st.data())
def test_gen_sbpf_matches_divisor_filter(a, data):
    w = data.draw(st.integers(min_value=2, max_value=math.isqrt(a)))
    got = gen_sbpf(a, w)
    assert got == bounded_factors(a, w)
    assert got == sorted(got)


# ------------------------------------------------------- search_opt_seq_len


def test_search_worked_example():
    n_opt, factors = search_opt_seq_len(997, 20, 0.99)
    assert n_opt == 990
    assert factors == [22, 30, 33, 45]


def test_search_prefers_largest_on_ties():
    # window [21, 22]: both have exactly two bounded factors; 22 must win
    n_opt, factors = search_opt_seq_len(22, 2, 0.95)
    assert (n_opt, factors) == (22, [2, 11])


def test_search_can_settle_below_n():
    # 96 has ten bounded factors, far more than 97..100
    n_opt, _ = search_opt_seq_len(100, 2, 0.95)
    assert n_opt == 96


def test_search_validation():
    # w >= 2 is the window option's rule, checked by estimate_series
    with pytest.raises(ArgumentError):
        search_opt_seq_len(997, 20, 0.90)
    with pytest.raises(ArgumentError):
        search_opt_seq_len(997, 20, 1.01)
    with pytest.raises(InsufficientDataError):
        search_opt_seq_len(399, 20, 0.99)  # shorter than w*w


def test_search_no_partition_in_window():
    # primes 53699 is not needed; a tight window around a prime suffices:
    # n = 13, w = 3, alpha = 1.0 -> window is {13}, 13 has no factors in [3, 4]
    with pytest.raises(NoPartitionError):
        search_opt_seq_len(13, 3, 1.0)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=30, max_value=4000),
    st.integers(min_value=2, max_value=5),
    st.sampled_from([0.95, 0.97, 0.99, 1.0]),
)
def test_search_matches_brute_force(n, w, alpha):
    expected = brute_force_search(n, w, alpha)
    if expected is None:
        with pytest.raises(NoPartitionError):
            search_opt_seq_len(n, w, alpha)
    else:
        n_opt, factors = search_opt_seq_len(n, w, alpha)
        assert n_opt == expected
        assert factors == bounded_factors(n_opt, w)


lengths_and_windows = st.integers(min_value=4, max_value=20000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, math.isqrt(n)))
)


@settings(deadline=None, max_examples=80)
@given(lengths_and_windows, st.sampled_from([0.95, 0.99, 1.0]))
@example((19997, 2), 1.0)  # a prime alone in its window: no partition
@example((20000, 141), 0.99)
def test_search_matches_trial_division(n_w, alpha):
    n, w = n_w
    expected = trial_division_search(n, w, alpha)
    if expected is None:
        with pytest.raises(NoPartitionError):
            search_opt_seq_len(n, w, alpha)
    else:
        n_opt, factors = search_opt_seq_len(n, w, alpha)
        assert n_opt == expected
        assert factors == gen_sbpf(n_opt, w)


# ------------------------------------------------------------ seq_partition


def test_seq_partition_reshapes_prefix():
    x = np.arange(10.0)
    seg = seq_partition(x, 3, 3)
    assert seg.shape == (3, 3)
    assert seg.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_seq_partition_rejects_overrun():
    with pytest.raises(ArgumentError):
        seq_partition(np.arange(10.0), 4, 3)

