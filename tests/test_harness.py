"""Tests for file I/O, the dispatcher, bench reports, and the CLI."""

import gzip
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurstkit
from hurstkit.bench import relative_error, run_fgn_suite, run_random_suite
from hurstkit.cli import main, parse_h_grid
from hurstkit.errors import (
    ArgumentError,
    DataError,
    DegenerateSequenceError,
    DomainError,
    InsufficientDataError,
    NoPartitionError,
    NonConvergenceError,
    SeriesParseError,
)
from hurstkit.generators import FgnSpec, gen_fgn, gen_iid
import hurstkit.harness
from hurstkit.harness import (
    DEFAULTS,
    estimate_file,
    estimate_series,
    read_series,
    write_fgn,
)
from hurstkit.numerics import fit_power_law, fixed_point_solve
from hurstkit.results import (
    METHODS, build_result, clip_hurst, fit_result, live_scales,
)
from hurstkit.timedomain import _grand_mean_factor


def rand_series(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).normal(0.0, 1.0, n)


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # a regex, not tomllib: that module is new in 3.11 and the package
    # supports 3.10
    text = pyproject.read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert hurstkit.__version__ == declared


# ---------------------------------------------------------------------------
# read_series / write_fgn


def test_read_series_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("1.0\n2.5\n# note\n\n3.0\n")
    assert read_series(path).tolist() == [1.0, 2.5, 3.0]


def test_read_series_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nabc\n3.0\n")
    with pytest.raises(SeriesParseError) as err:
        read_series(path)
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


def test_read_series_rejects_nonfinite_and_short(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("1.0\nnan\n")
    with pytest.raises(SeriesParseError):
        read_series(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(InsufficientDataError):
        read_series(empty)


def oracle_read_series(path):
    """read_series as it was before the loadtxt pass: one float() per line of
    the file read as UTF-8 text."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise SeriesParseError(
                    f"line {lineno}: could not parse {line!r} as a number",
                    line_number=lineno,
                ) from None
            if not math.isfinite(value):
                raise SeriesParseError(
                    f"line {lineno}: non-finite value {line!r}",
                    line_number=lineno,
                )
            values.append(value)
    if len(values) < 2:
        raise InsufficientDataError(
            f"{path}: found {len(values)} values, need at least 2"
        )
    return np.array(values)


def outcome(reader, path):
    """The array's dtype, shape and bytes, or the error's type, text and
    line number."""
    try:
        values = reader(path)
    except (SeriesParseError, InsufficientDataError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return values.dtype, values.shape, values.tobytes()


def fgn_text(n, seed):
    body = "".join(f"{v:.17g}\n" for v in gen_fgn(FgnSpec(0.7, n, seed)))
    return f"# fgn hurst=0.7 length={n} seed={seed}\n{body}"


READER_CASES = {
    "plain": fgn_text(500, 4),
    "indented comments": "  # note\n1.0\n\t# more\n2.5\n",
    "hash inside a comment": "# a # b\n1.0\n2.0\n# c#\n",
    "crlf": "# h\r\n1.5\r\n-2.25\r\n3e-3\r\n",
    "lone cr": "1.0\r2.0\r# c\r3.0",
    "no trailing newline": "1.0\n2.0",
    "comment last, no trailing newline": "1\n2\n# end",
    "blank lines": "\n  \n1.0\n\t\n2.0\n\n",
    "unicode blanks": "\xa01.0\x85\n\x0c2.0\x0b\n\u2003# c\n",
    "signs and forms": "+1\n-0\n.5\n5.\n1E3\n-1e-320\n",
    "mid-line hash": "1.0\n2.0 # note\n3.0\n",
    "mid-line hash, last line": "1.0\n2.0\n3.0#",
    "two columns on one row": "1.0\n2.0 3.0\n4.0\n",
    "two columns on every row": "1.0 2.0\n3.0 4.0\n5.0 6.0\n",
    "one row of two columns": "1.0 2.0\n",
    "ragged": "1.0 2.0\n3.0\n",
    "underscore literal": "1_0\n2.0\n3.0\n",
    "fullwidth digit": "\uff11\n2.0\n3.0\n",
    "nan": "1.0\nnan\n2.0\n",
    "inf": "1.0\n-inf\n2.0\n",
    "overflow": "1.0\n1e400\n2.0\n",
    "nan payload": "1.0\nnan(12)\n2.0\n",
    "nul byte": "1.0\x00\n2.0\n",
    "hex literal": "0x10\n2.0\n",
    "word": "1.0\nabc\n3.0\n",
    "utf-8 bom": "\ufeff1.0\n2.0\n",
    "utf-8 bom before a comment": "\ufeff# h\n1.0\n2.0\n",
    "empty": "",
    "header only": "# fgn hurst=0.5 length=0 seed=1\n",
    "one value": "# h\n1.0\n",
}


@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
def test_read_series_matches_the_oracle(text, tmp_path):
    path = tmp_path / "series.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_series, path) == outcome(oracle_read_series, path)


_LINE_KINDS = st.one_of(
    st.sampled_from(["", "  ", "\t", "# note", "  # a # b", "#", "nan", "-inf",
                     "1e400", "1_0", "\uff11", "abc", "1.0 2.0", "3 # c"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]),
              st.floats(-1e6, 1e6).map(str), st.sampled_from(["", " ", "\t"])),
)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(_LINE_KINDS, st.sampled_from(["\n", "\r\n", "\r"])),
                max_size=12),
       st.booleans())
def test_read_series_matches_the_oracle_on_any_mix(tmp_path_factory, lines,
                                                    trailing):
    text = "".join(line + end for line, end in lines)
    if not trailing and lines:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.getbasetemp() / "mix.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_series, path) == outcome(oracle_read_series, path)


def test_read_series_parses_plain_files_in_one_pass(tmp_path, monkeypatch):
    def no_scan(data, path):
        raise AssertionError("plain file sent to the per-line scan")

    monkeypatch.setattr(hurstkit.harness, "_scan_series", no_scan)
    for name in ("plain", "indented comments", "crlf", "lone cr",
                 "no trailing newline", "comment last, no trailing newline"):
        path = tmp_path / "series.txt"
        path.write_bytes(READER_CASES[name].encode("utf-8"))
        assert read_series(path).size >= 2


@pytest.mark.parametrize("raw, line", [
    (b"1.0\n2.0\n\xff\xfe3\n", 3),
    (b"# caf\xe9\n1.0\n2.0\n", 1),
    (b"1.0\r\n2.0\r\n\x80\r\n", 3),
    (b"1.0\r2.0\r\r3\xe2\x82", 4),
    (b"1.0\nabc\n\xff\n", 3),
    # A fixed mtime keeps the gzip header, and so the test id, the same on
    # every run.
    (gzip.compress(b"1.0\n2.0\n3.0\n", mtime=1792345487), 1),
])
def test_read_series_names_the_line_of_a_non_utf8_byte(tmp_path, raw, line):
    path = tmp_path / "series.txt.gz"
    path.write_bytes(raw)
    with pytest.raises(SeriesParseError) as err:
        read_series(path)
    assert err.value.line_number == line
    assert str(err.value).startswith(f"line {line}: byte 0x")
    assert "not valid UTF-8" in str(err.value)


def test_write_fgn_round_trip_and_header(tmp_path):
    path = tmp_path / "fgn.txt"
    spec = FgnSpec(0.7, 500, 11)
    write_fgn(path, spec)
    series = read_series(path)
    assert series.size == 500
    assert outcome(read_series, path) == outcome(oracle_read_series, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "# fgn hurst=0.69999999999999996 length=500 seed=11"

    np.testing.assert_allclose(series, gen_fgn(spec), rtol=0, atol=1e-15)
    body = "".join(f"{value:.17g}\n" for value in gen_fgn(spec))
    assert path.read_text(encoding="utf-8") == f"{header}\n{body}"

    again = tmp_path / "fgn2.txt"
    write_fgn(again, (0.7, 500, 11))
    assert path.read_bytes() == again.read_bytes()


BLOCK = hurstkit.harness._WRITE_BLOCK


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_write_fgn_blocks_match_one_shot_text(tmp_path, n):
    path = tmp_path / "fgn.txt"
    spec = FgnSpec(0.7, n, 5)
    write_fgn(path, spec)
    header = f"# fgn hurst=0.69999999999999996 length={n} seed=5\n"
    body = "".join(f"{value:.17g}\n" for value in gen_fgn(spec))
    assert path.read_text(encoding="utf-8") == header + body


def test_write_fgn_text_memory_does_not_grow_with_length(tmp_path, monkeypatch):
    # the one-shot text of 2**20 normal values peaked at 60.9 MiB; one block
    # of it takes 1.1 MiB
    n = 2**20
    series = rand_series(4, n)
    monkeypatch.setattr(hurstkit.harness, "gen_fgn", lambda spec: series)
    tracemalloc.start()
    try:
        write_fgn(tmp_path / "fgn.txt", FgnSpec(0.7, n, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# ---------------------------------------------------------------------------
# dispatcher


def test_estimate_series_runs_every_method():
    x = rand_series(3, 10000)
    for method in METHODS:
        res = estimate_series(x, method)
        assert res.method == method
        assert np.isfinite(res.hurst)


def test_estimate_series_rejects_unknowns():
    with pytest.raises(ArgumentError):
        estimate_series(rand_series(0, 500), "xyz")
    with pytest.raises(ArgumentError):
        estimate_series(rand_series(0, 500), "ghe", bogus=1)


NAN, INF = float("nan"), float("inf")

# option -> values that are not one of its values: a wrong type, a bool where
# a number is wanted, NaN, +-inf and values out of range
BAD_OPTIONS = {
    "window": ["50", True, NAN, INF, -INF, 1, 0, 10.7, 10.0],
    "norm": ["2", True, NAN, INF, -INF, 0, 3, 1.5],
    "q_order": ["2", True, 2j, NAN, INF, -INF, 0.0, -1.0],
    "cutoff": ["0.1", True, NAN, INF, -INF, 0.0, -0.1, 0.6],
    "weight_p": ["2", True, NAN, INF, -INF, -1.0],
    "penalty_q": ["50", True, NAN, INF, -INF, 0.0, -50.0],
    "epsilon": ["1e-4", True, NAN, INF, -INF, 0.0, -1e-4],
    "corrected": ["no", "yes", 1, 0.0, NAN],
}


@pytest.mark.parametrize("option, value", [
    (option, value) for option, values in BAD_OPTIONS.items() for value in values
])
def test_estimate_series_checks_options_before_estimating(option, value,
                                                          monkeypatch):
    def estimator_ran(*args, **kwargs):
        raise AssertionError("an estimator ran on an invalid option")

    for name in dir(hurstkit.harness):
        if name.startswith("est_"):
            monkeypatch.setattr(hurstkit.harness, name, estimator_ran)
    for method in METHODS:
        with pytest.raises(ArgumentError, match=rf"^{option} must be"):
            estimate_series(rand_series(0, 500), method, **{option: value})


def test_invalid_norm_fails_before_any_detrending(monkeypatch):
    def detrended(*args):
        raise AssertionError("dfa detrended on norm=3")

    monkeypatch.setattr(hurstkit.timedomain, "_detrended_stds", detrended)
    with pytest.raises(ArgumentError, match="^norm must be"):
        estimate_series(rand_series(0, 30000), "dfa", norm=3)


@pytest.mark.parametrize("option, value", [
    ("window", 2), ("window", np.int64(30)), ("norm", 1), ("norm", 2.0),
    ("q_order", 3), ("cutoff", 0.5), ("weight_p", 0.0), ("penalty_q", 1e-3),
    ("epsilon", np.float64(1e-6)), ("corrected", np.True_),
])
def test_estimate_series_takes_valid_options(option, value):
    res = estimate_series(rand_series(1, 3000), "rs", **{option: value})
    assert math.isfinite(res.hurst)


@pytest.mark.parametrize("method, option, value, plain", [
    ("dfa", "window", np.int64(30), 30),
    ("pm", "cutoff", np.float64(0.2), 0.2),
    ("rs", "corrected", np.bool_(True), True),
])
def test_numpy_option_is_stored_as_python_value(method, option, value, plain):
    res = estimate_series(rand_series(1, 3000), method, **{option: value})
    stored = res.config[option]
    assert type(stored) is type(plain) and stored == plain
    parsed = json.loads(json.dumps(res.to_dict()))
    assert parsed["config"][option] == plain


@pytest.mark.parametrize("method, arrays", [
    ("pm", 4), ("lw", 4), ("rs", 2.5), ("am", 3.5), ("av", 3.5), ("ghe", 3.5),
    ("hm", 3.5), ("lssd", 5), ("lsv", 5), ("awc", 4.25), ("vvl", 3),
])
def test_estimate_series_peak_memory(method, arrays):
    # pm and lw take a real-input FFT, which holds no complex copy of the
    # series (the complex one peaked at 5 arrays of its length); rs builds
    # each scale's profile over its demeaned rows (two buffers peaked at
    # 3.1); am, av and ghe hold the demeaned series and the profile, whose
    # ramp is subtracted in place (out of place ghe peaked at 4.06); hm
    # forms each lag's absolute differences in one reused buffer (a
    # difference and its absolute value per lag peaked at 4.0); lssd and lsv
    # peak at 4.52 while their block-sum profile takes its running totals
    # next to the demeaned and the standardized series; awc and vvl peaked
    # at 5.0 while np.correlate took every full-rate output and the finest
    # detail kept a view of it, and now take each stride-2 output once
    # (4.0 through the banded product, 2.75 by Haar's two-tap form)
    n = 2**17
    x = gen_fgn(FgnSpec(0.7, n, 1))
    estimate_series(x, method)  # the FFT plans, once
    tracemalloc.start()
    try:
        estimate_series(x, method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * n


@pytest.mark.parametrize("suite", [run_fgn_suite, run_random_suite])
def test_suite_checks_config_before_drawing_a_path(suite, monkeypatch):
    def drew(*args):
        raise AssertionError("a path was drawn under an invalid config")

    for name in ("_draw_fgn", "_embedding_amplitudes", "gen_iid"):
        monkeypatch.setattr(hurstkit.bench, name, drew)
    with pytest.raises(ArgumentError, match="^cutoff must be"):
        suite(replicates=1, length=1000, config={"cutoff": 0.0})


def test_estimate_series_prefixes_method_on_errors():
    # a constant series has a statistic of 0 at every scale, which every
    # method that fits over scales reports by the one rule of live_scales
    for method in ("am", "av", "ghe", "hm", "tta", "pm", "awc", "vvl"):
        with pytest.raises(
            DegenerateSequenceError,
            match=rf"^{method}: the scale statistic is 0 at (\d+) of \1 "
                  r"scales; a slope needs 2 above 0$",
        ):
            estimate_series(np.full(3000, 1.0), method)


def test_live_scales_drops_zero_statistics():
    scales, stats, dropped = live_scales([1, 2, 3, 4], [0.5, 0.0, 2.0, 0.0])
    assert scales.dtype == stats.dtype == np.float64
    assert scales.tolist() == [1.0, 3.0] and stats.tolist() == [0.5, 2.0]
    assert dropped == 2
    scales, stats, dropped = live_scales([1, 2], [3.0, 4.0])
    assert scales.tolist() == [1.0, 2.0] and stats.tolist() == [3.0, 4.0]
    assert dropped == 0
    with pytest.raises(
        DegenerateSequenceError,
        match=r"^the scale statistic is 0 at 2 of 3 scales; a slope needs 2",
    ):
        live_scales([1, 2, 3], [0.0, 1.0, 0.0])


def _never_called(scales, hurst):
    raise AssertionError("the model was called")


def test_fit_result_reports_a_plain_fit_outside_the_unit_interval():
    # stats = m^0.5 with H = 1 + slope: a plain H of 1.5 has no model to
    # correct towards, and the model is never called
    scales = [2, 4, 8, 16]
    stats = np.array(scales, dtype=float) ** 0.5
    plain = fit_result("am", scales, stats, 2, {}, offset=1.0)
    res = fit_result("am", scales, stats, 2, {}, offset=1.0,
                     model=_never_called)
    assert res.hurst == plain.hurst == res.diagnostics["uncorrected_hurst"]
    assert (res.diagnostics["residual_norm"]
            == plain.diagnostics["residual_norm"])
    assert res.diagnostics["out_of_range"] is True
    # without a model no key is added
    assert "uncorrected_hurst" not in plain.diagnostics


@pytest.mark.parametrize("flag", [1, 2])
def test_fit_result_solves_the_model_corrected_fit(flag):
    # stats of slope -0.3 (a plain H of 0.85) against a model of m^{0.4 H}:
    # H = 1 + (-0.3 - 0.4 H) / 2 solves to 0.85 / 1.2, up to the noise
    rng = np.random.default_rng(3)
    scales = np.arange(10.0, 200.0, 10.0)
    stats = scales ** -0.3 * np.exp(0.01 * rng.standard_normal(scales.size))

    def model(m, h):
        return m ** (0.4 * h)

    res = fit_result("av", scales, stats, flag, {}, offset=1.0, divisor=2,
                     model=model)
    fit, resid = fit_power_law(scales, stats / model(scales, res.hurst), flag)
    assert res.hurst == pytest.approx(1.0 + fit.slope / 2, abs=1e-11)
    assert res.hurst == pytest.approx(0.85 / 1.2, abs=0.01)
    assert res.diagnostics["residual_norm"] == pytest.approx(resid, rel=1e-9)
    plain = fit_power_law(scales, stats, flag)[0]
    assert res.diagnostics["uncorrected_hurst"] == 1.0 + plain.slope / 2


@pytest.mark.parametrize("flag", [1, 2])
@pytest.mark.parametrize("hurst", [0.7, 0.9])
def test_fit_result_accelerated_hurst_is_a_fixed_point(monkeypatch, flag,
                                                      hurst):
    # the variances of k = n/m block means of fGn about their grand mean,
    # with noise: av's statistics under av's model, on which the plain
    # iteration converges slowest at high H
    n = 30000
    scales = np.array([10.0, 20.0, 40.0, 60.0, 100.0, 150.0, 200.0, 300.0,
                       500.0, 600.0, 1000.0])
    rng = np.random.default_rng(7)
    stats = (scales ** (2 * hurst - 2)
             * _grand_mean_factor(scales, n, hurst, 2)
             * np.exp(0.05 * rng.standard_normal(scales.size)))

    def model(m, h):
        return _grand_mean_factor(m, n, h, 2)

    def step(h):
        fit, _ = fit_power_law(scales, stats / model(scales, h), flag)
        return clip_hurst(1.0 + fit.slope / 2)

    calls = []

    def counted(*args):
        calls.append(1)
        return fit_power_law(*args)

    monkeypatch.setattr(hurstkit.results, "fit_power_law", counted)
    res = fit_result("av", scales, stats, flag, {}, offset=1.0, divisor=2,
                     model=model)
    # H = offset + slope(stats / model(H)) / divisor to the 1e-12 stop
    assert abs(step(res.hurst) - res.hurst) < 1e-12
    plain_steps = []

    def plain_step(h):
        plain_steps.append(h)
        return step(h)

    plain = fixed_point_solve(
        plain_step, clip_hurst(res.diagnostics["uncorrected_hurst"]), 1e-12)
    assert res.hurst == pytest.approx(plain, abs=1e-12)
    # fits: the plain one, the refits and the last residual's
    assert len(calls) < len(plain_steps) + 2


@pytest.mark.parametrize("factor, kind", [(0.0, "non-finite"),
                                          (math.inf, "non-positive")])
def test_fit_result_names_the_entry_a_model_spoils(factor, kind):
    # the corrected statistics fail the refit's min/max test, and the
    # fitter it falls back on names the entry, without a numpy warning
    scales = np.array([10.0, 20.0, 40.0, 80.0])
    stats = scales ** -0.3

    def model(m, h):
        return np.where(m == 40.0, factor, 1.0)

    with pytest.raises(DomainError, match=rf"^{kind} y entry at index 3: "):
        fit_result("am", scales, stats, 2, {}, offset=1.0, model=model)


def test_non_finite_estimate_is_data_error():
    # the LSSD update on a 0/1 step is NaN: the solver names it, not the tail
    step = np.r_[np.zeros(5000), np.ones(5000)]
    with pytest.raises(NonConvergenceError, match="^lssd: iteration left the reals"):
        estimate_series(step, "lssd")
    # a finite estimate outside (0, 1) is only flagged: every other bin of
    # the step's periodogram is exactly 0 and drops out, and the odd bins
    # are 1/sin^2(pi j/N) exactly, the line of slope -1 on the GPH grid
    res = estimate_series(step, "pm")
    assert res.hurst == pytest.approx(1.5, abs=1e-12)
    assert res.diagnostics["out_of_range"] is True
    assert res.diagnostics["excluded_segments"] == 500
    # its profile is linear in every segment: dfa has nothing to fit
    with pytest.raises(DegenerateSequenceError,
                       match="^dfa: every segment of size 50 detrends exactly"):
        estimate_series(step, "dfa")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_build_result_rejects_non_finite_hurst(value):
    with pytest.raises(DataError, match="the estimate is not finite"):
        build_result("dfa", value, {}, residual_norm=None, n_points=0)


def test_too_few_window_sizes_is_one_partition_error(tmp_path, capsys):
    # at w = 50 the partition search leaves length 2503 one window size
    spec = FgnSpec(0.7, 2503, 42)
    x = gen_fgn(spec)
    for method in ("am", "av", "dfa", "rs"):
        with pytest.raises(NoPartitionError) as err:
            estimate_series(x, method)
        message = str(err.value)
        assert message.startswith(f"{method}: ") and "partition" in message

    path = tmp_path / "n2503.txt"
    write_fgn(path, spec)
    assert main(["estimate", "--input", str(path), "--method", "dfa"]) == 2
    assert "dfa: partition" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["am", "av", "dfa", "rs"])
def test_partition_search_errors_name_the_stage(method):
    # below w^2 samples, and a prime length whose search window holds only
    # itself
    with pytest.raises(InsufficientDataError, match=rf"^{method}: partition"):
        estimate_series(rand_series(0, 500), method)
    with pytest.raises(NoPartitionError, match=rf"^{method}: partition"):
        estimate_series(rand_series(0, 97), method, window=5)


# each method's floor in partition.demeaned; am/av/dfa/rs need w^2 instead
PREPARE_FLOORS = {
    "ghe": 21, "hm": 65, "tta": 41, "awc": 64, "vvl": 64,
    "pm": 100, "lw": 100, "lssd": 100, "lsv": 100,
}


@pytest.mark.parametrize("method", PREPARE_FLOORS)
def test_prepare_step_floor(method):
    floor = PREPARE_FLOORS[method]
    with pytest.raises(
        InsufficientDataError,
        match=f"^{method}: need at least {floor} samples, got {floor - 1}$",
    ):
        estimate_series(gen_iid("normal", floor - 1, 3), method)
    assert np.isfinite(estimate_series(gen_iid("normal", floor, 3), method).hurst)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [gen_fgn(FgnSpec(0.7, 30000, 42)),
                               gen_iid("normal", 10000, 7)],
                         ids=["fgn", "iid-normal"])
def test_power_of_two_scaling_is_bitwise(x):
    # demeaned scales the deviations by a power of two into [0.5, 1), so an
    # exact scaling of the input changes no bit of any result while no
    # deviation turns subnormal
    for method in METHODS:
        want = estimate_series(x, method).to_dict()
        for k in (-600, -40, 40, 600):
            got = estimate_series(np.ldexp(x, k), method).to_dict()
            assert got == want, (method, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 2.0**1000, 2.0**-1000],
                         ids=["x1e200", "x2^1000", "x2^-1000"])
def test_extreme_magnitudes_estimate_without_warnings(scale):
    # squares of the raw deviations would overflow or underflow here
    x = scale * gen_fgn(FgnSpec(0.7, 30000, 42))
    for method in METHODS:
        assert math.isfinite(estimate_series(x, method).hurst), method


def test_lssd_overflow_is_nonconvergence(tmp_path, capsys):
    # the LSSD iteration runs off to H ~ -2.3e8, where H^penalty_q overflows
    x = (np.arange(10000) % 7).astype(float)
    with pytest.raises(NonConvergenceError) as err:
        estimate_series(x, "lssd")
    assert str(err.value).startswith("lssd: iteration overflowed")
    assert err.value.last < -1e8 and np.isfinite(err.value.previous)

    path = tmp_path / "mod7.txt"
    path.write_text("".join(f"{v}\n" for v in x))
    assert main(["estimate", "--input", str(path), "--method", "lssd"]) == 2
    assert "lssd: iteration overflowed" in capsys.readouterr().err


def test_estimate_file_fgn_round_trip(tmp_path):
    path = tmp_path / "h07.txt"
    write_fgn(path, FgnSpec(0.7, 30000, 1))
    res = estimate_file(path, "dfa")
    assert abs(res.hurst - 0.7) < 0.04


def test_estimate_series_override_defaults():
    x = rand_series(9, 10000)
    res = estimate_series(x, "rs", corrected=True, window=40)
    assert res.config["corrected"] is True
    assert res.config["window"] == 40
    res = estimate_series(x, "lssd")
    assert res.config["weight_p"] == 2.0
    res = estimate_series(x, "lsv")
    assert res.config["weight_p"] == 6.0


def test_json_round_trip_is_idempotent():
    res = estimate_series(rand_series(5, 10000), "pm")
    once = json.dumps(res.to_dict())
    parsed = json.loads(once)
    assert list(parsed) == ["method", "hurst", "config", "diagnostics"]
    assert json.loads(json.dumps(parsed)) == parsed


# ---------------------------------------------------------------------------
# bench suites


def test_relative_error_examples():
    assert relative_error(0.55, 0.5) == pytest.approx(10.0, abs=1e-12)
    assert relative_error(0.5, 0.5) == 0.0
    assert relative_error(0.2629, 0.30) == pytest.approx(12.3667, abs=1e-4)


def test_random_suite_shape_and_determinism():
    a = run_random_suite(replicates=1, length=3000, seed=7)
    b = run_random_suite(replicates=1, length=3000, seed=7)
    assert a.to_matrix_tsv() == b.to_matrix_tsv()
    assert a.to_long_tsv() == b.to_long_tsv()
    assert len(a.rows) == 6 * 13
    assert all(row.error is None for row in a.rows)


def test_random_suite_marks_short_input_cells():
    report = run_random_suite(replicates=1, length=10, seed=1)
    assert len(report.rows) == 6 * 13
    assert all(row.error == "InsufficientDataError" for row in report.rows)
    matrix = report.to_matrix_tsv()
    assert "\tNA" in matrix
    long_form = report.to_long_tsv()
    assert "InsufficientDataError" in long_form


def test_fgn_suite_rows_and_errors():
    report = run_fgn_suite(h_values=(0.6,), replicates=2, length=4000, seed=3)
    assert len(report.rows) == 13
    assert report.replicates == 2
    row = report.cell("0.6", "ghe")
    assert abs(row.mean - 0.6) < 0.08
    assert row.rel_error == relative_error(row.mean, 0.6)
    with pytest.raises(KeyError):
        report.cell("0.7", "ghe")
    with pytest.raises(ArgumentError):
        run_fgn_suite(h_values=(1.5,), replicates=1, length=4000, seed=1)
    with pytest.raises(ArgumentError):
        run_fgn_suite(h_values=(0.5,), replicates=0, length=4000, seed=1)


@pytest.mark.parametrize("suite", [run_fgn_suite, run_random_suite])
@pytest.mark.parametrize("runs, name", [
    ({"replicates": 2.5}, "replicates"),
    ({"replicates": "3"}, "replicates"),
    ({"replicates": True}, "replicates"),
    ({"replicates": 0}, "replicates"),
    ({"seed": "1"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"length": 1.5}, "length"),
])
def test_suite_checks_runs_before_drawing_a_path(suite, runs, name,
                                                 monkeypatch):
    def drew(*args):
        raise AssertionError("a path was drawn under invalid arguments")

    for attr in ("_draw_fgn", "_embedding_amplitudes", "gen_iid"):
        monkeypatch.setattr(hurstkit.bench, attr, drew)
    with pytest.raises(ArgumentError, match=f"^{name} must be"):
        suite(**{"replicates": 1, "length": 1000, **runs})


@pytest.mark.parametrize("h_values, match", [
    (0.5, "^h_values must be a sequence"),
    (["0.5"], "^hurst must be a real number, got '0.5'"),
    ((0.5, 1.5), "^hurst must be a finite number in \\(0, 1\\), got 1.5"),
    ((0.5, float("nan")), "^hurst must be a finite number"),
    ((0.5,), "^length must be >= 2"),
])
def test_fgn_suite_checks_each_target_as_fgn_spec(h_values, match,
                                                  monkeypatch):
    monkeypatch.setattr(hurstkit.bench, "_embedding_amplitudes", None)
    length = 1 if match.startswith("^length") else 1000
    with pytest.raises(ArgumentError, match=match):
        run_fgn_suite(h_values=h_values, replicates=1, length=length)


# ---------------------------------------------------------------------------
# CLI


def test_parse_h_grid():
    assert list(parse_h_grid("0.3:0.8:0.05")) == pytest.approx(
        [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8]
    )
    assert list(parse_h_grid("0.3:0.7:0.2")) == pytest.approx([0.3, 0.5, 0.7])
    assert list(parse_h_grid("0.55")) == [0.55]
    with pytest.raises(ArgumentError):
        parse_h_grid("0.5:0.3:0.1")
    with pytest.raises(ArgumentError):
        parse_h_grid("a:b:c")
    with pytest.raises(ArgumentError, match="^bad grid"):
        parse_h_grid("0.3:0.8")


def test_cli_estimate_json(tmp_path, capsys):
    path = tmp_path / "x.txt"
    write_fgn(path, FgnSpec(0.5, 5000, 2))
    code = main(["estimate", "--input", str(path), "--method", "ghe"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["method", "hurst", "config", "diagnostics"]
    assert out["method"] == "ghe"
    assert 0.3 < out["hurst"] < 0.7


def test_cli_estimate_tsv(tmp_path, capsys):
    path = tmp_path / "x.txt"
    write_fgn(path, FgnSpec(0.5, 5000, 2))
    code = main(["estimate", "--input", str(path), "--method", "rs",
                 "--rs-corrected", "--format", "tsv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("method\trs\n")
    assert "config.corrected\tTrue" in out


def test_cli_exit_codes(tmp_path, capsys):
    series = tmp_path / "ok.txt"
    write_fgn(series, FgnSpec(0.5, 500, 1))

    # argument problems -> 1
    assert main(["estimate", "--input", str(series), "--method", "xyz"]) == 1
    assert main(["estimate", "--input", str(tmp_path / "nope"),
                 "--method", "ghe"]) == 1
    assert main(["estimate", "--input", str(series), "--method", "pm",
                 "--cutoff", "0.9"]) == 1
    # every method refuses an invalid option, whether it reads it or not
    assert main(["estimate", "--input", str(series), "--method", "dfa",
                 "--epsilon", "nan"]) == 1
    assert main(["bench", "random", "--cutoff", "0",
                 "--out", str(tmp_path / "bench")]) == 1
    assert not (tmp_path / "bench").exists()
    assert main(["bogus-command"]) == 1
    assert main(["bench", "fgn", "--h-grid", "junk",
                 "--out", str(tmp_path)]) == 1
    assert main(["bench", "random", "--h-grid", "0.5",
                 "--out", str(tmp_path)]) == 1
    for grid in ("nan:1:0.1", "0.1:inf:0.1", "0.1:0.5:nan"):
        capsys.readouterr()
        assert main(["bench", "fgn", "--h-grid", grid,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: bad grid")
    # a step too small to tell two targets apart fails at the second one,
    # and building every target of it first would exhaust memory: run it
    # in a child with an address-space limit and a timeout
    limit = ("import resource; resource.setrlimit(resource.RLIMIT_AS, "
             "(2**30, 2**30)); ")
    call = ("from hurstkit.cli import main; raise SystemExit(main(['bench', "
            f"'fgn', '--h-grid', '0.1:0.5:1e-300', '--out', {str(tmp_path)!r}]))")
    src = str(Path(hurstkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", limit + call],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert run.stderr.startswith("error: target H values 0.1 and 0.1 share")

    # data problems -> 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\noops\n")
    assert main(["estimate", "--input", str(bad), "--method", "ghe"]) == 2
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1.0\n2.0\n\xff\xfe3\n")
    capsys.readouterr()
    assert main(["estimate", "--input", str(latin1), "--method", "ghe"]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: byte 0xff is not valid UTF-8\n")
    const = tmp_path / "const.txt"
    const.write_text("5.0\n" * 500)
    assert main(["estimate", "--input", str(const), "--method", "ghe"]) == 2
    short = tmp_path / "short.txt"
    short.write_text("1.0\n2.0\n3.0\n")
    assert main(["estimate", "--input", str(short), "--method", "lw"]) == 2

    # --help -> 0
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cli_gen_fgn_matches_library(tmp_path):
    out = tmp_path / "gen.txt"
    assert main(["gen-fgn", "--hurst", "0.6", "--length", "400",
                 "--seed", "9", "--output", str(out)]) == 0
    lib = tmp_path / "lib.txt"
    write_fgn(lib, FgnSpec(0.6, 400, 9))
    assert out.read_bytes() == lib.read_bytes()
    assert main(["gen-fgn", "--hurst", "1.6", "--length", "400",
                 "--seed", "9", "--output", str(out)]) == 1


def test_cli_bench_writes_reproducible_tsvs(tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    base = ["bench", "random", "--replicates", "1", "--length", "3000",
            "--seed", "5"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("random_matrix.tsv", "random_long.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "random_matrix.tsv").read_text().splitlines()
    assert header[2].split("\t") == ["label"] + list(METHODS)


def test_cli_bench_fgn_small_grid(tmp_path, capsys):
    out = tmp_path / "fgnrun"
    code = main(["bench", "fgn", "--replicates", "1", "--length", "4000",
                 "--seed", "3", "--h-grid", "0.5", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    long_form = (out / "fgn_long.tsv").read_text().splitlines()
    assert long_form[2].startswith("label\tmethod")
    assert len(long_form) == 3 + 13


@pytest.mark.parametrize("suite", ["random", "fgn"])
def test_cli_bench_leaves_run_defaults_to_the_suite(suite, tmp_path, capsys,
                                                    monkeypatch):
    calls = []
    report = run_random_suite(replicates=1, length=200, seed=1)

    def record(**kwargs):
        calls.append(kwargs)
        return report

    monkeypatch.setattr(hurstkit.cli, f"run_{suite}_suite", record)
    assert main(["bench", suite, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == [{"config": {}}]
    assert (tmp_path / "random_long.tsv").read_text() == report.to_long_tsv()


def test_cli_help_reads_library_defaults(capsys, monkeypatch):
    monkeypatch.setitem(DEFAULTS, "window", 37)
    assert main(["estimate", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "partition window w (default 37)" in help_text
