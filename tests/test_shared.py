"""Work the suites share must not change a single estimate.

A partition.PreparedSeries lets the thirteen methods read one validated,
demeaned series and the intermediates built from it; the fGn suite draws
every replicate of an H from one embedding, and both suites run their paths
on a process pool.  Each is checked here against the computation it
replaces: fresh estimate_series calls on the array, the method-outer suite
loop with one gen_fgn call per replicate, run serially and on the pool, and
the solver objectives as they were written before their H-invariant terms
moved into the context objects.
"""

import multiprocessing
import os

import numpy as np
import pytest

from hurstkit import _cpus, harness
from hurstkit.aggregation import (
    BlockSumContext,
    ctm_lssd,
    fun_cm_lssd,
    fun_cm_lsv,
    fun_dm,
    obj_fun_lsv,
)
from hurstkit.bench import (
    WHITE_NOISE_H,
    BenchCell,
    BenchReport,
    relative_error,
    run_fgn_suite,
    run_random_suite,
)
from hurstkit.cli import main
from hurstkit.errors import ArgumentError, EmbeddingError, HurstkitError
from hurstkit.generators import DISTRIBUTIONS, FgnSpec, gen_fgn, gen_iid
from hurstkit.harness import estimate_series
from hurstkit.partition import PreparedSeries
from hurstkit.results import METHODS
from hurstkit.spectral import LwObjectiveData, obj_fun_lw


def _with_nan(x):
    x = x.copy()
    x[17] = np.nan
    return x


INPUTS = {
    "fgn": gen_fgn(FgnSpec(0.7, 3000, 5)),
    "iid": gen_iid("exponential", 3000, 5),
    "constant": np.full(3000, 2.5),
    "short": gen_iid("normal", 80, 5),  # below the floors of pm, lw, lssd, lsv
    "nan": _with_nan(gen_iid("normal", 3000, 5)),
}
CONFIGS = ({}, {"norm": 1}, {"window": 20}, {"cutoff": 0.2}, {"weight_p": 3})


def _outcome(x, method, config):
    try:
        return estimate_series(x, method, **config).to_dict()
    except HurstkitError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("config", CONFIGS, ids=str)
@pytest.mark.parametrize("name", INPUTS)
def test_prepared_series_gives_the_fresh_results(name, config):
    x = INPUTS[name]
    fresh = {method: _outcome(x, method, config) for method in METHODS}
    for order in (METHODS, METHODS[::-1]):
        prepared = PreparedSeries(x)
        shared = {method: _outcome(prepared, method, config) for method in order}
        assert shared == fresh


def test_prepared_series_keeps_apart_what_the_options_change():
    x = INPUTS["fgn"]
    calls = [(method, {"window": w}) for w in (20, 50, 30)
             for method in ("am", "av", "dfa", "rs")]
    calls += [("lssd", {"weight_p": 3}), ("lsv", {}), ("lssd", {}),
              ("pm", {"cutoff": 0.2}), ("lw", {}), ("pm", {}),
              ("ghe", {"q_order": 2.0}), ("tta", {}), ("hm", {"norm": 1})]
    prepared = PreparedSeries(x)
    for method, config in calls:
        assert _outcome(prepared, method, config) == _outcome(x, method, config)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_kept_intermediates_are_read_only():
    x = gen_fgn(FgnSpec(0.6, 3000, 2))
    prepared = PreparedSeries(x)
    for method in METHODS:
        estimate_series(prepared, method)
    kept = list(_arrays(tuple(prepared._cache.values())))
    # the series, the demeaned series, the profile, the periodogram's
    # frequencies and powers and the block-sum scales and statistics
    assert len(kept) == 7
    assert not any(arr.flags.writeable for arr in kept)
    assert all(type(value) is not list for value in prepared._cache.values())
    assert x.flags.writeable  # the caller's array keeps its flags


# ---------------------------------------------------------------------------
# the suites against the method-outer loop with one gen_fgn per replicate


def _oracle_cells(report, label, paths, h_true, config):
    for method in METHODS:
        estimates, failure = [], None
        for x in paths:
            try:
                estimates.append(estimate_series(x, method, **config).hurst)
            except HurstkitError as exc:
                failure = type(exc).__name__
                break
        if failure:
            row = BenchCell(label, method, replicates=report.replicates,
                            seed_base=report.seed, error=failure)
        else:
            mean = float(np.mean(estimates))
            row = BenchCell(
                label,
                method,
                mean=mean,
                std=float(np.std(estimates, ddof=1)) if len(estimates) > 1 else 0.0,
                rel_error=relative_error(mean, h_true),
                replicates=report.replicates,
                seed_base=report.seed,
            )
        report.rows.append(row)


def _oracle_random_suite(replicates, length, seed, config=None):
    report = BenchReport("random", length, replicates, seed)
    for dist in DISTRIBUTIONS:
        paths = [gen_iid(dist, length, seed + i) for i in range(replicates)]
        _oracle_cells(report, dist, paths, WHITE_NOISE_H, config or {})
    return report


def _oracle_fgn_suite(h_values, replicates, length, seed, config=None):
    report = BenchReport("fgn", length, replicates, seed)
    for h in h_values:
        paths = [gen_fgn((h, length, seed + i)) for i in range(replicates)]
        _oracle_cells(report, f"{h:.4g}", paths, h, config or {})
    return report


def _assert_same_tsvs(report, oracle):
    assert report.to_long_tsv() == oracle.to_long_tsv()
    assert report.to_matrix_tsv() == oracle.to_matrix_tsv()


def _forcing_cpus(monkeypatch, cpus):
    """Make the suites see `cpus` usable CPUs: 1 runs them serially, 2 on a
    pool of two workers, whatever the machine has."""
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: cpus)


SERIAL_AND_POOLED = (1, 2)


@pytest.mark.parametrize("length, config", [(200, {}), (3000, {"window": 20})])
def test_random_suite_matches_the_method_outer_loop(monkeypatch, length,
                                                    config):
    oracle = _oracle_random_suite(3, length, 11, config)
    for cpus in SERIAL_AND_POOLED:
        _forcing_cpus(monkeypatch, cpus)
        report = run_random_suite(replicates=3, length=length, seed=11,
                                  config=config)
        _assert_same_tsvs(report, oracle)
        assert not multiprocessing.active_children()
    if length == 200:  # the partition floor fails some cells, not all
        errors = {row.error for row in report.rows}
        assert None in errors and len(errors) > 1


def test_fgn_suite_matches_the_method_outer_loop(monkeypatch):
    args = ((0.3, 0.55, 0.8), 3, 4000, 9)
    oracle = _oracle_fgn_suite(*args)
    for cpus in SERIAL_AND_POOLED:
        _forcing_cpus(monkeypatch, cpus)
        _assert_same_tsvs(run_fgn_suite(*args), oracle)
        assert not multiprocessing.active_children()


@pytest.mark.parametrize("error, args", [
    (EmbeddingError, ((0.5, 0.92), 2, 1000, 1)),
    (ArgumentError, ((0.5,), 2, 1000, -1)),
])
def test_fgn_suite_raises_as_the_method_outer_loop(monkeypatch, error, args):
    with pytest.raises(error) as old:
        _oracle_fgn_suite(*args)
    for cpus in SERIAL_AND_POOLED:
        _forcing_cpus(monkeypatch, cpus)
        with pytest.raises(error) as new:
            run_fgn_suite(*args)
        assert str(new.value) == str(old.value)
        assert not multiprocessing.active_children()


@pytest.mark.parametrize("cpus", SERIAL_AND_POOLED)
@pytest.mark.parametrize("suite", [
    lambda: run_fgn_suite((0.5, 0.7), replicates=2, length=500),
    lambda: run_random_suite(replicates=2, length=500),
], ids=["fgn", "random"])
def test_an_unexpected_error_reaches_the_caller(monkeypatch, cpus, suite):
    # not a HurstkitError, so no cell may swallow it; the pool's workers
    # inherit the patched estimator through fork
    def broken(*args):
        raise RuntimeError(f"tta broke in {os.getpid()}")

    _forcing_cpus(monkeypatch, cpus)
    monkeypatch.setattr(harness, "est_tta", broken)
    with pytest.raises(RuntimeError, match="tta broke in") as caught:
        suite()
    in_caller = str(caught.value) == f"tta broke in {os.getpid()}"
    assert in_caller == (cpus == 1)
    assert not multiprocessing.active_children()


def test_fgn_suite_rejects_h_values_that_share_a_label(tmp_path, capsys):
    with pytest.raises(ArgumentError, match=r"0\.3 and 0\.30001 share"):
        run_fgn_suite(h_values=(0.3, 0.30001, 0.3), replicates=1, length=300)
    with pytest.raises(ArgumentError, match=r"0\.5 and 0\.5 share"):
        run_fgn_suite(h_values=(0.5, 0.5), replicates=1, length=300)
    code = main(["bench", "fgn", "--h-grid", "0.3:0.30003:0.00001",
                 "--replicates", "1", "--length", "300",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "0.3 and 0.30001 share the label 0.3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# the objectives against their form before the H-invariant terms moved


def _old_ctm_lssd(hurst, ctx):
    m = ctx.scales
    weight = m**ctx.weight_p
    log_m = np.log(m)
    d = fun_dm(m, ctx.length, hurst)
    c = fun_cm_lssd(m, ctx.length, hurst)
    gap = np.log(ctx.stats) - np.log(c)
    a11 = np.sum(1.0 / weight)
    a12 = np.sum(log_m / weight)
    a21 = np.sum(d / weight)
    a22 = np.sum(d * log_m / weight)
    b1 = np.sum(gap / weight)
    b2 = np.sum(d * gap / weight)
    denom = a11 * a22 - a21 * a12
    return float((a11 * (b2 - hurst**ctx.penalty_q) - a21 * b1) / denom)


def _old_obj_fun_lsv(hurst, ctx):
    m = ctx.scales
    weight = m**ctx.weight_p
    c = fun_cm_lsv(m, ctx.length, hurst)
    s_sq = ctx.stats**2
    b1 = np.sum(s_sq**2 / weight)
    a11 = np.sum(c**2 * m ** (4.0 * hurst) / weight)
    a12 = np.sum(c * m ** (2.0 * hurst) * s_sq / weight)
    penalty = hurst ** (ctx.penalty_q + 1.0) / (ctx.penalty_q + 1.0)
    return float(b1 - a12 * a12 / a11 + penalty)


def _old_obj_fun_lw(hurst, data):
    f = data.frequencies
    weighted = np.mean(f ** (2.0 * hurst - 1.0) * data.power)
    return float(np.log(weighted) - (2.0 * hurst - 1.0) * np.mean(np.log(f)))


HURSTS = (0.01, 0.3, 0.5, 0.77, 0.95)


@pytest.mark.parametrize("p", [0.0, 2.0, 6.0, 3.5])
def test_block_sum_objectives_are_bitwise_their_old_form(p):
    rng = np.random.default_rng(4)
    scales = np.arange(1.0, 301.0)
    ctx = BlockSumContext(3000, p, 50.0, scales,
                          scales**0.7 * rng.uniform(0.5, 1.5, scales.size))
    for h in HURSTS:
        assert ctm_lssd(h, ctx) == _old_ctm_lssd(h, ctx)
        assert obj_fun_lsv(h, ctx) == _old_obj_fun_lsv(h, ctx)


def test_whittle_objective_is_bitwise_its_old_form():
    n = 4001
    freq = np.arange(1, n // 2 + 1) / n
    data = LwObjectiveData(freq, np.random.default_rng(5).exponential(size=freq.size))
    for h in HURSTS:
        assert obj_fun_lw(h, data) == _old_obj_fun_lw(h, data)
