"""Benchmark suites: white-noise table and fractional-noise accuracy grid.

Both suites run every estimator over every cell of a (distribution | H)
by-method grid with paired per-replicate seeds (base + replicate index), and
assemble a BenchReport that serializes to a deterministic matrix TSV
(methods as columns) and a long-form TSV (one row per cell, plot-ready).
A failing cell is marked and the suite carries on; so is every cell of an
fGn target whose embedding fails.

Each path is drawn, wrapped once in a partition.PreparedSeries and run
through the thirteen methods as one task, so the methods share what they
have in common (the demeaned series, partitions, profiles, the
periodogram); the fGn suite computes one embedding per H for all its
replicates.  The paths of a suite, across all its labels, run on one pool of
min(usable CPUs, number of paths) processes started by fork; with one usable
CPU (``taskset -c 0``) or on a platform without fork they run serially in
the calling process.  Every estimate, error and TSV byte is the same either
way, and bitwise the one a separate estimate_series call on the path gives.
A worker holds one path and its intermediates at a time (its peak RSS was
152 MiB at N = 1e6, Python 3.11 and numpy 2.4), and timedomain._map_scales
still starts threads for dfa and rs inside a worker once the prefix has 2e5
samples.
A tracer or profiler installed in the calling process sees only that
process, so it sees the estimators only in a serial run.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import _cpus
from .errors import ArgumentError, HurstkitError
# gen_fgn is not called here; perfbench traces the name
from .generators import (  # noqa: F401
    DISTRIBUTIONS,
    FgnSpec,
    _check_count,
    _draw_fgn,
    _embedding_amplitudes,
    gen_fgn,
    gen_iid,
)
from .harness import _settings, estimate_series
from .partition import PreparedSeries
from .results import METHODS

DEFAULT_H_GRID = (0.3, 0.5, 0.7)
WHITE_NOISE_H = 0.5  # nominal truth for the iid suite's relative errors


def relative_error(h_hat, h_true):
    """|estimate - truth| / truth, in percent."""
    return abs(h_hat - h_true) / h_true * 100.0


@dataclass(frozen=True)
class BenchCell:
    """One (label, method) aggregate over the report's replicates; `error`
    set, to an error's type name, means the cell failed."""

    label: str
    method: str
    mean: float = None
    std: float = None
    rel_error: float = None
    error: str = None


@dataclass
class BenchReport:
    suite: str
    length: int
    replicates: int
    seed: int
    rows: list = field(default_factory=list)

    def cell(self, label, method):
        for row in self.rows:
            if row.label == label and row.method == method:
                return row
        raise KeyError((label, method))

    def _header_lines(self):
        return [
            f"# suite={self.suite} length={self.length} "
            f"replicates={self.replicates} seed={self.seed}",
            "# replicate seeds are seed+0 .. seed+replicates-1, shared "
            "across cells",
        ]

    def to_matrix_tsv(self):
        """Labels down, methods across; failed cells print NA."""
        lines = self._header_lines()
        lines.append("\t".join(["label"] + list(METHODS)))
        by_label = {}
        for row in self.rows:
            by_label.setdefault(row.label, {})[row.method] = row
        for label, cells in by_label.items():
            rows = [cells[method] for method in METHODS]  # a missing cell raises
            lines.append("\t".join(
                [label] + ["NA" if r.error else f"{r.mean:.4f}" for r in rows]))
        return "\n".join(lines) + "\n"

    def to_long_tsv(self):
        """One row per cell: label, method, mean, std, relative error %."""
        lines = self._header_lines()
        lines.append(
            "label\tmethod\tmean\tstd\trel_error_pct\treplicates\tseed\terror"
        )
        for r in self.rows:
            if r.error:
                stats = ["NA", "NA", "NA"]
            else:
                stats = [f"{r.mean:.17g}", f"{r.std:.17g}", f"{r.rel_error:.6f}"]
            lines.append("\t".join([r.label, r.method, *stats, str(self.replicates),
                                    str(self.seed), r.error or ""]))
        return "\n".join(lines) + "\n"


def _path_outcomes(draw, args, config):
    """Draw one path as draw(*args) and run every method on it.

    Returns, in METHODS order, each method's H or the type name of the
    HurstkitError it raised.
    """
    prepared = PreparedSeries(draw(*args))
    outcomes = []
    for method in METHODS:
        try:
            outcomes.append(estimate_series(prepared, method, **config).hurst)
        except HurstkitError as exc:
            outcomes.append(type(exc).__name__)
    return outcomes


_pool_work = None  # a pool worker's (tasks, config), set by _adopt


def _adopt(tasks, config):
    global _pool_work
    _pool_work = tasks, config


def _outcomes_at(i):
    """_path_outcomes for task i of the (tasks, config) the worker adopted."""
    tasks, config = _pool_work
    draw, args = tasks[i]
    return _path_outcomes(draw, args, config)


def _run_paths(tasks, config):
    """[_path_outcomes(draw, args, config) for (draw, args) in tasks].

    The paths run on a pool of min(usable CPUs, len(tasks)) forked
    processes, each of which draws its own paths, or in the calling process
    when that is 1 or the platform cannot fork.  A worker inherits the task
    list and config through fork, so nothing of a task is pickled (a draw
    function defined inside another function runs as any other): only task
    indices go out and outcomes come back, in task order.  An exception
    other than a HurstkitError reaches the caller and cancels the paths not
    yet started; no worker outlives the call.
    """
    workers = min(_cpus.usable_cpus(), len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        return [_path_outcomes(draw, args, config) for draw, args in tasks]
    # imported here: `import hurstkit` and the serial path should not pay
    # for them.  fork, not spawn: a worker needs no import of the caller's
    # script, which may run a suite without an `if __name__` guard.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(tasks, config))
    try:
        return list(pool.map(_outcomes_at, range(len(tasks))))
    finally:
        pool.shutdown(cancel_futures=True)


def _run_suite(report, groups, config):
    """Run the tasks of all groups in one _run_paths call, then append one
    row per method, in METHODS order, for each group in turn.

    A group is (label, true H, tasks), one (draw, args) task per replicate,
    or (label, true H, the type name of the error that kept it from drawing
    any path), which fails all its cells.  Otherwise a method's first
    failure in path order sets its cell's error.
    """
    tasks = [task for _, _, paths in groups if not isinstance(paths, str)
             for task in paths]
    outcomes = iter(_run_paths(tasks, config))
    for label, h_true, paths in groups:
        columns = ([(paths,)] * len(METHODS) if isinstance(paths, str)
                   else zip(*[next(outcomes) for _ in paths]))
        for method, column in zip(METHODS, columns):
            failure = next((o for o in column if isinstance(o, str)), None)
            if failure:
                row = BenchCell(label, method, error=failure)
            else:
                mean = float(np.mean(column))
                std = float(np.std(column, ddof=1)) if len(column) > 1 else 0.0
                row = BenchCell(label, method, mean, std,
                                relative_error(mean, h_true))
            report.rows.append(row)


def run_random_suite(replicates=10, length=10000, seed=42, config=None):
    """Six iid noise families x thirteen methods, all nominally H=0.5."""
    _check_count("replicates", replicates, 1)
    _check_count("length", length, 1)  # gen_iid's rules
    _check_count("seed", seed, 0)
    _settings(config or {})  # a bad option fails before any path is drawn
    report = BenchReport("random", length, replicates, seed)
    groups = [(dist, WHITE_NOISE_H,
               [(gen_iid, (dist, length, seed + i)) for i in range(replicates)])
              for dist in DISTRIBUTIONS]
    _run_suite(report, groups, config or {})
    return report


def run_fgn_suite(h_values=DEFAULT_H_GRID, replicates=10, length=30000,
                  seed=42, config=None):
    """Fractional-noise accuracy grid over the requested H values.

    Each H is labelled by ``f"{h:.4g}"``; two values with the same label
    are an ArgumentError, raised as soon as the second is read from
    `h_values`, which is iterated once.  Each H, with `length` and `seed`,
    is checked as its FgnSpec checks it.  An H whose embedding raises a
    HurstkitError (EmbeddingError at high H) has that error's type name in
    every cell; the other rows do not change.
    """
    _check_count("replicates", replicates, 1)
    _check_count("seed", seed, 0)
    try:
        h_values = iter(h_values)
    except TypeError:
        raise ArgumentError(
            f"h_values must be a sequence of target H values, got {h_values!r}"
        ) from None
    labels = {}
    for h in h_values:
        h = float(FgnSpec(h, length, seed).hurst)
        label = f"{h:.4g}"
        if label in labels:
            raise ArgumentError(
                f"target H values {labels[label]} and {h} share the label "
                f"{label}; give values that differ in 4 significant digits"
            )
        labels[label] = h
    _settings(config or {})  # a bad option fails before any path is drawn
    report = BenchReport("fgn", length, replicates, seed)
    groups = []
    for label, h in labels.items():
        try:
            amp = _embedding_amplitudes(h, length)  # one embedding per H
            paths = [(_draw_fgn, (FgnSpec(h, length, seed + i), amp))
                     for i in range(replicates)]
        except HurstkitError as exc:
            paths = type(exc).__name__
        groups.append((label, h, paths))
    _run_suite(report, groups, config or {})
    return report
