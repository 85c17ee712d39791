"""Benchmark suites: white-noise table and fractional-noise accuracy grid.

Both suites run every estimator over every cell of a (distribution | H)
by-method grid with paired per-replicate seeds (base + replicate index), and
assemble a BenchReport that serializes to a deterministic matrix TSV
(methods as columns) and a long-form TSV (one row per cell, plot-ready).
A failing cell is marked and the suite carries on.

Each path is drawn when its turn comes and wrapped once in a
partition.PreparedSeries, so the thirteen methods share what they have in
common (the demeaned series, partitions, profiles, the periodogram); the fGn
suite computes one embedding per H for all its replicates.  Every estimate
is bitwise the one a separate estimate_series call on the path gives.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, HurstkitError
# gen_fgn is not called here; perfbench traces the name
from .generators import (  # noqa: F401
    DISTRIBUTIONS,
    FgnSpec,
    _draw_fgn,
    _embedding_amplitudes,
    gen_fgn,
    gen_iid,
)
from .harness import estimate_series
from .partition import PreparedSeries
from .results import METHODS

DEFAULT_H_GRID = (0.3, 0.5, 0.7)
WHITE_NOISE_H = 0.5  # nominal truth for the iid suite's relative errors


def relative_error(h_hat, h_true):
    """|estimate - truth| / truth, in percent."""
    if h_true <= 0:
        raise ArgumentError(f"true value must be positive, got {h_true}")
    return abs(h_hat - h_true) / h_true * 100.0


@dataclass(frozen=True)
class BenchCell:
    """One (label, method) aggregate; `error` set means the cell failed."""

    label: str
    method: str
    mean: float = None
    std: float = None
    rel_error: float = None
    replicates: int = 0
    seed_base: int = 0
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
        labels = list(dict.fromkeys(row.label for row in self.rows))
        for label in labels:
            cells = []
            for method in METHODS:
                row = self.cell(label, method)
                cells.append("NA" if row.error else f"{row.mean:.4f}")
            lines.append("\t".join([label] + cells))
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
            lines.append(
                "\t".join(
                    [r.label, r.method, *stats, str(r.replicates),
                     str(r.seed_base), r.error or ""]
                )
            )
        return "\n".join(lines) + "\n"


def _run_cells(report, label, paths, h_true, config):
    """Append one row per method for the paths of one label.

    Paths run one at a time through every method still live; a method's
    first failure ends its cell, and the rows come out in METHODS order.
    """
    estimates = {method: [] for method in METHODS}
    failures = {}
    for x in paths:
        prepared = PreparedSeries(x)
        for method in METHODS:
            if method in failures:
                continue
            try:
                result = estimate_series(prepared, method, **config)
            except HurstkitError as exc:
                failures[method] = type(exc).__name__
            else:
                estimates[method].append(result.hurst)
    for method in METHODS:
        failure = failures.get(method)
        if failure:
            row = BenchCell(label, method, replicates=report.replicates,
                            seed_base=report.seed, error=failure)
        else:
            hursts = estimates[method]
            mean = float(np.mean(hursts))
            row = BenchCell(
                label,
                method,
                mean=mean,
                std=float(np.std(hursts, ddof=1)) if len(hursts) > 1 else 0.0,
                rel_error=relative_error(mean, h_true),
                replicates=report.replicates,
                seed_base=report.seed,
            )
        report.rows.append(row)


def run_random_suite(replicates=10, length=10000, seed=42, config=None):
    """Six iid noise families x thirteen methods, all nominally H=0.5."""
    if replicates < 1:
        raise ArgumentError(f"need at least 1 replicate, got {replicates}")
    report = BenchReport("random", length, replicates, seed)
    for dist in DISTRIBUTIONS:
        paths = (gen_iid(dist, length, seed + i) for i in range(replicates))
        _run_cells(report, dist, paths, WHITE_NOISE_H, config or {})
    return report


def run_fgn_suite(h_values=DEFAULT_H_GRID, replicates=10, length=30000,
                  seed=42, config=None):
    """Fractional-noise accuracy grid over the requested H values.

    Each H is labelled by ``f"{h:.4g}"``; two values with the same label
    are an ArgumentError.
    """
    if replicates < 1:
        raise ArgumentError(f"need at least 1 replicate, got {replicates}")
    h_values = [float(h) for h in h_values]
    for h in h_values:
        if not 0.0 < h < 1.0:
            raise ArgumentError(f"target H must lie in (0,1), got {h}")
    labels = {}
    for h in h_values:
        label = f"{h:.4g}"
        if label in labels:
            raise ArgumentError(
                f"target H values {labels[label]} and {h} share the label "
                f"{label}; give values that differ in 4 significant digits"
            )
        labels[label] = h
    report = BenchReport("fgn", length, replicates, seed)
    for label, h in labels.items():
        specs = [FgnSpec(h, length, seed + i) for i in range(replicates)]
        amp = _embedding_amplitudes(h, length)
        paths = (_draw_fgn(spec, amp) for spec in specs)
        _run_cells(report, label, paths, h, config or {})
    return report
