"""Span tracing by wrapping hurstkit's public functions from outside.

Each estimator module binds the helpers it uses at import time
(``from .partition import search_opt_seq_len``), so a helper is traced by
replacing the name in the module that looks it up, for example
``hurstkit.timedomain.search_opt_seq_len``.  No file of the package changes.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, series]`` and
written out when the run ends.  A layer's self time is its span's duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

import functools
import importlib
import statistics
import time

from hurstkit.results import METHODS

_clock = time.perf_counter_ns


# Callers in the package pass these arguments positionally.

def _method_by_order(position, first, second):
    # est_central and est_dwt serve two methods each, told apart by `r`
    def name(args, kwargs):
        return first if args[position] == 1 else second
    return name


def _estimate_series_name(args, kwargs):
    return f"harness.estimate_series.{args[1]}"


# (module the name is looked up in, attribute, span name or namer)
TARGETS = (
    ("hurstkit.partition", "as_series", "partition.as_series"),
    ("hurstkit.timedomain", "as_series", "partition.as_series"),
    ("hurstkit.spectral", "as_series", "partition.as_series"),
    ("hurstkit.aggregation", "as_series", "partition.as_series"),
    ("hurstkit.timedomain", "search_opt_seq_len",
     "partition.search_opt_seq_len"),
    ("hurstkit.timedomain", "seq_partition", "partition.seq_partition"),
    ("hurstkit.timedomain", "cumulative_bias", "partition.cumulative_bias"),
    ("hurstkit.timedomain", "linear_regr_solver", "numerics.linear_regr_solver"),
    ("hurstkit.spectral", "linear_regr_solver", "numerics.linear_regr_solver"),
    ("hurstkit.aggregation", "fixed_point_solve", "numerics.fixed_point_solve"),
    ("hurstkit.aggregation", "loc_min_solve", "numerics.loc_min_solve"),
    ("hurstkit.spectral", "loc_min_solve", "numerics.loc_min_solve"),
    ("hurstkit.aggregation", "ctm_lssd", "aggregation.ctm_lssd"),
    ("hurstkit.aggregation", "obj_fun_lsv", "aggregation.obj_fun_lsv"),
    ("hurstkit.spectral", "obj_fun_lw", "spectral.obj_fun_lw"),
    ("hurstkit.spectral", "dft", "transforms.dft"),
    ("hurstkit.spectral", "wavedec", "transforms.wavedec"),
    ("hurstkit.harness", "est_central",
     _method_by_order(2, "timedomain.am", "timedomain.av")),
    ("hurstkit.harness", "est_ghe", "timedomain.ghe"),
    ("hurstkit.harness", "est_higuchi", "timedomain.hm"),
    ("hurstkit.harness", "est_dfa", "timedomain.dfa"),
    ("hurstkit.harness", "est_rs", "timedomain.rs"),
    ("hurstkit.harness", "est_tta", "timedomain.tta"),
    ("hurstkit.harness", "est_pm", "spectral.pm"),
    ("hurstkit.harness", "est_dwt",
     _method_by_order(1, "spectral.awc", "spectral.vvl")),
    ("hurstkit.harness", "est_lw", "spectral.lw"),
    ("hurstkit.harness", "est_lssd", "aggregation.lssd"),
    ("hurstkit.harness", "est_lsv", "aggregation.lsv"),
    ("hurstkit.harness", "estimate_series", _estimate_series_name),
    ("hurstkit.bench", "estimate_series", _estimate_series_name),
    ("hurstkit.harness", "read_series", "harness.read_series"),
    ("hurstkit.harness", "gen_fgn", "generators.gen_fgn"),
    ("hurstkit.bench", "gen_fgn", "generators.gen_fgn"),
    ("hurstkit.generators", "gen_fgn", "generators.gen_fgn"),
    ("hurstkit.cli", "write_fgn", "harness.write_fgn"),
    ("hurstkit.bench", "run_fgn_suite", "bench.run_fgn_suite"),
)

# spans whose first argument is the series they work on
_SERIES_ARG = "harness.estimate_series."
# spans that return a new series
_SERIES_SOURCES = ("generators.gen_fgn", "harness.read_series")


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self):
        self.spans = []
        self.search_keys = []  # (series, n, w) per search_opt_seq_len call
        self._stack = []
        self._series = {}  # id(array) -> (series number, array kept alive)
        self._current_series = None
        self._saved = []

    def series_of(self, arr):
        entry = self._series.get(id(arr))
        if entry is None:
            entry = (len(self._series), arr)
            self._series[id(arr)] = entry
        return entry[0]

    def _wrap(self, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            outer_series = tracer._current_series
            if name.startswith(_SERIES_ARG):
                tracer._current_series = tracer.series_of(args[0])
            if name == "partition.search_opt_seq_len":
                tracer.search_keys.append(
                    (tracer._current_series, int(args[0]), int(args[1])))
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, _clock(), 0, parent, tracer._current_series]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                tracer._stack.pop()
                tracer._current_series = outer_series
            if name in _SERIES_SOURCES:
                tracer.series_of(result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, namer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, namer))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def self_times_ns(self):
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child
                for (_, start, end, _, _), child in zip(self.spans, child_ns)]


# layers every workload reaches: inclusive ms and calls
TIMED = (
    "partition.search_opt_seq_len", "partition.seq_partition",
    "partition.cumulative_bias", "partition.as_series",
    "transforms.dft", "transforms.wavedec",
    "numerics.linear_regr_solver", "numerics.fixed_point_solve",
    "numerics.loc_min_solve",
)
# estimator bodies: self ms
BODIES = (
    "timedomain.am", "timedomain.av", "timedomain.ghe", "timedomain.hm",
    "timedomain.dfa", "timedomain.rs", "timedomain.tta",
    "aggregation.lssd", "aggregation.lsv",
    "spectral.pm", "spectral.awc", "spectral.vvl", "spectral.lw",
)
# solver objectives: calls, one per iteration
COUNTED = ("aggregation.ctm_lssd", "aggregation.obj_fun_lsv",
           "spectral.obj_fun_lw")
# layers only some workloads reach: reported in the record, not the result
WORKLOAD_ONLY = (("harness.read_series", "ms"), ("harness.write_fgn", "ms"),
                 ("bench.run_fgn_suite", "self_ms"))


def layer_metrics(tracer):
    """Aggregate the spans of one traced pass into per-layer metrics.

    Returns ``(metrics, workload_only)``, both mapping metric name to
    ``(value, unit)``; the second holds the layers not every workload uses.
    """
    total_ns, self_ns, calls = {}, {}, {}
    per_call_ms = {}
    for (name, start, end, _, _), own in zip(tracer.spans,
                                             tracer.self_times_ns()):
        total_ns[name] = total_ns.get(name, 0) + end - start
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        per_call_ms.setdefault(name, []).append((end - start) / 1e6)

    out = {}
    for name in TIMED:
        out[f"{name}.ms"] = (total_ns.get(name, 0) / 1e6, "ms")
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    keys = tracer.search_keys
    out["partition.search_opt_seq_len.redundant_frac"] = (
        (len(keys) - len(set(keys))) / max(len(keys), 1), "1")
    for name in BODIES:
        out[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6, "ms")
    for name in COUNTED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    out["generators.gen_fgn.ms"] = (
        total_ns.get("generators.gen_fgn", 0) / 1e6, "ms")
    for method in METHODS:
        samples = per_call_ms.get(f"harness.estimate_series.{method}", [0.0])
        out[f"harness.estimate_series.{method}.p50_ms"] = (
            statistics.median(samples), "ms")

    only = {}
    for name, quantity in WORKLOAD_ONLY:
        source = self_ns if quantity == "self_ms" else total_ns
        if name in source:
            only[f"{name}.{quantity}"] = (source[name] / 1e6, "ms")
    return out, only
