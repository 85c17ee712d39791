"""The names perfbench's tracer wraps must exist and must see every call.

perfbench/tracing.py patches module-level names from outside the package
(``hurstkit.harness.est_central`` and so on).  A name that disappears breaks
the traced run; a dispatcher that captures function objects at import time
still runs, but its per-estimator spans silently read 0.  The tracer module
is loaded from its source without importing the perfbench package.
"""

import collections
import importlib
import threading
import types
from pathlib import Path

import pytest

from hurstkit import _cpus, bench, cli, generators, harness, timedomain
from hurstkit.generators import FgnSpec, gen_fgn
from hurstkit.results import METHODS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves(tracing):
    for module_name, attr, _ in tracing.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_tracer_records_every_estimator_span(tracing):
    x = gen_fgn(FgnSpec(0.7, 3000, 1))
    with tracing.Tracer() as tracer:
        for method in METHODS:
            harness.estimate_series(x, method)

    bodies = [(name, parent) for name, _, _, parent, _ in tracer.spans
              if name in tracing.BODIES]
    assert collections.Counter(name for name, _ in bodies) == (
        collections.Counter(tracing.BODIES))
    for name, parent in bodies:
        assert tracer.spans[parent][0].startswith("harness.estimate_series."), name


def test_tracer_sees_a_serial_suite(tracing, monkeypatch):
    # pooled paths run in worker processes the tracer never sees; with one
    # usable CPU the suite runs in this process and every path is traced
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: 1)
    with tracing.Tracer() as tracer:
        bench.run_fgn_suite(h_values=(0.5, 0.7), replicates=2, length=3000)

    bodies = [(name, parent) for name, _, _, parent, _ in tracer.spans
              if name in tracing.BODIES]
    assert collections.Counter(name for name, _ in bodies) == (
        collections.Counter(tracing.BODIES * 4))
    for name, parent in bodies:
        assert tracer.spans[parent][0].startswith("harness.estimate_series."), name


def test_traced_names_run_on_the_calling_thread(tracing, monkeypatch):
    # the tracer keeps one span stack: with the scale map forced onto worker
    # threads, every traced name must still be called from the main thread
    monkeypatch.setattr(timedomain, "_THREADED_MIN_SAMPLES", 0)
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: 4)
    callers = []
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)

        def recorder(*args, _original=getattr(module, attr), **kwargs):
            callers.append(threading.current_thread())
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorder)

    x = gen_fgn(FgnSpec(0.7, 3000, 1))
    for method in ("am", "av", "dfa", "rs"):
        for norm in (1, 2):
            harness.estimate_series(x, method, norm=norm)
    assert callers
    assert set(callers) == {threading.main_thread()}


# traced names that nothing in the package calls: each is a module-level
# import kept so that its trace target resolves
NEVER_CALLED = {
    ("hurstkit.aggregation", "as_series"),  # only block_sum_std reaches it
    ("hurstkit.bench", "gen_fgn"),
    ("hurstkit.spectral", "as_series"),
    ("hurstkit.spectral", "dft"),
    ("hurstkit.spectral", "linear_regr_solver"),
    ("hurstkit.timedomain", "as_series"),
    ("hurstkit.timedomain", "linear_regr_solver"),
    ("hurstkit.timedomain", "seq_partition"),
}


def test_trace_targets_never_called_are_the_known_ones(tracing, monkeypatch,
                                                        tmp_path, capsys):
    # every public path perfbench times, called through its module as
    # perfbench calls it: a target outside NEVER_CALLED that stops being
    # called, or one inside it that starts, fails here
    called = set()
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)

        def recorder(*args, _key=(module_name, attr),
                     _original=getattr(module, attr), **kwargs):
            called.add(_key)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorder)
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: 1)

    path = str(tmp_path / "p.txt")
    assert cli.main(["gen-fgn", "--hurst", "0.7", "--length", "3000",
                     "--seed", "1", "--output", path]) == 0
    x = harness.read_series(path)
    generators.gen_fgn(FgnSpec(0.7, 3000, 2))
    for method in METHODS:
        for norm in (1, 2):
            harness.estimate_series(x, method, norm=norm)
    bench.run_fgn_suite(h_values=(0.7,), replicates=1, length=3000)
    bench.run_random_suite(replicates=1, length=3000)
    assert cli.main(["estimate", "--input", path, "--method", "dfa"]) == 0
    capsys.readouterr()

    targets = {(module_name, attr) for module_name, attr, _ in tracing.TARGETS}
    assert targets - called == NEVER_CALLED
