"""The three benchmark workloads and the measurements they share.

Every call is timed from outside the package, through its public functions:
``harness.estimate_series``, ``bench.run_fgn_suite``, ``generators.gen_fgn``
and the ``hurstkit`` CLI.  Names are looked up on the module at call time,
so the traced run sees the wrappers that ``tracing.Tracer`` installs.
"""

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from hurstkit import bench, cli, generators, harness
from hurstkit.errors import HurstkitError
from hurstkit.generators import FgnSpec
from hurstkit.results import METHODS

from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

HURST = 0.7
MC_H_GRID = (0.3, 0.5, 0.7)
SETUP_PER_PASS = 3
IMPORT_RUNS = 5
GEN_REPEATS = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test shrinks them."""

    battery_length: int = 1_000_000
    mc_length: int = 30_000
    mc_replicates: int = 20
    cli_length: int = 300_000
    cold_length: int = 30_000


@dataclass
class Pass:
    """One pass of a workload: its timings, estimates and failures."""

    wall_s: float
    call_s: list
    estimates: list
    attempted: int
    sq_err: float  # sum of squared errors of the estimates against true H
    failed: int
    child_rss_kb: int = 0


@dataclass
class Outcome:
    """What one run reports: metrics, counts and correctness problems."""

    metrics: dict  # name -> (value, unit): the metrics of the result line
    report: dict  # name -> (value, unit): printed and recorded only
    attempted: int
    failed: int
    problems: list
    estimates: list
    record: dict = field(default_factory=dict)  # extra fields of the record
    spans: list = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, out_path):
    """Run one Python subprocess to completion.

    Returns (exit code, wall seconds, peak RSS in KiB, stdout text).  The
    child is reaped with wait4 so its own peak RSS is known; a timer kills
    it if it outlives CHILD_TIMEOUT_S.
    """
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, Path(out_path).read_text()


SETUP_CHILD = """\
import json, time
t0 = time.perf_counter()
import hurstkit
t1 = time.perf_counter()
x = hurstkit.gen_fgn(hurstkit.FgnSpec({hurst}, {length}, {seed}))
t2 = time.perf_counter()
for method in hurstkit.METHODS:
    hurstkit.estimate_series(x, method)
t3 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "calls_s": t3 - t2}}))
"""

IMPORT_CHILD = """\
import time
t0 = time.perf_counter()
import hurstkit.cli
print(time.perf_counter() - t0)
"""


def setup_samples(seed, sizes, scratch, runs):
    """Set-up times of `runs` fresh processes: import hurstkit plus one cold
    call of each method, input generation excluded."""
    code = SETUP_CHILD.format(hurst=HURST, length=sizes.cold_length, seed=seed)
    samples = []
    for _ in range(runs):
        rc, _, _, text = run_child(["-c", code], scratch / "setup.out")
        if rc != 0:
            raise RuntimeError(f"set-up child exited with {rc}")
        parsed = json.loads(text)
        samples.append(parsed["import_s"] + parsed["calls_s"])
    return samples


def measure_cli_import(scratch):
    samples = []
    for _ in range(IMPORT_RUNS):
        rc, _, _, text = run_child(["-c", IMPORT_CHILD], scratch / "import.out")
        if rc != 0:
            raise RuntimeError(f"import child exited with {rc}")
        samples.append(float(text))
    return statistics.median(samples)


def warm_up(sizes, seed):
    """One call of each method, so cold costs stay out of the timed passes."""
    x = generators.gen_fgn(FgnSpec(HURST, sizes.cold_length, seed))
    for method in METHODS:
        harness.estimate_series(x, method)


def _tally(estimates, hurst):
    """(sum of squared errors of the finite estimates, count of the rest)"""
    finite = [h for h in estimates if math.isfinite(h)]
    return (sum((h - hurst) ** 2 for h in finite),
            len(estimates) - len(finite))


def run_battery(x):
    """All 13 methods on one series, one caller in a closed loop."""
    calls, estimates = [], []
    start = time.perf_counter()
    for method in METHODS:
        t0 = time.perf_counter()
        try:
            h = harness.estimate_series(x, method).hurst
        except HurstkitError:
            h = math.nan
        calls.append(time.perf_counter() - t0)
        estimates.append(h)
    wall = time.perf_counter() - start
    return Pass(wall, calls, estimates, len(METHODS),
                *_tally(estimates, HURST))


class BatteryLong:
    """One long fGn path, all 13 methods through ``estimate_series``."""

    name = "battery-long"
    runs_children = False

    def __init__(self, seed, sizes, scratch):
        self.spec = FgnSpec(HURST, sizes.battery_length, seed)
        self.x = None
        self.gen_s = []
        self.gen_repeats_agree = True

    def prepare(self):
        for _ in range(GEN_REPEATS):
            t0 = time.perf_counter()
            x = generators.gen_fgn(self.spec)
            self.gen_s.append(time.perf_counter() - t0)
            if self.x is not None and not (x == self.x).all():
                self.gen_repeats_agree = False
            self.x = x

    def run_pass(self):
        return run_battery(self.x)

    def trace_pass(self):
        return run_battery(generators.gen_fgn(self.spec))

    def check(self, passes):
        if self.gen_repeats_agree:
            return []
        return ["gen_fgn returned different paths for the same spec"]


class MonteCarloFgn:
    """``bench.run_fgn_suite`` over many short fGn paths."""

    name = "montecarlo-fgn"
    runs_children = False

    def __init__(self, seed, sizes, scratch):
        self.seed = seed
        self.sizes = sizes
        self.gen_s = []

    def prepare(self):
        # the suite generates its own paths; time that step on its own
        for h in MC_H_GRID:
            for i in range(self.sizes.mc_replicates):
                t0 = time.perf_counter()
                generators.gen_fgn(FgnSpec(h, self.sizes.mc_length,
                                           self.seed + i))
                self.gen_s.append(time.perf_counter() - t0)

    def run_pass(self):
        r = self.sizes.mc_replicates
        start = time.perf_counter()
        report = bench.run_fgn_suite(h_values=MC_H_GRID, replicates=r,
                                     length=self.sizes.mc_length,
                                     seed=self.seed)
        wall = time.perf_counter() - start
        estimates, sq_err, failed = [], 0.0, 0
        for h in MC_H_GRID:
            for method in METHODS:
                cell = report.cell(f"{h:.4g}", method)
                if cell.error or not math.isfinite(cell.mean):
                    failed += r  # a failed cell yields none of its estimates
                    estimates += [math.nan, math.nan]
                    continue
                estimates += [cell.mean, cell.std]
                # sum over replicates of (h_i - H)^2, from mean and std
                sq_err += (r - 1) * cell.std**2 + r * (cell.mean - h) ** 2
        return Pass(wall, [wall], estimates,
                    len(MC_H_GRID) * len(METHODS) * r, sq_err, failed)

    def trace_pass(self):
        return self.run_pass()

    def check(self, passes):
        return []


def _cli_estimate_hurst(text):
    """The ``hurst`` of an ``estimate`` JSON, or NaN if it does not parse."""
    try:
        return float(json.loads(text)["hurst"])
    except (ValueError, KeyError, TypeError):
        return math.nan


class CliRoundtrip:
    """``hurstkit gen-fgn`` then one ``hurstkit estimate`` per method, each a
    fresh process, exercising the CLI and the text I/O in ``harness``."""

    name = "cli-roundtrip"
    runs_children = True  # its peak RSS is that of its child processes

    def __init__(self, seed, sizes, scratch):
        self.scratch = scratch
        self.series = scratch / "series.txt"
        self.gen_s = []
        self.gen_args = ["gen-fgn", "--hurst", repr(HURST), "--length",
                         str(sizes.cli_length), "--seed", str(seed),
                         "--output", str(self.series)]

    def _estimate_args(self, method):
        return ["estimate", "--input", str(self.series), "--method", method]

    def prepare(self):
        # the first gen-fgn and estimate fill the page and bytecode caches
        self._process_pass(METHODS[:1])
        self.gen_s.clear()

    def _generate(self):
        rc, wall, rss, _ = run_child(["-m", "hurstkit.cli", *self.gen_args],
                                     self.scratch / "child.out")
        if rc != 0:
            raise RuntimeError(f"gen-fgn exited with {rc}")
        self.gen_s.append(wall)
        return wall, rss

    def _process_pass(self, methods):
        out = self.scratch / "child.out"
        gen_wall, rss = self._generate()
        calls, estimates = [], []
        for method in methods:
            rc, wall, child_rss, text = run_child(
                ["-m", "hurstkit.cli", *self._estimate_args(method)], out)
            calls.append(wall)
            rss = max(rss, child_rss)
            estimates.append(_cli_estimate_hurst(text) if rc == 0 else math.nan)
        return Pass(gen_wall + sum(calls), calls, estimates, len(methods),
                    *_tally(estimates, HURST), rss)

    def run_pass(self):
        return self._process_pass(METHODS)

    def trace_pass(self):
        """The same round trip in process, through ``hurstkit.cli.main``."""
        start = time.perf_counter()
        if cli.main(self.gen_args) != 0:
            raise RuntimeError("gen-fgn failed")
        estimates = []
        for method in METHODS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                rc = cli.main(self._estimate_args(method))
            estimates.append(
                _cli_estimate_hurst(buffer.getvalue()) if rc == 0 else math.nan)
        wall = time.perf_counter() - start
        return Pass(wall, [], estimates, len(METHODS),
                    *_tally(estimates, HURST))

    def check(self, passes):
        """Each CLI estimate must equal estimate_series on read_series of the
        same file, bit for bit."""
        x = harness.read_series(self.series)
        problems = []
        for method, h in zip(METHODS, passes[0].estimates):
            expected = harness.estimate_series(x, method).hurst
            if h != expected:
                problems.append(f"cli {method}: {h!r} != in-process "
                                f"{expected!r}")
        return problems


WORKLOADS = {w.name: w for w in (BatteryLong, MonteCarloFgn, CliRoundtrip)}


def _finite_problems(estimates, label):
    bad = sum(not math.isfinite(h) for h in estimates)
    return [f"{label}: {bad} non-finite estimates"] if bad else []


def measure(name, seed, seconds, sizes):
    """The untraced run: every end-to-end metric of one workload."""
    scratch = OUT / f"tmp-{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # the first child only fills the bytecode and page caches
        setup_samples(seed, sizes, scratch, 1)
        workload = WORKLOADS[name](seed, sizes, scratch)
        workload.prepare()
        warm_up(sizes, seed)
        passes, setup = [], []
        start = time.perf_counter()
        while True:
            # spread over the run, so that set-up samples the same host
            # load as the passes do
            setup += setup_samples(seed, sizes, scratch, SETUP_PER_PASS)
            passes.append(workload.run_pass())
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.wall_s for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                break
        problems = workload.check(passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = passes[0]
    problems += _finite_problems(first.estimates, name)
    if any(p.estimates != first.estimates for p in passes[1:]):
        problems.append(f"{name}: estimates differ between passes")
    if workload.runs_children:
        rss_kb = max(p.child_rss_kb for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    estimating_s = sum(sum(p.call_s) for p in passes)
    completed = sum(p.attempted - p.failed for p in passes)
    n_err = first.attempted - first.failed
    metrics = {
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "estimates_per_s": (completed / estimating_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
    }
    # too unsteady from run to run for a bound, so reported but not in the
    # result line
    report = {
        "gen_s": (statistics.median(workload.gen_s), "s"),
        "h_rmse": (math.sqrt(first.sq_err / n_err) if n_err else math.nan,
                   "H"),
        "call_p50_s": (statistics.median(c for p in passes for c in p.call_s),
                       "s"),
    }
    return Outcome(metrics, report, first.attempted, first.failed, problems,
                   first.estimates,
                   {"pass_wall_s": [p.wall_s for p in passes],
                    "pass_call_s": [p.call_s for p in passes]})


def trace(name, seed, sizes):
    """The traced run: per-layer metrics of one pass, checked bit for bit
    against an untraced pass of the same inputs."""
    scratch = OUT / f"tmp-{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        import_ms = measure_cli_import(scratch) * 1e3
        workload = WORKLOADS[name](seed, sizes, scratch)
        warm_up(sizes, seed)
        plain = workload.trace_pass()
        with Tracer() as tracer:
            traced = workload.trace_pass()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = _finite_problems(traced.estimates, name)
    if traced.estimates != plain.estimates:
        problems.append(f"{name}: traced estimates differ from untraced")
    metrics, workload_only = layer_metrics(tracer)
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["tracing.overhead_ms"] = (
        (traced.wall_s - plain.wall_s) * 1e3, "ms")
    return Outcome(metrics, workload_only, traced.attempted, traced.failed,
                   problems, traced.estimates, spans=tracer.spans)
