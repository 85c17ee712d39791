"""hurstkit benchmark: run one workload, print its metrics, check its outputs.

    python3 perfbench/run.py --workload battery-long --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that gives the per-layer metrics.
``--workload all`` runs the three workloads in turn.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).  Each run also writes a record,
with the environment and every estimate, under ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FINGERPRINT = ROOT / "perfbench" / "fingerprint.json"
DEFAULT_SEED = 42
DRIFT_FLAG = 1e-12  # ROADMAP aim 1: estimates may not move beyond this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # fixed, and no larger than the 2 cores of the reference VM

# the end-to-end metrics by the names they have on their own workload
SUMMARY = {
    "battery_s": ("battery-long", "pass_s"),
    "mc_estimates_per_s": ("montecarlo-fgn", "estimates_per_s"),
    "mc_rmse": ("montecarlo-fgn", "h_rmse"),
    "cli_estimate_p50_s": ("cli-roundtrip", "call_p50_s"),
    "cli_gen_s": ("cli-roundtrip", "gen_s"),
}


def environment():
    """Interpreter, numpy, BLAS, cores, CPU model and cache sizes."""
    import numpy  # not at the top: BLAS threads are pinned before it loads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level in (2, 3):
        size = None
        for index in range(4):
            cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
            try:
                if int((cache / "level").read_text()) == level:
                    size = (cache / "size").read_text().strip()
            except (OSError, ValueError):
                continue
        env[f"l{level}_cache"] = size
    return env


def h_drift(workload, estimates):
    """Largest relative change of any estimate from the stored fingerprint,
    or None when there is none for this workload."""
    if not FINGERPRINT.is_file():
        return None
    stored = json.loads(FINGERPRINT.read_text()).get(workload)
    if stored is None or len(stored) != len(estimates):
        return None
    return max(abs(a - b) / abs(b) if b else abs(a)
               for a, b in zip(estimates, stored))


def write_fingerprint(workload, estimates):
    data = json.loads(FINGERPRINT.read_text()) if FINGERPRINT.is_file() else {}
    data[workload] = estimates
    FINGERPRINT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def record_name(name, args):
    return f"{name}-seed{args.seed}-trace{args.trace}.json"


def _named(metrics):
    """name -> (value, unit) as JSON; a non-finite value becomes null."""
    return {k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()}


def run_one(workloads, name, args, sizes=None):
    """Run one workload; print its report; return (outcome, correct)."""
    sizes = sizes or workloads.Sizes()
    if args.trace:
        outcome = workloads.trace(name, args.seed, sizes)
    else:
        outcome = workloads.measure(name, args.seed, args.seconds, sizes)
    drift = h_drift(name, outcome.estimates) if args.seed == DEFAULT_SEED else None
    correct = not outcome.problems

    print(f"== {name}  seed={args.seed}  trace={args.trace}")
    for metric, (value, unit) in outcome.metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    for metric, (value, unit) in outcome.report.items():
        print(f"{metric} = {value:.6g} {unit}  (not in the result line)")
    print(f"failed_frac = {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} estimates)")
    if drift is None:
        print("h_drift_max_rel = n/a (fingerprint is for seed "
              f"{DEFAULT_SEED} only)")
    else:
        flag = f"  FLAG: above {DRIFT_FLAG:g}" if drift > DRIFT_FLAG else ""
        print(f"h_drift_max_rel = {drift:.3g}{flag}")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")

    path = workloads.OUT / record_name(name, args)
    path.parent.mkdir(exist_ok=True)
    if outcome.spans is not None:
        path.with_suffix(".spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "series"],
             "spans": outcome.spans}))
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": args.env,
        "metrics": _named(outcome.metrics), "report": _named(outcome.report),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "correct": correct, "problems": outcome.problems,
        "h_drift_max_rel": drift, "estimates": outcome.estimates,
        **outcome.record,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    if args.write_fingerprint and correct and args.seed == DEFAULT_SEED:
        write_fingerprint(name, outcome.estimates)
    return outcome, correct


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time per run (at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprint", action="store_true",
                        help=f"store the estimates as the seed-{DEFAULT_SEED} "
                             "fingerprint")
    return parser.parse_args(argv)


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": _named(metrics)})


def run_all(workloads, args):
    """Each workload in its own process, one after another, so that set-up
    and peak RSS stay per workload; then a summary under the names the
    metrics have on their own workload."""
    names = list(workloads.WORKLOADS)
    records = {}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.write_fingerprint:
            argv.append("--write-fingerprint")
        child = subprocess.run(argv, check=False)
        if child.returncode != 0:
            print(f"error: {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode
        records[name] = json.loads(
            (workloads.OUT / record_name(name, args)).read_text())

    def value(name, metric):
        record = records[name]
        entry = record["metrics"].get(metric) or record["report"][metric]
        return (math.nan if entry["value"] is None else entry["value"],
                entry["unit"])

    if args.trace:
        metrics = {f"{name}/{k}": value(name, k) for name in names
                   for k in [*records[name]["metrics"], *records[name]["report"]]}
    else:
        metrics = {label: value(w, m) for label, (w, m) in SUMMARY.items()}
        for name in names:
            metrics[f"setup_s/{name}"] = value(name, "setup_s")
            metrics[f"peak_rss_mb/{name}"] = value(name, "peak_rss_mb")
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    metrics["failed_frac"] = (failed / attempted, "1")
    print("== summary")
    for metric, (v, unit) in metrics.items():
        print(f"{metric} = {v:.6g} {unit}")
    print(result_line(all(r["correct"] for r in records.values()),
                      attempted, failed, metrics))
    return 0


def main(argv=None):
    if not (SRC / "hurstkit" / "__init__.py").is_file():
        print(f"error: no hurstkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import hurstkit
    if Path(hurstkit.__file__).resolve().parent != SRC / "hurstkit":
        print(f"error: imported hurstkit from {hurstkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    args = parse_args(argv, list(workloads.WORKLOADS))
    if args.workload == "all":
        return run_all(workloads, args)
    args.env = environment()
    print("environment: " + json.dumps(args.env))
    outcome, correct = run_one(workloads, args.workload, args)
    print(result_line(correct, outcome.attempted, outcome.failed,
                      outcome.metrics))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:  # before numpy loads, so BLAS starts pinned
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
