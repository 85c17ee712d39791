"""Smoke test of the benchmark's own code at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced, and checks that each
metric BENCHMARK.json names is printed with its unit and lands in the
result line, and that the estimates pass the correctness checks.
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(battery_length=5000, mc_length=3000, mc_replicates=2,
                       cli_length=3000, cold_length=3000)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\S+) = (\S+) (\S+)(  .*)?$")


def _args(trace):
    return argparse.Namespace(seed=7, seconds=0.0, trace=trace,
                              write_fingerprint=False, env={})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_its_unit(name, trace, capsys):
    outcome, correct = run.run_one(workloads, name, _args(trace), TINY)
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        match = LINE.match(line)
        if match:
            printed[match[1]] = match[3]

    assert correct, outcome.problems
    assert outcome.attempted > 0 and outcome.failed == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(outcome.metrics) == {m["name"] for m in wanted}
    for metric in wanted:
        assert printed[metric["name"]] == metric["unit"]
        assert outcome.metrics[metric["name"]][1] == metric["unit"]
    if not trace:  # the --workload all summary reads these
        for workload, metric in run.SUMMARY.values():
            assert workload != name or metric in printed
    result = json.loads(run.result_line(correct, outcome.attempted,
                                        outcome.failed, outcome.metrics))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(outcome.metrics)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "battery-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
