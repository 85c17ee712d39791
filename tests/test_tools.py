"""The scripts under tools/ that CI runs as gates."""

import subprocess
import sys
from pathlib import Path

DIGEST_DIFF = Path(__file__).resolve().parents[1] / "tools" / "digest_diff.py"


def test_digest_diff_ends_cleanly_when_its_reader_stops_early(tmp_path):
    # a report far longer than a pipe holds: every record sits in one file
    # only, on a line of its own, so the differ still writes after the
    # reader has closed the pipe, as `| head -1` or `| grep -q` do
    before = tmp_path / "before.txt"
    before.write_text("".join(f"case{i}\tdfa\t{{}}\tValueError: x\n"
                              for i in range(100000)))
    after = tmp_path / "after.txt"
    after.write_text("")
    run = subprocess.Popen([sys.executable, DIGEST_DIFF, before, after],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert run.stdout.readline() == b"0 of 0 records changed\n"
    run.stdout.close()
    stderr = run.stderr.read()
    run.stderr.close()
    assert run.wait(timeout=60) == 0
    assert stderr == b""


def estimate_record(case, method, options, hurst):
    return (f"{case}\t{method}\t{options}\t{{'method': '{method}', "
            f"'hurst': {hurst!r}, 'config': {{}}}}\n")


def test_digest_diff_gives_the_largest_relative_and_absolute_moves(tmp_path):
    # an H near 0 that moves by rounding reads large relative to itself and
    # small in absolute terms; a larger absolute move on a larger H reads
    # the other way, so each column names its own case
    before = tmp_path / "before.txt"
    after = tmp_path / "after.txt"
    before.write_text(
        estimate_record("near0", "hm", "{}", -0.0026)
        + estimate_record("big", "hm", "{}", 0.7)
        + estimate_record("same", "dfa", "{}", 0.5)
        + "err\thm\t{}\tDomainError: x\n")
    after.write_text(
        estimate_record("near0", "hm", "{}", -0.0026 + 5e-15)
        + estimate_record("big", "hm", "{}", 0.7 + 1e-13)
        + estimate_record("same", "dfa", "{}", 0.5)
        + "err\thm\t{}\tDomainError: y\n")
    run = subprocess.run([sys.executable, DIGEST_DIFF, before, after],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0 and run.stderr == ""
    lines = run.stdout.splitlines()
    assert lines[0] == "3 of 4 records changed"
    at = lines.index("largest |dH| per method and option set, "
                     "relative and absolute:")
    hm, dfa = (line.split() for line in lines[at + 1:])
    assert hm[:2] == ["hm", "{}"] and hm[3:] == ["(near0)", "1e-13", "(big)"]
    assert float(hm[2]) == float(f"{5e-15 / 0.0026:.2g}")
    assert dfa == ["dfa", "{}", "0", "0"]
