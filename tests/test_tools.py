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
