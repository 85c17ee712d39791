#!/usr/bin/env python3
"""Summarise how two outputs of tools/estimate_digest.py differ.

    PYTHONPATH=src python3 tools/estimate_digest.py > before.txt
    (change the code)
    PYTHONPATH=src python3 tools/estimate_digest.py > after.txt
    python3 tools/digest_diff.py before.txt after.txt

A record is one case, method and option set.  The report gives the number
of records whose outcome changed and how many of them each case holds;
every outcome that flipped between an estimate and an error; and, per
method and option set, the largest relative change |H_after - H_before| /
|H_before| and the largest absolute change |H_after - H_before| over the
records that are an estimate on both sides, each with the case where it
occurs.  The absolute column keeps a rounding move of an H near 0 from
reading as a large one: 5e-15 on H = -0.0026 is 2e-12 relative.  A record
found in one file only is listed as such.
A reader that stops early, as `| grep -q '^0 of '` or `| head` do, ends the
report with exit status 0.
"""

import os
import re
import sys
from collections import Counter

_HURST = re.compile(r"'hurst': ([^,}]+)")


def read_digest(path):
    """{(case, method, options): outcome} in the file's order."""
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            case, method, options, outcome = line.rstrip("\n").split("\t", 3)
            records[(case, method, options)] = outcome
    return records


def hurst_of(outcome):
    """H of an estimate record; None for an error record."""
    if not outcome.startswith("{"):
        return None
    return float(_HURST.search(outcome).group(1))


def report(before, after):
    """The report's lines for two digests read by read_digest."""
    keys = [key for key in before if key in after]
    changed = [key for key in keys if before[key] != after[key]]
    lines = [f"{len(changed)} of {len(keys)} records changed"]
    lines += [f"  {case}: {count}"
              for case, count in Counter(key[0] for key in changed).items()]

    alone = [key for key in before if key not in after]
    alone += [key for key in after if key not in before]
    if alone:
        lines.append(f"{len(alone)} records in one file only")
        lines += ["  " + " ".join(key) for key in alone]

    flips = [key for key in changed
             if (hurst_of(before[key]) is None) != (hurst_of(after[key]) is None)]
    lines.append(f"{len(flips)} outcomes flipped between an estimate and an error")
    for key in flips:
        lines.append("  " + " ".join(key))
        lines.append(f"    before: {before[key]}")
        lines.append(f"    after:  {after[key]}")

    worst = {}  # (method, options) -> [(relative, case), (absolute, case)]
    for key in keys:
        h_before, h_after = hurst_of(before[key]), hurst_of(after[key])
        if h_before is None or h_after is None:
            continue
        delta = abs(h_after - h_before)
        rel = delta / abs(h_before) if h_before else delta
        largest = worst.setdefault(key[1:], [(0.0, None), (0.0, None)])
        for i, change in enumerate((rel, delta)):
            if change > largest[i][0]:
                largest[i] = (change, key[0])
    lines.append("largest |dH| per method and option set, "
                 "relative and absolute:")
    for (method, options), changes in worst.items():
        rel, delta = (f"{change:.2g}" + (f" ({case})" if change else "")
                      for change, case in changes)
        lines.append(f"  {method:<5} {options:<20} {rel:<32} {delta}".rstrip())
    return lines


def main(argv):
    if len(argv) != 3:
        print("usage: digest_diff.py BEFORE AFTER", file=sys.stderr)
        return 2
    lines = report(read_digest(argv[1]), read_digest(argv[2]))
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader has what it wanted; stdout goes to devnull so that the
        # flush at exit does not meet the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
