"""The three CLI subcommands end to end, in one temp directory.

Writes a fractional-noise file with `gen-fgn`, estimates it back with
`estimate`, and runs a miniature `bench` — the same entry points the shell
command `hurstkit` exposes.  `estimate` keeps parsed series under
$XDG_CACHE_HOME/hurstkit, which the demo points into its temp directory, so
the user's own cache is left alone: the first `estimate` parses the file and
stores the array there, and the next two read it back.
"""

import os
import tempfile
from pathlib import Path

from hurstkit.cli import main

with tempfile.TemporaryDirectory() as tmp:
    os.environ["XDG_CACHE_HOME"] = str(Path(tmp) / "cache")
    series = str(Path(tmp) / "path.txt")
    outdir = str(Path(tmp) / "bench")

    print("$ hurstkit gen-fgn --hurst 0.7 --length 20000 --seed 7 --output path.txt")
    assert main(["gen-fgn", "--hurst", "0.7", "--length", "20000",
                 "--seed", "7", "--output", series]) == 0
    head = Path(series).read_text().splitlines()
    print(f"  wrote {len(head)} lines; first two: {head[0]} {head[1]}\n")

    for method in ("dfa", "lw", "lssd"):
        print(f"$ hurstkit estimate --input path.txt --method {method}")
        assert main(["estimate", "--input", series, "--method", method]) == 0
    entries = list((Path(tmp) / "cache" / "hurstkit").glob("*.npy"))
    print(f"  the cache holds {len(entries)} parsed series for the three calls")

    print("\n$ hurstkit bench fgn --replicates 3 --length 5000 --out bench/")
    assert main(["bench", "fgn", "--replicates", "3", "--length", "5000",
                 "--out", outdir]) == 0
    matrix = Path(outdir) / "fgn_matrix.tsv"
    print("\nmatrix TSV:")
    print(matrix.read_text())

    # exit codes: 1 for argument problems, 2 for data problems
    bad = str(Path(tmp) / "flat.txt")
    Path(bad).write_text("1.0\n" * 500)
    print("$ hurstkit estimate --input flat.txt --method ghe")
    code = main(["estimate", "--input", bad, "--method", "ghe"])
    print(f"  exit code {code} (degenerate data)")
    code = main(["estimate", "--input", series, "--method", "nope"])
    print(f"  exit code {code} (unknown method)")
