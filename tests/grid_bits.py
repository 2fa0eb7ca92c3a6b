"""The measure of every nonzero point the size budget allows at N = 2-9.

    python tests/grid_bits.py [--jobs J] > grid.txt
    diff tests/golden/grid_bits.txt grid.txt

For each family and N it runs `fqhent table --format json` up to the
largest m the budget allows (GRID) and prints one line per nonzero point:
family, N, m, measure_bits as float.hex() and the .12g text the CSV prints.
tests/golden/grid_bits.txt holds the 891 lines; tests/test_golden.py checks
a slice of them, and the whole grid takes 20-30 s on a 2-core VM.  Not
collected by pytest.  It puts the checkout's src/ on sys.path itself, so it
runs from a plain checkout with no PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fqhent.cli import EXIT_OK, main

# the largest allowed m of each family at N = 2..9; chi is zero past 2N + 1
GRID = {
    "laughlin": dict(zip(range(2, 10), (511, 255, 39, 13, 7, 5, 3, 3))),
    "hierarchical_phi": dict(zip(range(2, 10), (509, 253, 37, 13, 7, 3, 3, 1))),
    "chi": {n: 2 * n + 1 for n in range(2, 10)},
}


def grid_lines(family: str, n: int, m_max: int, jobs: int = 1) -> list[str]:
    """The lines of the nonzero points of `table --format json` up to m_max."""
    argv = ["table", "--family", family, "--n", str(n), "--m-max", str(m_max)]
    argv += ["--format", "json", "--jobs", str(jobs)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return [
        f"{row['family']} {row['N']} {row['m']} {bits.hex()} {bits:.12g}"
        for row in json.loads(out.getvalue())
        if (bits := row["S_f_bits"]) is not None
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    jobs = parser.parse_args().jobs
    for family, largest in GRID.items():
        for n, m_max in largest.items():
            print(*grid_lines(family, n, m_max, jobs), sep="\n")
