"""The signed expansion of every nonzero point the size budget allows at N = 2-9.

    python tests/grid_digests.py [--jobs J] > digests.txt
    diff tests/golden/grid_digests.txt digests.txt

For each point of tests/grid_bits.py's GRID it builds the state in the
determinant basis (family_expansion) and prints one line: family, N, m, the
number of determinants and the SHA-256 of its terms, sorted by exponent
tuple, one "exponents|signed coefficient" line each.  The grid golden's
measure reads c_mu^2 alone, so it cannot see a coefficient's sign; these
digests can.  tests/golden/grid_digests.txt holds the 891 lines;
tests/test_golden.py checks a slice of them, and the whole grid takes about
20 s serially on a 2-core VM, 11-13 s with --jobs 2, whose J spawned worker
processes each keep their own memo.  Not collected by pytest.  It puts the
checkout's src/ on sys.path itself, so it runs from a plain checkout with no
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fqhent import family_expansion
from grid_bits import GRID


def digest_line(family: str, n: int, m: int) -> str:
    """family, N, m, the determinant count and the SHA-256 of the sorted signed terms."""
    terms = family_expansion(family, n, m).terms
    digest = hashlib.sha256()
    for lam, coeff in sorted(terms.items()):
        digest.update(f"{','.join(map(str, lam))}|{coeff}\n".encode())
    return f"{family} {n} {m} {len(terms)} {digest.hexdigest()}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    jobs = parser.parse_args().jobs
    # every grid point, in the order of tests/golden/grid_bits.txt
    points = [
        (family, n, m)
        for family, largest in GRID.items()
        for n, m_max in largest.items()
        for m in range(1, m_max + 1, 2)
    ]
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            lines = list(pool.map(digest_line, *zip(*points), chunksize=8))
    else:
        lines = [digest_line(*point) for point in points]
    print(*lines, sep="\n")
