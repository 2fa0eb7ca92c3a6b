"""The N = 2-9 grid and 3,768 points at N = 10-512, each built once: bits, digest, digits.

    python tests/grid.py [--jobs J] OUT
    diff tests/golden/grid_bits.txt OUT/grid_bits.txt    # and grid_digests, grid_large

Each point is built once, in one of J spawned workers, or in process when J
is 1.  From that build it takes measure_bits through evaluate_point, the
route `table` takes; the determinant count and SHA-256 of the terms sorted
by exponent tuple, one "exponents|signed coefficient" line each, which pin
the signs the measure cannot see; and the units of its 12th digit by which
the .12g text is off the measure of the same occupations in decimal at 50
digits.  GRID's 891 points at N = 2-9 go to grid_bits.txt and
grid_digests.txt; the run exits 1 unless none is a unit off and exactly
NOT_CORRECTLY_ROUNDED are over half a unit off.  The 3,768 points at
N = 10-512 that allowed() selects go to grid_large.txt with all three,
its units off a report, not a failure.  tests/test_golden.py checks a slice
of each file, and grid_lines ties the bits to `table --format json`.  About
39 s with --jobs 2 and 75 s with --jobs 1 on a 2-core VM.  Not collected by
pytest; it puts src/ on sys.path itself.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from decimal import Context, Decimal, localcontext
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fqhent import evaluate_point, family_expansion, figures
from fqhent.cli import EXIT_OK, main
from fqhent.lll import occupations
from fqhent.states import MAX_DETERMINANTS, MAX_ORBITALS, family_factors
from oracles import diagonal_measure_bits

# the largest allowed m of each family at N = 2..9; chi is zero past 2N + 1
GRID = {
    "laughlin": dict(zip(range(2, 10), (511, 255, 39, 13, 7, 5, 3, 3))),
    "hierarchical_phi": dict(zip(range(2, 10), (509, 253, 37, 13, 7, 3, 3, 1))),
    "chi": {n: 2 * n + 1 for n in range(2, 10)},
}
LARGE_N = range(10, MAX_ORBITALS + 1)
DIGITS = Context(prec=50)
NOT_CORRECTLY_ROUNDED = {  # near a rounding tie, where S - ln N cancels
    ("laughlin", 2, 359), ("laughlin", 2, 389), ("laughlin", 3, 171), ("hierarchical_phi", 3, 211)
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


def allowed(family: str, n: int) -> list[int]:
    """The odd m grid_large.txt holds at N = n, each one family_factors allows.
    laughlin's and hierarchical_phi's orbitals and determinants grow with m
    (lam -> lam + 2 delta keeps dominance), so their scan stops at the first
    refusal.  chi is held only where C(N, (m - 1)/2) <= MAX_DETERMINANTS, the
    condensate-subset rule family_factors had before the Pieri product made
    only the subsets that survive.  That retired rule only keeps the file at
    its 3,768 points: family_factors walks no chi root, and the chi points
    past the rule are checked by sample in tests/test_states.py."""
    found = []
    for m in range(1, 2 * n + 2 if family == "chi" else MAX_ORBITALS, 2):
        if family == "chi" and math.comb(n, (m - 1) // 2) > MAX_DETERMINANTS:
            continue
        try:
            family_factors(family, n, m)
        except ValueError:
            if family == "chi":
                continue
            break
        found.append(m)
    return found


def digest(terms: dict) -> str:
    """The determinant count and the SHA-256 of the sorted signed terms.

    Sorted, the terms' order does not show; TestPieriOracle::test_every_k and
    TestChiPastTheSubsetRule::test_terms_and_order_match_the_subset_loop pin it.
    """
    sha = hashlib.sha256()
    for lam, coeff in sorted(terms.items()):
        sha.update(f"{','.join(map(str, lam))}|{coeff}\n".encode())
    return f"{len(terms)} {sha.hexdigest()}"


def digest_line(family: str, n: int, m: int) -> str:
    """family, N, m, the determinant count and the SHA-256 of the sorted signed terms."""
    return f"{family} {n} {m} {digest(family_expansion(family, n, m).terms)}"


def exact_measure_bits(family: str, n: int, m: int, counts=None) -> Decimal:
    """The measure in bits to 50 digits, from the exact occupations (built unless given)."""
    occupied, total = counts or occupations(family_expansion(family, n, m))
    return diagonal_measure_bits(occupied, n * total, n, DIGITS.prec)


def units_off(text: str, exact: Decimal) -> Decimal:
    """|text - exact| in units of the 12th significant digit of text.

    A correctly rounded text is at most half a unit off.  A printed 0 is
    0 units off an exact 0 and infinitely many off anything else.
    """
    printed = Decimal(text)
    if not printed:
        return Decimal(0 if not exact else "Infinity")
    with localcontext(DIGITS):
        return abs(printed - exact).scaleb(11 - printed.adjusted())


def measured(family: str, n: int, m: int) -> tuple[str, str, Decimal]:
    """A point's bits and .12g text, its digest and the text's units off, from one
    build: evaluate_point measures it, as `table` does, and its occupations call is
    tapped for the expansion and the occupations.  The point must not be in its memo."""
    read = []
    def tap(expansion):
        read.append((expansion, occupations(expansion)))
        return read[-1][1]
    with mock.patch.object(figures, "occupations", tap):
        bits = evaluate_point(family, n, m).measure_bits
    [(expansion, counts)] = read
    text = f"{bits:.12g}"
    exact = exact_measure_bits(family, n, m, counts)
    return f"{bits.hex()} {text}", digest(expansion.terms), units_off(text, exact)


def large_header(units: dict[tuple[str, int, int], Decimal]) -> str:
    """grid_large.txt's header: its columns, and its points a unit or more off."""
    far = Counter(
        f"{f} m {'> N' if m > n else f'= {m}'}" for (f, n, m), off in units.items() if off >= 1
    )
    near = sum(Decimal("0.5") < off < 1 for off in units.values())
    worst = max(units, key=units.get)
    return "".join(f"# {line}\n" for line in (
        "family N m measure_bits.hex() .12g determinants sha256 units-off, at every point"
        " family_factors allows at N = 10-512",
        "units-off is the .12g text's distance from the measure at 50 digits, in units of its"
        " 12th digit: a report, not a failure, since S - ln N cancels at large N",
        f"{len(units)} points; {sum(far.values())} a unit or more off: "
        + ", ".join(f"{count} {group}" for group, count in far.items()),
        f"{near} more are within a unit but not correctly rounded; the worst is"
        f" {' '.join(map(str, worst))}, {units[worst]:.3f} units off",
    ))


def run(jobs: int, out: Path) -> int:
    """Write the three files into out; 1 unless the N = 2-9 certificate holds."""
    grid = [(family, n, m) for family, largest in GRID.items()
            for n, m_max in largest.items() for m in range(1, m_max + 1, 2)]
    large = [(family, n) for family in GRID for n in LARGE_N]
    spawn = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(jobs, mp_context=spawn) if jobs > 1 else contextlib.nullcontext()
    with pool:
        each = functools.partial(pool.map, chunksize=8) if jobs > 1 else map
        beyond = [(f, n, m) for (f, n), ms in zip(large, each(allowed, *zip(*large))) for m in ms]
        measures = dict(zip(grid + beyond, each(measured, *zip(*grid + beyond))))

    def lines(points, fields) -> str:
        return "".join(f"{f} {n} {m} {fields(*measures[f, n, m])}\n" for f, n, m in points)

    (out / "grid_bits.txt").write_text(lines(grid, lambda bits, sha, off: bits))
    (out / "grid_digests.txt").write_text(lines(grid, lambda bits, sha, off: sha))
    (out / "grid_large.txt").write_text(
        large_header({point: measures[point][2] for point in beyond})
        + lines(beyond, lambda bits, sha, off: f"{bits} {sha} {off:.3f}")
    )
    not_rounded = {point: measures[point] for point in grid if measures[point][2] > Decimal("0.5")}
    for (family, n, m), (bits, _, off) in not_rounded.items():
        print(f"{family} {n} {m} {bits.split()[1]}: {off:.3f} units off")
    far = sum(off >= 1 for _, _, off in not_rounded.values())
    print(f"{len(grid)} points; {far} a unit or more off, {len(not_rounded)} not correctly rounded")
    return 0 if not far and set(not_rounded) == NOT_CORRECTLY_ROUNDED else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("out", type=Path, help="the directory the three files are written to")
    args = parser.parse_args()
    sys.exit(run(args.jobs, args.out))
