"""Certify the printed measure digits against the exact occupations.

    python tests/certify_digits.py

Recomputes the measure of every point in tests/golden/grid_bits.txt from
its exact orbital occupations with decimal at 50 digits, whose ln is
correctly rounded, and checks that each printed .12g value is within one
unit of its 12th significant digit.  It lists the points whose text is not
the correctly rounded one and exits 1 unless every point is within one
unit and those points are exactly NOT_CORRECTLY_ROUNDED: four points near
a rounding tie, where S - ln N cancels.  tests/test_golden.py certifies the
values a slice of the grid prints.  Not collected by pytest.  It puts the
checkout's src/ on sys.path itself, so it runs from a plain checkout with
no PYTHONPATH.
"""

from __future__ import annotations

import sys
from decimal import Context, Decimal, localcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fqhent import family_expansion
from fqhent.lll import occupations
from oracles import diagonal_measure_bits

GRID_BITS = Path(__file__).resolve().parent / "golden" / "grid_bits.txt"
DIGITS = Context(prec=50)
NOT_CORRECTLY_ROUNDED = {
    ("laughlin", 2, 359),
    ("laughlin", 2, 389),
    ("laughlin", 3, 171),
    ("hierarchical_phi", 3, 211),
}


def exact_measure_bits(family: str, n: int, m: int) -> Decimal:
    """The measure in bits to 50 digits, from the exact occupations."""
    occupied, total = occupations(family_expansion(family, n, m))
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


def main() -> int:
    lines = GRID_BITS.read_text().splitlines()
    far, not_rounded = [], set()
    for line in lines:
        family, n, m, _, text = line.split()
        point = (family, int(n), int(m))
        units = units_off(text, exact_measure_bits(*point))
        if units >= 1:
            far.append(point)
        if units > Decimal("0.5"):
            not_rounded.add(point)
            print(f"{family} {n} {m} {text}: {units:.3f} units off")
    print(f"{len(lines)} points; {len(far)} a unit or more off, {len(not_rounded)} not correctly rounded")
    return 0 if not far and not_rounded == NOT_CORRECTLY_ROUNDED else 1


if __name__ == "__main__":
    sys.exit(main())
