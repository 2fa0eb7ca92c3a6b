"""The squeeze at the size budget, against the loop over all position pairs.

    python tests/squeeze_at_budget.py

For the largest laughlin state the budget allows at each N from 3 to 9,
checks that vandermonde_expansion and oracles.squeeze_by_position_pairs
give the same terms in the same order and that the squares of the
coefficients sum to Dyson's constant, and prints each route's seconds.
Then it measures the state by both routes from the same expansion: the
occupations route that the CLI and the sweeps take (figures.family_report)
and the public FockVector route (modified_measure(laughlin(N, m))), checks
that their entropies have the same bits, and prints each route's seconds.
Then, at the largest hierarchical_phi state the budget allows at each N
from 3 to 7, it multiplies the condensate e_{N-1}(z_1^2, ..., z_N^2) into
the Vandermonde expansion by times_elementary_squares and by
oracles.pieri_by_position_map, checks that they give the same terms in
the same order, and prints each route's seconds.  Exits nonzero on any
mismatch.  Not collected by pytest: it takes 5-10 s on a 2-core VM.  It
puts the checkout's src/ and tests/ on sys.path itself, so it runs from
a plain checkout with no PYTHONPATH.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import oracles
from fqhent.figures import family_report
from fqhent.measure import modified_measure
from fqhent.poly import vandermonde_expansion
from fqhent.states import family_expansion, family_factors, laughlin

STATES = [(3, 255), (4, 39), (5, 13), (6, 7), (7, 5), (8, 3), (9, 3)]
PIERI_STATES = [(3, 253), (4, 37), (5, 13), (6, 7), (7, 3)]


def main() -> int:
    failures = 0
    for n, m in STATES:
        family_factors("laughlin", n, m)  # within the budget
        start = time.perf_counter()
        expansion = vandermonde_expansion(n, m)
        squeeze_s = time.perf_counter() - start
        start = time.perf_counter()
        expected = oracles.squeeze_by_position_pairs(n, m)
        oracle_s = time.perf_counter() - start
        same = list(expansion.terms.items()) == list(expected.terms.items())
        dyson = sum(c * c for c in expansion.terms.values()) == oracles.dyson_norm(n, m)
        # both measure routes read the expansion from the per-process memo
        family_expansion("laughlin", n, m)
        start = time.perf_counter()
        report = family_report("laughlin", n, m)
        report_s = time.perf_counter() - start
        start = time.perf_counter()
        public = modified_measure(laughlin(n, m))
        public_s = time.perf_counter() - start
        bits = report.entropy_nats.hex() == public.entropy_nats.hex()
        failures += not (same and dyson and bits)
        print(
            f"laughlin({n}, {m}): {len(expansion):,} determinants,"
            f" squeeze {squeeze_s:.3f} s, oracle {oracle_s:.3f} s,"
            f" same terms and order {same}, Dyson's identity {dyson};"
            f" measure from occupations {report_s:.3f} s, from the Fock vector"
            f" {public_s:.3f} s, same entropy bits {bits}"
        )
    for n, m in PIERI_STATES:
        family_factors("hierarchical_phi", n, m)  # within the budget
        expansion = family_expansion("laughlin", n, m)
        start = time.perf_counter()
        product = expansion.times_elementary_squares(n - 1)
        kernel_s = time.perf_counter() - start
        start = time.perf_counter()
        expected = oracles.pieri_by_position_map(expansion, n - 1)
        oracle_s = time.perf_counter() - start
        same = list(product.terms.items()) == list(expected.terms.items())
        failures += not same
        print(
            f"hierarchical_phi({n}, {m}): {len(expansion):,} determinants times"
            f" e_{n - 1}(z^2) make {len(product):,}, kernel {kernel_s:.3f} s,"
            f" oracle {oracle_s:.3f} s, same terms and order {same}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
