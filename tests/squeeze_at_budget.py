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
the same order, and prints each route's seconds.  Last, over a fixed pool
of 2,000 hand-built states of several total angular momenta, it builds
the density matrix by the general contraction (measure.one_body_density)
and by oracles.density_by_amplitude_products, checks that they give the
same entries in the same key order, of the same types and values, and
prints each route's seconds.  Exits nonzero on any mismatch.  Not
collected by pytest: it takes 5-10 s on a 2-core VM.  It
puts the checkout's src/ and tests/ on sys.path itself, so it runs from
a plain checkout with no PYTHONPATH.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import oracles
from fqhent.figures import family_report
from fqhent.lll import FockVector
from fqhent.measure import modified_measure, one_body_density
from fqhent.poly import vandermonde_expansion
from fqhent.states import family_expansion, family_factors, laughlin

STATES = [(3, 255), (4, 39), (5, 13), (6, 7), (7, 5), (8, 3), (9, 3)]
PIERI_STATES = [(3, 253), (4, 37), (5, 13), (6, 7), (7, 3)]
MIXED_STATES = 2000


def mixed_state_pool(count: int = MIXED_STATES) -> list[FockVector]:
    """count states from one fixed seed, each of at least two total momenta.

    N is 2, 3 or 4 over N + 1 to 7 orbitals, in turn; each state occupies
    from two configurations up to all of them, with weights of magnitude
    1-20 and random signs, so most amplitude products are irrational.
    """
    rng = random.Random("squeeze-at-budget:mixed-states")
    cells = [(n, dim) for n in (2, 3, 4) for dim in range(n + 1, 8)]
    pool = []
    for i in range(count):
        n, dim = cells[i % len(cells)]
        combos = list(itertools.combinations(range(dim), n))
        size = rng.randint(2, len(combos))
        configs = rng.sample(combos, size)
        while len({sum(c) for c in configs}) < 2:
            configs = rng.sample(combos, size)
        pool.append(FockVector(n, dim, {c: rng.choice((1, -1)) * rng.randint(1, 20) for c in configs}))
    return pool


def same_entries(rho, diag, off_diagonal) -> bool:
    """True iff the matrix has the oracle's entries: key order, type and value."""
    return (
        rho.diag == diag
        and list(rho.off_diagonal) == list(off_diagonal)
        and all(
            (type(rho.off_diagonal[key]), rho.off_diagonal[key]) == (type(entry), entry)
            for key, entry in off_diagonal.items()
        )
    )


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
    pool = mixed_state_pool()
    start = time.perf_counter()
    kernel = [one_body_density(v) for v in pool]
    kernel_s = time.perf_counter() - start
    start = time.perf_counter()
    expected = [oracles.density_by_amplitude_products(v) for v in pool]
    oracle_s = time.perf_counter() - start
    differ = sum(not same_entries(rho, *entries) for rho, entries in zip(kernel, expected))
    failures += differ
    print(
        f"mixed states: {len(pool):,} of several total momenta,"
        f" {sum(len(rho.off_diagonal) for rho in kernel):,} off-diagonal entries,"
        f" contraction {kernel_s:.3f} s, oracle {oracle_s:.3f} s,"
        f" {differ} with different entries"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
