"""Independent recomputation routes used by the tests.

Everything here deliberately reimplements a quantity along a different path
from the library: different container layouts, different iteration orders,
or a closed formula instead of term-wise expansion.  Agreement between the
two routes is what the tests assert, so these functions must not delegate to
the package code they check.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

Terms = dict[tuple[int, ...], int]


def dict_multiply(a: Terms, b: Terms) -> Terms:
    """Sparse polynomial product, accumulating in sorted key order."""
    out: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for ka in sorted(a):
        for kb in sorted(b):
            out[tuple(x + y for x, y in zip(ka, kb))] += a[ka] * b[kb]
    return {k: c for k, c in out.items() if c}


def brute_force_vandermonde(nvars: int, power: int) -> Terms:
    """prod (z_j - z_k)^power by one linear factor at a time.

    Pairs are visited in reversed order and each factor is applied singly,
    the opposite of the binomial-per-pair route.
    """
    terms: Terms = {(0,) * nvars: 1}
    for j, k in reversed(list(itertools.combinations(range(nvars), 2))):
        for _ in range(power):
            nxt: defaultdict[tuple[int, ...], int] = defaultdict(int)
            for key, coeff in terms.items():
                up_j = list(key)
                up_j[j] += 1
                nxt[tuple(up_j)] += coeff
                up_k = list(key)
                up_k[k] += 1
                nxt[tuple(up_k)] -= coeff
            terms = {key: c for key, c in nxt.items() if c}
    return terms


def _cycle_sign(perm: tuple[int, ...]) -> int:
    """Permutation sign via cycle counting: (-1)^(n - number of cycles)."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def permutation_determinant(lam: tuple[int, ...]) -> Terms:
    """det(z_i^{lam_j}) expanded over all permutations."""
    n = len(lam)
    out: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for perm in itertools.permutations(range(n)):
        key = tuple(lam[perm[i]] for i in range(n))
        out[key] += _cycle_sign(perm)
    return {k: c for k, c in out.items() if c}


def _elementary_exponents(nvars: int, k: int) -> list[tuple[int, ...]]:
    keys = []
    for combo in itertools.combinations(range(nvars), k):
        exps = [0] * nvars
        for i in combo:
            exps[i] = 1
        keys.append(tuple(exps))
    return keys


def condensate_closed_form(
    n: int, p: int, alpha: Fraction = Fraction(1, 3)
) -> dict[tuple[int, ...], Fraction]:
    """Closed form of the two-quasihole condensate integral, sans pi^2.

    Derivation: expand each prod (xi - z_i) in elementary symmetric
    polynomials, apply the diagonal Gaussian moments, and collapse the
    binomial sum, giving

        (-1)^p p! alpha^{-(p+2)} sum_j (-1)^j e_{N-p+j}(z) e_{N-j}(z)

    over j in [max(0, p-N), min(N, p)].  The pi^2 factor carried by every
    term is left implicit.
    """
    prefactor = (
        Fraction((-1) ** p * math.factorial(p)) * Fraction(alpha) ** (-(p + 2))
    )
    out: defaultdict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    for j in range(max(0, p - n), min(n, p) + 1):
        term_sign = (-1) ** j
        for ka in _elementary_exponents(n, n - p + j):
            for kb in _elementary_exponents(n, n - j):
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] += prefactor * term_sign
    return {k: c for k, c in out.items() if c}


def density_by_partial_trace(v) -> list[list[float]]:
    """One-body density matrix with unit trace, first-quantised.

    Writes the state out as an antisymmetric wavefunction
    psi(i_1, ..., i_N) over all N! orderings of every configuration, with
    the sign of each ordering taken by cycle counting and norm 1, then takes
    the partial trace rho_{mu nu} = sum over the rest of
    psi(mu, rest) psi(nu, rest).  No second-quantised sign rule is shared
    with the library.
    """
    n = v.n_particles
    scale = 1 / math.sqrt(math.factorial(n))
    by_first: defaultdict[int, dict[tuple[int, ...], float]] = defaultdict(dict)
    for config, amp in v.terms.items():
        for perm in itertools.permutations(range(n)):
            ordered = tuple(config[p] for p in perm)
            by_first[ordered[0]][ordered[1:]] = _cycle_sign(perm) * amp.as_float * scale
    rho = [[0.0] * v.dim for _ in range(v.dim)]
    for mu, left in by_first.items():
        for nu, right in by_first.items():
            rho[mu][nu] = sum(value * right.get(rest, 0.0) for rest, value in left.items())
    return rho


def entropy_of(probabilities) -> float:
    """Shannon entropy in nats with 0 ln 0 = 0."""
    total = 0.0
    for p in probabilities:
        p = float(p)
        if p > 0:
            total -= p * math.log(p)
    return total
