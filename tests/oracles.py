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
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from fqhent.lll import amplitude_product
from fqhent.poly import SlaterExpansion, _dominated_prefixes

Terms = dict[tuple[int, ...], int]

PRIME = 2**61 - 1
"""Modulus of the point evaluations: a Mersenne prime."""


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


def invariant_under_all_swaps(poly, sign: int) -> bool:
    """The all-pairs definition: every transposition multiplies poly by sign.

    Each swap is applied to the exponent tuples of the term map directly.
    """
    terms = dict(poly.terms)
    for i, j in itertools.combinations(range(poly.nvars), 2):
        for key, coeff in terms.items():
            swapped = list(key)
            swapped[i], swapped[j] = key[j], key[i]
            if terms.get(tuple(swapped)) != sign * coeff:
                return False
    return True


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


def condensate_by_expansion(
    n: int, p: int, alpha: Fraction = Fraction(1, 3)
) -> dict[tuple[int, ...], Fraction]:
    """Two-quasihole condensate integral by full expansion, sans pi^2.

    Multiplies prod_i (xi1 - z_i)(xi2 - z_i) out one linear factor at a time
    as a polynomial in z_1..z_N, xi1, xi2, expands (xi1* - xi2*)^p term by
    term, and integrates every xi-monomial against every binomial term with
    the diagonal Gaussian moment pi a! alpha^{-(a+1)}.  No elementary
    symmetric polynomial appears.
    """
    alpha = Fraction(alpha)

    def moment(a: int, b: int) -> Fraction:
        return Fraction(math.factorial(a)) / alpha ** (a + 1) if a == b else Fraction(0)

    holo: dict[tuple[int, ...], int] = {(0,) * (n + 2): 1}
    for i in range(n):
        for xi in (n, n + 1):
            nxt: defaultdict[tuple[int, ...], int] = defaultdict(int)
            for key, coeff in holo.items():
                up_xi = list(key)
                up_xi[xi] += 1
                nxt[tuple(up_xi)] += coeff
                up_z = list(key)
                up_z[i] += 1
                nxt[tuple(up_z)] -= coeff
            holo = {key: c for key, c in nxt.items() if c}
    out: defaultdict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    for key, coeff in holo.items():
        for j in range(p + 1):
            weight = moment(key[n], p - j) * moment(key[n + 1], j)
            out[key[:n]] += math.comb(p, j) * (-1) ** j * coeff * weight
    return {k: c for k, c in out.items() if c}


def _shift_determinants(
    terms: Terms, step: int, weight: Callable[[tuple[int, ...], int], int]
) -> Terms:
    """Sum over j of weight(lam, j) a_{lam + step e_j}, dropping repeats.

    A strictly decreasing lam stays strictly decreasing under a unit shift
    of one entry unless the shift repeats an entry, so no determinant needs
    re-sorting and no sign changes.
    """
    out: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for lam, coeff in terms.items():
        for j in range(len(lam)):
            moved = lam[:j] + (lam[j] + step,) + lam[j + 1 :]
            if len(set(moved)) < len(moved):
                continue
            out[moved] += weight(lam, j) * coeff
    return {k: c for k, c in out.items() if c}


def lowering(terms: Terms) -> Terms:
    """L^- = sum_i d/dz_i on a determinant expansion: a_lam -> sum_j lam_j a_{lam-e_j}."""
    return _shift_determinants(terms, -1, lambda lam, j: lam[j])


def raising(terms: Terms, n_phi: int) -> Terms:
    """L^+ = sum_i (z_i^2 d/dz_i - n_phi z_i): a_lam -> sum_j (lam_j - n_phi) a_{lam+e_j}."""
    return _shift_determinants(terms, 1, lambda lam, j: lam[j] - n_phi)


def fock_weights_by_orbital_norms(
    nvars: int, terms: Terms
) -> tuple[Terms, int, int]:
    """(weights, total, dim) of the Fock vector of a determinant expansion.

    Takes the defining formula whole: each determinant c det(z_i^{lam_j})
    weighs c^2 prod_j 2^(lam_j + 1) lam_j!, signed by c times the parity
    (-1)^(N(N-1)/2) of reversing lam, and the weights are then divided by
    their gcd.  No factor common to every configuration is left out.
    """
    dim = 1 + max(max(lam) for lam in terms)
    norms = [2 ** (mu + 1) * math.factorial(mu) for mu in range(dim)]
    reversal = -1 if nvars * (nvars - 1) // 2 % 2 else 1
    weights: Terms = {}
    for lam, coeff in terms.items():
        weight = coeff * coeff
        for mu in lam:
            weight *= norms[mu]
        weights[tuple(sorted(lam))] = weight if reversal * coeff > 0 else -weight
    common = math.gcd(*weights.values())
    weights = {config: w // common for config, w in weights.items()}
    return weights, sum(map(abs, weights.values())), dim


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
    for config, weight in v.weights.items():
        amp = math.copysign(math.sqrt(abs(weight) / v.total), weight)
        for perm in itertools.permutations(range(n)):
            ordered = tuple(config[p] for p in perm)
            by_first[ordered[0]][ordered[1:]] = _cycle_sign(perm) * amp * scale
    rho = [[0.0] * v.dim for _ in range(v.dim)]
    for mu, left in by_first.items():
        for nu, right in by_first.items():
            rho[mu][nu] = sum(value * right.get(rest, 0.0) for rest, value in left.items())
    return rho


def density_by_amplitude_products(v) -> tuple[tuple, dict]:
    """(diag, off_diagonal) of the one-body density matrix, one product at a time.

    The bit-identity reference for measure.one_body_density: holes are
    sliced config tuples, every pair's amplitude product is an exact
    Fraction or a float from amplitude_product, and each off-diagonal entry
    is their running sum, Fraction + Fraction staying exact and the first
    float turning it into a float.  The kernel must give the same entries,
    of the same types, with the same keys in the same order.
    """
    n, total = v.n_particles, v.total
    occupied = [0] * v.dim
    holes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    pairs = not v.is_homogeneous()
    for config, weight in v.weights.items():
        for i, mode in enumerate(config):
            occupied[mode] += abs(weight)
            if pairs:
                hole = config[:i] + config[i + 1 :]
                holes.setdefault(hole, []).append((mode, -weight if i % 2 else weight))
    sums: dict[tuple[int, int], Fraction | float] = {}
    for group in holes.values():
        for k, (mu, w_mu) in enumerate(group):
            for nu, w_nu in group[k + 1 :]:
                key = (mu, nu) if mu < nu else (nu, mu)
                sums[key] = sums.get(key, 0) + amplitude_product(w_mu, w_nu, total)
    diag = tuple(Fraction(s, n * total) for s in occupied)
    return diag, {key: e / n for key, e in sums.items() if e != 0}


def occupations_from_unnormalized(dim: int, terms) -> list[Fraction]:
    """Occupation of each orbital, in Fractions, from {config: (sign, squared magnitude)}.

    Each configuration's squared magnitude is normalised on its own and
    added to every orbital it occupies; no integer weights are involved.
    """
    total = sum((Fraction(mag) for _, mag in terms.values()), Fraction(0))
    out = [Fraction(0)] * dim
    for config, (_, mag) in terms.items():
        for mode in config:
            out[mode] += Fraction(mag) / total
    return out


def measure_bits_decimal(v, digits: int = 60) -> Decimal:
    """The measure in bits of a state of one total angular momentum, in decimal.

    Such a state's density matrix is diagonal: orbital mu's entry is the
    Fraction of the absolute weights of the configurations occupying mu over
    N times their sum, which :func:`diagonal_measure_bits` takes from there.
    """
    weights = v.weights
    if len({sum(config) for config in weights}) > 1:
        raise ValueError("configurations differ in total angular momentum")
    occupied: dict[int, int] = defaultdict(int)
    for config, weight in weights.items():
        for mode in config:
            occupied[mode] += abs(weight)
    norm = v.n_particles * sum(abs(weight) for weight in weights.values())
    return diagonal_measure_bits(occupied.values(), norm, v.n_particles, digits)


def diagonal_measure_bits(
    counts: Iterable[int], norm: int, n_particles: int, digits: int = 60
) -> Decimal:
    """The measure in bits of the diagonal density matrix count / norm, in decimal.

    -sum p ln p - ln N, over ln 2, is taken with ``digits`` significant
    digits.  When every occupied orbital holds one particle (count * N ==
    norm), the state is a single configuration, separable, and gives
    exactly 0, where decimal's ln would leave a residue in the last digits.
    """
    counts = [count for count in counts if count]
    if all(count * n_particles == norm for count in counts):
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = digits
        entropy = Decimal(0)
        for count in counts:
            p = Decimal(count) / Decimal(norm)  # rounded once, whatever count and norm share
            entropy -= p * p.ln()
        return (entropy - Decimal(n_particles).ln()) / Decimal(2).ln()


def entropy_of(probabilities) -> float:
    """Shannon entropy in nats with 0 ln 0 = 0."""
    total = 0.0
    for p in probabilities:
        p = float(p)
        if p > 0:
            total -= p * math.log(p)
    return total


def _det_mod(rows: list[list[int]]) -> int:
    """Determinant modulo PRIME by Gaussian elimination; consumes rows."""
    n = len(rows)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col]
        det = det * head[col] % PRIME
        inverse = pow(head[col], -1, PRIME)
        for r in range(col + 1, n):
            factor = rows[r][col] * inverse % PRIME
            if factor:
                rows[r] = [(a - factor * b) % PRIME for a, b in zip(rows[r], head)]
    return det % PRIME


def determinants_at_point(terms: Terms, z: Sequence[int]) -> int:
    """sum_lam c_lam det(z_i^{lam_j}) modulo PRIME, one elimination per determinant."""
    top = max(lam[0] for lam in terms)
    powers = []
    for x in z:
        row = [1]
        for _ in range(top):
            row.append(row[-1] * x % PRIME)
        powers.append(row)
    total = 0
    for lam, coeff in terms.items():
        total += coeff * _det_mod([[row[e] for e in lam] for row in powers])
    return total % PRIME


def condensate_scale(p: int) -> Fraction:
    """The condensate integral's coefficient of z_1^2 ... z_k^2, k = N - p/2, sans pi^2.

    Of the terms C(p, j) (-1)^(p+j) M(p-j) M(j) e_{N-p+j}(z) e_{N-j}(z) of
    the Gaussian-integral sum, only j = p/2 holds that monomial, once, so
    this is that term's weight, with M(k) = k! 3^(k+1) at alpha = 1/3.  It
    does not depend on N.  For even p it is the scale of a nonzero
    condensate, whose polynomial e_k(z^2) leads with coefficient 1.
    """
    half = p // 2
    moment = math.factorial(half) * 3 ** (half + 1)
    return Fraction(math.comb(p, half) * (-1) ** (p + half) * moment**2)


def family_at_point(z: Sequence[int], power: int, p: int | None, scale: Fraction) -> int:
    """prod_{i<j} (z_i - z_j)^power times the condensate over scale, modulo PRIME.

    The condensate is the Gaussian-integral sum, sans pi^2,

        sum_j C(p, j) (-1)^(p+j) M(p-j) M(j) e_{N-p+j}(z) e_{N-j}(z),

    M(k) = k! alpha^{-(k+1)} = k! 3^(k+1) at alpha = 1/3, over j in
    [max(0, p-N), min(N, p)], with each e_k(z) read off prod_i (1 + t z_i)
    at the point; p None means no condensate.  Nothing here is expanded
    into monomials.
    """
    n = len(z)
    value = 1
    for i, j in itertools.combinations(range(n), 2):
        value = value * pow(z[i] - z[j], power, PRIME) % PRIME
    if p is None:
        return value
    e = [1] + [0] * n
    for x in z:
        for k in range(n, 0, -1):
            e[k] = (e[k] + x * e[k - 1]) % PRIME

    def moment(k: int) -> int:
        return math.factorial(k) * 3 ** (k + 1)

    condensate = 0
    for j in range(max(0, p - n), min(n, p) + 1):
        weight = math.comb(p, j) * (-1) ** (p + j) * moment(p - j) * moment(j)
        condensate += weight * e[n - p + j] * e[n - j]
    scale = Fraction(scale)
    return value * condensate * scale.denominator * pow(scale.numerator, -1, PRIME) % PRIME


def dominated(root: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing tuples that root dominates, lexicographically descending.

    mu is dominated when it has root's sum and each partial sum of mu,
    read from the largest entry, is at most root's.  Each tuple is made
    from the prefix walk the squeeze and the budget count share.
    """
    if len(root) == 1:
        yield root
        return
    for head, rest, xs in _dominated_prefixes(root):
        prefix = tuple(head)
        for x in xs:
            yield prefix + (x, rest - x)


def squeeze_by_position_pairs(nvars: int, power: int) -> SlaterExpansion:
    """The squeezing recursion of prod (z_j - z_k)^power, one determinant at a time.

    The same recursion as :func:`fqhent.poly.vandermonde_expansion`, but
    every determinant builds all N(N-1)/2 of its pair keys, its mirror and
    rho(mu) from scratch, with no per-prefix work.  It shares only the
    dominated walk, :func:`dominated`, whose order the enumeration tests pin.
    Returned through the checking constructor, in the order it visits.
    """
    root = tuple(range((nvars - 1) * power, -1, -power))
    k = power - 1
    top = root[0]

    def rho(lam: tuple[int, ...]) -> int:
        return sum(x * (x - 1 + k * i) for i, x in enumerate(lam))

    rho_root = rho(root)
    digit = [3**x for x in range(top + 1)]
    # (i, j, parity of j - i - 1) for every position pair
    pairs = [(i, j, (j - i - 1) & 1) for i, j in itertools.combinations(range(nvars), 2)]
    sums: dict[int, int] = {}
    out: Terms = {}
    for mu in dominated(root):
        key = sum(digit[x] for x in mu)
        classes = [
            (key - digit[mu[i]] - digit[mu[j]], mu[i] - mu[j], odd)
            for i, j, odd in pairs
        ]
        mirror = tuple(top - x for x in reversed(mu))
        if mu == root:
            coeff = 1
        elif mirror > mu:
            coeff = out.get(mirror, 0)
        else:
            total = 0
            for pair_key, _, odd in classes:
                partial = sums.get(pair_key)
                if partial:
                    total += -partial if odd else partial
            denominator = rho_root - rho(mu)
            if not denominator:
                raise ArithmeticError(f"squeezing recursion has a zero denominator at {mu}")
            coeff, remainder = divmod(-k * total, denominator)
            if remainder:
                raise ArithmeticError(f"squeezing recursion left a remainder at {mu}")
        if coeff:
            out[mu] = coeff
            for pair_key, width, odd in classes:
                term = width * coeff
                sums[pair_key] = sums.get(pair_key, 0) + (-term if odd else term)
    return SlaterExpansion(nvars, out)


def dyson_norm(nvars: int, power: int) -> int:
    """Sum of c_mu^2 over the Slater expansion of prod (z_j - z_k)^power.

    On the unit torus |Delta(z)|^(2 power) is prod_{i != j} (1 - z_i / z_j)^power,
    whose constant term is (N power)! / (power!)^N (Dyson, J. Math. Phys. 3,
    140 (1962); Good, J. Math. Phys. 11, 1884 (1970)).  It is also
    N! sum c_mu^2, since each determinant holds N! monomials of coefficient
    +-1, so the sum is (N power)! / ((power!)^N N!).
    """
    numerator = math.factorial(nvars * power)
    denominator = math.factorial(power) ** nvars * math.factorial(nvars)
    norm, remainder = divmod(numerator, denominator)
    assert not remainder
    return norm
