"""Exact sparse polynomials in the electron coordinates z_1 .. z_N.

A polynomial is stored as a map from exponent tuples to arbitrary-precision
integer coefficients: in two variables, {(3, 0): 1, (2, 1): -3} stands for
z1^3 - 3*z1^2*z2.  All arithmetic is exact, zero coefficients are never
stored, and the canonical term order is lexicographically descending in the
exponent tuple, which makes iteration and printing deterministic.
:class:`MultiPoly`, the reference container that the slow route, ``verify``
and the tests build with, offers construction, the product of two
polynomials, which is all the condensate and the slow route multiply with,
and the antisymmetry test.

Antisymmetric polynomials admit a second exact representation: a sum of
monomial determinants det(z_i^{lam_j}) over strictly decreasing exponent
tuples lam_1 > lam_2 > ... > lam_N >= 0.  :func:`slater_project` converts to
that basis and :meth:`SlaterExpansion.expand` converts back, both losslessly.
:func:`vandermonde_expansion` builds prod (z_j - z_k)^m in that basis by the
squeezing (Jack) recursion, never holding the N!-fold redundant expansion
that :func:`slater_project` starts from.  It walks the determinants by
their first N - 2 entries: the pair keys, widths and signs that depend only
on those are made once per prefix, and each determinant adds just its two
last entries to them, still O(N^2) work per determinant.
:meth:`SlaterExpansion.times_elementary_squares` multiplies by
e_k(z_1^2, ..., z_N^2), the condensate factor, without leaving the basis.
Where each candidate moves one entry, at k = 1 and k = N - 1, the entry
can meet only the two next to it on the side it moves to, and the kernel
compares with those two alone; where more move, only the subsets that
survive are made, from the chains of values two apart in a determinant.

:class:`MultiPoly` and :class:`SlaterExpansion` share one immutable term map.
Input from outside goes through the checking constructor, which takes nvars as
a count, coerces exponents and coefficients with operator.index but raises
ValueError for a bool, for what that refuses and for terms that are not
(exponents, coefficient) pairs, checks every key, sums repeated keys in their
first position and drops zero sums.  A map built here from checked instances
is adopted unchecked with ``_from_terms`` once its zero sums are dropped.
"""

from __future__ import annotations

import itertools
import math
import operator
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from ._record import Record

Exponents = tuple[int, ...]
TermsLike = Mapping[Sequence[int], int] | Iterable[tuple[Sequence[int], int]]


class NotAntisymmetricError(ValueError):
    """A Slater projection was requested for a non-antisymmetric polynomial."""


def _check_ints(**values: object) -> None:
    """The one rule for a count (N, m, p, k, a size, jobs): a Python int,
    never a bool, float, str or numpy integer, whose fixed width overflows
    exact weights.  Every public entry point checks its counts here before
    any arithmetic; ValueError names the first that fails."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be a Python int, got {value!r}")


def _index(value: object) -> int:
    """operator.index, which converts a numpy integer; a bool, which it reads
    as 0 or 1, and what it refuses, a float, str or numpy bool, raise ValueError."""
    if type(value) is bool:
        raise ValueError(f"{value!r} is a bool, not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{value!r} is not an integer") from None


def _perm_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation given as a sequence of distinct integers."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class _TermMap(Record):
    """Immutable map from exponent tuples to nonzero integer coefficients.

    nvars is the number of variables, the length of every exponent tuple,
    and terms the read-only view of the term map, stored once.  A subclass
    gives its key rule as ``_check_key(key)``, which raises ValueError.
    Record compares, hashes and pickles (nvars, terms); repr shows the terms
    in canonical order.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: TermsLike = ()) -> None:
        _check_ints(nvars=nvars)
        if nvars < 1:
            raise ValueError("need at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        store: dict[Exponents, int] = {}
        try:
            for term in items:
                try:
                    exponents, coeff = term
                except ValueError:  # a sequence of other than two entries
                    raise ValueError(
                        f"terms must pair exponents with coefficients: {term!r} is not a pair"
                    ) from None
                key = tuple(map(_index, exponents))
                if len(key) != nvars:
                    raise ValueError(f"exponent tuple {key} does not have {nvars} entries")
                self._check_key(key)
                store[key] = store.get(key, 0) + _index(coeff)
        except TypeError as error:  # the terms, a term or its exponents are no sequence
            raise ValueError(f"terms must pair exponents with coefficients: {error}") from None
        Record.__init__(self, nvars, MappingProxyType({key: c for key, c in store.items() if c}))

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict[Exponents, int]):
        """Adopt terms this module built: valid keys, nonzero coefficients, unchecked."""
        out = cls.__new__(cls)
        Record.__init__(out, nvars, MappingProxyType(terms))
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def items(self) -> Iterator[tuple[Exponents, int]]:
        """Terms in canonical order: lexicographically descending exponents."""
        yield from sorted(self.terms.items(), reverse=True)  # keys are distinct

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({self.nvars}, {dict(self.items())!r})"


class MultiPoly(_TermMap):
    """Immutable sparse multivariate polynomial with integer coefficients."""

    __slots__ = ()

    @staticmethod
    def _check_key(key: Exponents) -> None:
        if any(e < 0 for e in key):
            raise ValueError(f"negative exponent in {key}")

    # -- arithmetic and antisymmetry --------------------------------------

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        out: dict[Exponents, int] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, 0) + ca * cb
        return MultiPoly._from_terms(self.nvars, {k: c for k, c in out.items() if c})

    def is_antisymmetric(self) -> bool:
        """True iff swapping any pair of variables negates the polynomial exactly.

        The swap (0 1) and the cycle (0 1 ... n-1) generate the symmetric
        group, so checking those two suffices; the cycle has parity n - 1.  A
        permutation p maps self onto (-1)^parity * self exactly when every
        term's permuted key carries (-1)^parity times its coefficient.  With
        one variable every polynomial is antisymmetric.
        """
        n = self.nvars
        if n == 1:
            return True
        terms = self.terms
        swap = (1, 0, *range(2, n))
        cycle = (*range(1, n), 0)
        for perm, factor in ((swap, -1), (cycle, (-1) ** (n - 1))):
            permuted = operator.itemgetter(*perm)
            for key, coeff in terms.items():
                if terms.get(permuted(key)) != factor * coeff:
                    return False
        return True

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for key, coeff in self.items():
            factors = [
                f"z{i + 1}" if e == 1 else f"z{i + 1}^{e}"
                for i, e in enumerate(key)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


class SlaterExpansion(_TermMap):
    """An antisymmetric polynomial in the monomial-determinant basis.

    Terms map a strictly decreasing exponent tuple lam to the integer
    coefficient of det(z_i^{lam_j}).  The overall sign is kept exactly as
    computed; no canonicalization is applied.
    """

    __slots__ = ()

    @staticmethod
    def _check_key(key: Exponents) -> None:
        if any(key[i] <= key[i + 1] for i in range(len(key) - 1)) or key[-1] < 0:
            raise ValueError(f"{key} is not strictly decreasing and non-negative")

    def expand(self) -> MultiPoly:
        """Reconstruct the source polynomial as sum_lam c_lam det(z_i^{lam_j})."""
        n = self.nvars
        out: dict[Exponents, int] = {}
        for lam, coeff in self.terms.items():
            for perm in itertools.permutations(range(n)):
                key = tuple(lam[p] for p in perm)
                out[key] = out.get(key, 0) + coeff * _perm_sign(perm)
        return MultiPoly._from_terms(n, out)

    def times_elementary_squares(self, k: int) -> "SlaterExpansion":
        """The product with e_k(z_1^2, ..., z_N^2), in the determinant basis.

        a_lam e_k(z^2) is the sum of a_{lam + 2 1_S} over the k-subsets S of
        positions (Macdonald, Symmetric Functions and Hall Polynomials, ch. I,
        the product a_lam m_mu at mu = (2^k)).  When N - k < k it uses
        e_k(x) = e_N(x) e_{N-k}(1/x): every entry gains 2 and an (N - k)-subset
        loses 2.  The subset is empty at k = 0, where the product is the
        expansion itself, and at k = N, where every entry gains 2.  A moved
        entry that lands on one that stayed makes two equal columns and drops
        out; one that passes a stayed entry a unit away, the only entry it can
        pass, swaps places with it and flips the sign.  A survivor needs no
        sort.

        The entries are strictly decreasing, so an entry at position i that
        rises by 2 (k <= N - k) can meet only positions i - 1 and i - 2, and
        one that falls by 2 after the lift (k > N - k) only i + 1 and i + 2.
        When one entry moves (min(k, N - k) = 1: k = 1, which is N = 2's case,
        and k = N - 1, hierarchical_phi's at every N and chi's at p = 2), the
        candidate compares with those two: the neighbour a unit away is passed
        unless the one two away is where the entry lands, and the neighbour
        two away is landed on.  Two sentinel entries past the end, read also
        at positions -1 and -2, stand in for a missing neighbour.  Each
        candidate is written into one scratch list per determinant, keyed as a
        tuple and undone.  Where two or more entries move, an entry survives
        only if the one it would land on moves too.  Those links make chains
        of values 2 apart, and a surviving subset takes a run at the far end
        of each chain, the end the entries move to: one run length per chain,
        the lengths summing to the subset's size.  Only those subsets are
        made, so a determinant costs its survivors, not C(N, size)
        candidates, and they are emitted in itertools.combinations order.

        Raises ValueError unless k is a Python int in 0..N.
        """
        n = self.nvars
        _check_ints(k=k)
        if not 0 <= k <= n:
            raise ValueError(f"k must be in 0..{n}, got {k}")
        size, step, lift = (k, 2, 0) if k <= n - k else (n - k, -2, 2)
        if not size:  # no entry moves: e_0 = 1, and e_N(z^2) = (z_1 ... z_N)^2 adds 2 to each
            return self if not lift else SlaterExpansion._from_terms(
                n, {tuple([x + 2 for x in lam]): c for lam, c in self.terms.items()}
            )
        half = step // 2
        out: dict[Exponents, int] = {}
        get = out.get
        if size == 1:
            # one scratch list per determinant: write a candidate, key it, undo
            toward = -1 if step > 0 else 1  # the side of the entries it can meet
            positions = range(n)
            for lam, coeff in self.terms.items():
                base = [x + lift for x in lam]
                alpha = base[:]
                base += (-3, -3)  # at n, n + 1 and so at -1, -2: never met
                for i in positions:
                    x = base[i]
                    j = i + toward
                    gap = base[j] - x
                    if gap == half:
                        if base[j + toward] - x != step:
                            alpha[i] = x + half
                            alpha[j] = x + step
                            key = tuple(alpha)
                            out[key] = get(key, 0) - coeff
                            alpha[i] = x
                            alpha[j] = x + half
                    elif gap != step:
                        alpha[i] = x + step
                        key = tuple(alpha)
                        out[key] = get(key, 0) + coeff
                        alpha[i] = x
        else:
            for lam, coeff in self.terms.items():
                base = [x + lift for x in lam]
                where = dict(zip(base, range(n)))
                runs, room = [()], n  # the runs taken so far, and the positions not yet chained
                for x in base:  # x + step is free: x heads a chain of values a step apart
                    if x + step not in where:
                        values = itertools.takewhile(where.__contains__, itertools.count(x, -step))
                        chain = tuple(map(where.get, values))
                        room -= len(chain)
                        runs = [run + chain[:r] for run in runs for r in range(size - len(run) + 1)
                                if r <= len(chain) and size - len(run) - r <= room]
                for subset in sorted(map(sorted, runs)):
                    term = coeff
                    alpha = base[:]
                    moved = set(subset)
                    for i in subset:
                        x = base[i]
                        j = where.get(x + half)
                        if j is not None and j not in moved:
                            term = -term
                            alpha[i], alpha[j] = x + half, x + step
                        else:
                            alpha[i] = x + step
                    key = tuple(alpha)
                    out[key] = get(key, 0) + term
        return SlaterExpansion._from_terms(n, {key: c for key, c in out.items() if c})


def vandermonde_power(nvars: int, power: int) -> MultiPoly:
    """Expand prod_{j<k} (z_j - z_k)^power exactly.

    Each pair factor is expanded by the binomial theorem before multiplying,
    so the cost is one sparse product per variable pair.  The result is
    homogeneous of degree power * nvars * (nvars - 1) / 2 and, for odd power,
    antisymmetric.  With a single variable the product is empty and the
    result is the constant 1.  nvars and power must be Python ints.
    """
    _check_ints(nvars=nvars, power=power)
    if nvars < 1:
        raise ValueError("need at least one variable")
    if power < 1:
        raise ValueError("power must be positive")
    result = MultiPoly(nvars, {(0,) * nvars: 1})
    for j in range(nvars):
        for k in range(j + 1, nvars):
            result = result * _pair_power(nvars, j, k, power)
    return result


def vandermonde_expansion(nvars: int, power: int) -> SlaterExpansion:
    """slater_project(vandermonde_power(nvars, power)) for odd power, by squeezing.

    prod_{j<k} (z_j - z_k)^m = a_delta * prod (z_j - z_k)^(m-1) is the
    antisymmetric Jack polynomial of root lam0 = ((N-1)m, ..., m, 0) at
    alpha = -2/(m-1) (Bernevig & Haldane, PRL 100, 246802 (2008); Thomale,
    Estienne, Regnault & Bernevig, PRB 84, 045127 (2011)).  With k = m - 1
    and rho(lam) = sum_i lam_i (lam_i - 1 + k i), i counted from 0 in
    descending order, c_lam0 = 1 and every strictly decreasing mu that lam0
    dominates, visited in lexicographically descending order, has

        (rho(lam0) - rho(mu)) c_mu = -k sum_{i<j, l>=1} s(theta) (theta_i - theta_j) c_theta

    where theta is mu with mu_i + l and mu_j - l, s(theta) the sign of
    sorting it descending, and a theta with a repeated entry drops out.

    The sum over l is kept as running pair sums.  With a = mu_i, b = mu_j
    and R the rest of mu, every theta is R with two entries x > y added,
    x + y = a + b and x - y > a - b, and its sort sign is
    (-1)^(j-i-1) (-1)^(q-p-1) for x, y at positions p < q of sorted theta.
    So the l sum is (-1)^(j-i-1) A[R, a+b], where A[R, s] adds up
    (-1)^(q-p-1) (theta_p - theta_q) c_theta over every theta visited so
    far and each of its pairs p < q that sums to s and leaves R.  A wider
    pair with the same R and s makes a lexicographically larger theta,
    visited before mu, and a narrower one a smaller theta, visited after
    it; so A[R, a+b] is exactly the l sum when mu is reached, and once c_mu
    is known mu adds its own N(N-1)/2 pairs to A.  That is O(N^2) work per
    determinant, whatever m.

    The mirror image of mu, (top - mu_{N-1}, ..., top - mu_0) with
    top = (N-1)m, has the same coefficient: z_i -> 1/z_i, times
    prod_i z_i^top, maps the state to (-1)^(m N(N-1)/2) times itself and
    a_mu to (-1)^(N(N-1)/2) a_mirror, and m is odd.  So a mu whose mirror
    was visited before it copies that coefficient from the output, which
    holds every nonzero one found so far.

    Every tuple visited has root's sum, so R alone fixes s = |root| - |R|,
    and A[R, s] is keyed by R alone: sum_{x in R} 3^x, which is unique like
    a bit mask; a bit mask's hash (mod 2^61 - 1) would repeat every 61
    orbitals.  Everything stays an exact integer; a division that leaves a
    remainder, or by zero, raises ArithmeticError.

    The walk hands over each prefix, the first N - 2 entries, once, with
    the range of the next entry x; the last is y = rest - x.  Once per
    prefix the loop takes its key, its part of rho, the rest keys less x
    and y and the signed widths of its C(N-2, 2) inner pairs, and for each
    prefix entry the prefix key without it, which a pair of that entry and
    x or y completes with the other's digit.  Once per determinant it adds
    the digits of x and y to those keys, and x and y's terms to rho.
    nvars and power must be Python ints.
    """
    _check_ints(nvars=nvars, power=power)
    if nvars < 1:
        raise ValueError("need at least one variable")
    if power < 1 or power % 2 == 0:
        raise ValueError(f"power must be a positive odd integer, got {power}")
    root = tuple(range((nvars - 1) * power, -1, -power))
    if nvars == 1 or power == 1:  # root dominates no other tuple
        return SlaterExpansion._from_terms(nvars, {root: 1})
    k = power - 1
    top = root[0]
    h = nvars - 2  # the prefix length: mu = prefix + (x, y)
    # rho's term at position i is x (x + shifts[i])
    shifts = [k * i - 1 for i in range(nvars)]
    rho_root = sum(x * (x + s) for x, s in zip(root, shifts))
    digit = [3**x for x in range(top + 1)]
    # (i, j, (-1)^(j-i-1)) for every pair inside the prefix
    inner_pairs = [(i, j, (-1) ** (j - i - 1)) for i, j in itertools.combinations(range(h), 2)]
    # the sign of pair (i, h); pair (i, h + 1) has the opposite one
    signs = [(-1) ** (h - i - 1) for i in range(h)]
    sums: dict[int, int] = {}
    out: dict[Exponents, int] = {}
    get = sums.get
    for head, rest, xs in _dominated_prefixes(root):
        prefix = tuple(head)
        prefix_digits = [digit[a] for a in prefix]
        base = sum(prefix_digits)  # the rest key of pair (h, h + 1)
        without = [base - v for v in prefix_digits]  # the prefix key less entry i
        rho_left = rho_root - sum(map(operator.mul, prefix, map(operator.add, prefix, shifts)))
        # (rest key less x and y, signed width) of each pair inside the prefix
        inner = [
            (without[i] - prefix_digits[j], sign * (prefix[i] - prefix[j]))
            for i, j, sign in inner_pairs
        ]
        outer = list(zip(without, signs, prefix))
        mirror_tail = tuple([top - a for a in reversed(prefix)])
        for x in xs:
            y = rest - x
            dx = digit[x]
            dy = digit[y]
            d = dx + dy
            mu = prefix + (x, y)
            mirror = (top - y, top - x) + mirror_tail
            if not out:  # the root, visited first
                coeff = 1
            elif mirror > mu:
                coeff = out.get(mirror, 0)
            else:
                total = get(base, 0)
                for key, width in inner:  # the width's sign is the pair's
                    partial = get(key + d)
                    if partial:
                        total += partial if width > 0 else -partial
                for key, sign, _ in outer:
                    total += sign * (get(key + dy, 0) - get(key + dx, 0))
                denominator = rho_left - x * (x + shifts[h]) - y * (y + shifts[h + 1])
                if not denominator:
                    raise ArithmeticError(f"squeezing recursion has a zero denominator at {mu}")
                coeff, remainder = divmod(-k * total, denominator)
                if remainder:
                    raise ArithmeticError(f"squeezing recursion left a remainder at {mu}")
            if coeff:
                out[mu] = coeff
                sums[base] = get(base, 0) + (x - y) * coeff
                for key, width in inner:
                    key += d
                    sums[key] = get(key, 0) + width * coeff
                for key, sign, a in outer:
                    with_y = key + dy  # pair (i, h) leaves y in the rest
                    sums[with_y] = get(with_y, 0) + sign * (a - x) * coeff
                    with_x = key + dx
                    sums[with_x] = get(with_x, 0) - sign * (a - y) * coeff
    return SlaterExpansion._from_terms(nvars, out)


def _dominated_prefixes(root: Exponents) -> Iterator[tuple[list[int], int, range]]:
    """The tuples root dominates, as (head, rest, xs), root at least 2 long.

    mu is dominated when it has root's sum and each partial sum of mu,
    read from the largest entry, is at most root's.  head is the first
    N - 2 entries of one or more dominated tuples, each prefix once and in
    lexicographically descending order; the tuples that share it are
    head + [x, rest - x] for x in the range xs, descending and never
    empty.  So len(xs) counts them.

    The walk is flat: ``head``, the entries chosen so far, is the walk's
    own list, yielded as is and changed at its next step; ``lows`` holds
    the lowest value each may take.
    """
    n = len(root)
    bounds = list(itertools.accumulate(root))
    head: list[int] = []
    lows: list[int] = []
    partial = 0  # sum of head
    below = bounds[0] + 1  # the next entry is less than this
    while True:
        i = len(head)
        rest = bounds[-1] - partial  # sum of the n - i entries still to choose
        left = n - i - 1
        # the other `left` entries are distinct and below x, at least 0 .. left - 1
        highest = min(below - 1, bounds[i] - partial, rest - left * (left - 1) // 2)
        lowest = -(-(rest + left * (left + 1) // 2) // (left + 1))
        if left > 1 and highest >= lowest:
            head.append(highest)
            lows.append(lowest)
            partial += highest
            below = highest
            continue
        if left == 1:
            # the sum fixes the last entry, rest - x: x >= lowest keeps it below x
            xs = range(highest, lowest - 1, -1)
            if xs:
                yield head, rest, xs
        # lower the last chosen entry that can go lower, dropping those after it
        while head:
            x = head.pop()
            partial -= x
            if x > lows[-1]:
                head.append(x - 1)
                partial += x - 1
                below = x - 1
                break
            lows.pop()
        else:
            return


def _pair_power(nvars: int, j: int, k: int, power: int) -> MultiPoly:
    # (z_j - z_k)^power via the binomial theorem
    terms: dict[Exponents, int] = {}
    for i in range(power + 1):
        exps = [0] * nvars
        exps[j] = power - i
        exps[k] = i
        terms[tuple(exps)] = (-1) ** i * math.comb(power, i)
    return MultiPoly(nvars, terms)


def elementary_symmetric(nvars: int, k: int) -> MultiPoly:
    """e_k(z_1 .. z_n): the sum of all squarefree monomials of degree k."""
    _check_ints(nvars=nvars, k=k)
    if not 0 <= k <= nvars:
        raise ValueError(f"k={k} out of range 0..{nvars}")
    terms: dict[Exponents, int] = {}
    for combo in itertools.combinations(range(nvars), k):
        exps = [0] * nvars
        for i in combo:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return MultiPoly(nvars, terms)


def slater_project(poly: MultiPoly) -> SlaterExpansion:
    """Project an antisymmetric polynomial onto monomial determinants.

    The coefficient of det(z_i^{lam_j}) is read off as the coefficient in
    `poly` of the monomial whose exponents are already strictly decreasing;
    the other terms of `poly` are signed permutations of those monomials and
    carry no further information.

    Raises NotAntisymmetricError when `poly` fails the pair-swap test.
    """
    if not poly.is_antisymmetric():
        raise NotAntisymmetricError("polynomial is not antisymmetric under variable swaps")
    decreasing = {
        key: coeff
        for key, coeff in poly.terms.items()
        if all(key[i] > key[i + 1] for i in range(len(key) - 1))
    }
    return SlaterExpansion._from_terms(poly.nvars, decreasing)
