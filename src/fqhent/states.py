"""Constructors for the model wavefunction families.

Three families are built, each an antisymmetric polynomial in z_1..z_N
turned into a normalized lowest-Landau-level Fock vector:

  laughlin          prod_{j<k} (z_j - z_k)^m
  hierarchical_phi  Vandermonde^m times the p=2 quasihole condensate
  chi               Vandermonde^1 times the p=m-1 quasihole condensate

The two condensate families are defined by their K-matrices,
((power, 1), (1, -p)) (:func:`hierarchical_phi_k`, :func:`chi_k`).

The constructors build each state directly in the determinant basis
(:func:`family_expansion`), with no polynomial multiplication.  The
Vandermonde power comes from the exact integer squeezing (Jack) recursion
from its root ((N-1)m, ..., m, 0), and the condensate, which is
e_{N-p/2}(z_1^2, ..., z_N^2), is multiplied in by its Pieri rule, which
shifts p/2 or N - p/2 entries of each determinant by 2.  A process keeps
its recent Vandermonde expansions in a memo bounded by MAX_DETERMINANTS,
so laughlin and hierarchical_phi at the same N and m run the recursion
once.  The slower route is kept as an independent check for tests and
``verify``: the full polynomial (:func:`family_polynomial`), with the
condensate from its Gaussian integral, followed by
:func:`fqhent.poly.slater_project`, which holds N! times as many terms.

The condensate scalar prefactor is discarded before multiplication since
every entanglement quantity is invariant under global scaling; the verify
report surfaces it separately.  Odd m is required throughout: an even power
of the Vandermonde factor would break fermionic antisymmetry.

The chi construction collapses when the condensate integral vanishes
(m > 2N+1), which is reported as ZeroWavefunctionError rather than a state.
Before anything is built, the orbitals the state spans and the
determinants its build visits, the tuples its root dominates, are counted;
above MAX_ORBITALS or MAX_DETERMINANTS the request is refused with
ValueError.  The determinants are counted by summing the widths of the
dominated prefixes, the tuples that share their first N - 2 entries,
without making the tuples, and only when min(C(root[0] + 1, N - 1),
C(root[0] + 1, N + 1)), which bounds them, is over the limit.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from ._record import Record
from .lll import FockVector, to_fock
from .poly import (
    MultiPoly,
    SlaterExpansion,
    _check_ints,
    _dominated_prefixes,
    _index,
    vandermonde_expansion,
    vandermonde_power,
)
from .quasihole import CondensateKernel, condense, vanishes

MAX_DETERMINANTS = 40_000
"""Upper limit on the determinants a family state's build visits: the
strictly decreasing tuples its root dominates, counted before anything is
built; the Pieri rule makes only the subsets that survive, so it needs no
limit of its own.  Bounds the size of a construction for every N and m,
and the determinants the memo of Vandermonde expansions holds in all.
With MAX_ORBITALS it bounds memory: every allowed state computes with a
peak RSS under 44 MB and within a 48,300 KiB address space.  laughlin(9,
3) alone sets that bound (43.6 MB, from 47,600-48,300 KiB), through its
squeeze's pair sums; next come laughlin(7, 5) at 31.5 MB and 34,600 KiB
and hierarchical_phi(3, 253) at 29.7 MB and 33,800 KiB, and the states at
the orbital limit take 15.5-19.9 MB and 19,600-23,000 KiB (Python 3.11,
Linux x86-64)."""

MAX_ORBITALS = 512
"""Upper limit on the orbitals a family state can occupy.  to_fock weighs
orbital mu by an exact integer factorial ratio whose size grows with mu, so
this bounds its cost where the determinant limit does not: at N = 2 a state
has only (m + 1) / 2 determinants but m + 1 orbitals, and to_fock alone
takes about 0.12 s at m = 2001 and 0.9 s at m = 4001 (Python 3.11, 2-core
VM)."""


class KMatrix(Record):
    """A symmetric integer 2x2 matrix with a charge vector, default (1, 0),
    both stored as tuples of Python ints made by operator.index; a bool or
    any other non-integer raises ValueError."""

    __slots__ = ("entries", "charge")

    def __init__(
        self, entries: tuple[tuple[int, int], tuple[int, int]], charge: tuple[int, int] = (1, 0)
    ) -> None:
        try:
            entries = tuple(tuple(map(_index, row)) for row in entries)
            charge = tuple(map(_index, charge))
        except (TypeError, ValueError) as error:  # TypeError: a row or charge is no sequence
            raise ValueError(f"entries and charge must be integers: {error}") from None
        super().__init__(entries, charge)
        (a, b), (c, d) = entries
        if len(charge) != 2:
            raise ValueError(f"charge must have 2 entries, got {len(charge)}")
        if b != c:
            raise ValueError("matrix must be symmetric")
        if a * d - b * c == 0:
            raise ValueError("matrix must be invertible")

    @property
    def determinant(self) -> int:
        (a, b), (c, d) = self.entries
        return a * d - b * c


def filling_fraction(k: KMatrix) -> Fraction:
    """charge^T K^{-1} charge, exactly, via the explicit 2x2 inverse."""
    (a, b), (c, d) = k.entries
    q0, q1 = k.charge
    return Fraction(d * q0 * q0 - (b + c) * q0 * q1 + a * q1 * q1, k.determinant)


# name -> the family's K-matrix entries as tuples, a function of m, or None
# for laughlin, Vandermonde^m alone.  K = ((power, 1), (1, -p)) gives the
# Vandermonde power and the exponent p of the condensate that multiplies it.
_FAMILY_TABLE = {
    "laughlin": None,
    "hierarchical_phi": lambda m: ((m, 1), (1, -2)),
    "chi": lambda m: ((1, 1), (1, -(m - 1))),
}


def hierarchical_phi_k(m: int) -> KMatrix:
    """K-matrix of the hierarchical_phi family: ((m, 1), (1, -2)); m is a Python int."""
    _check_ints(m=m)
    return KMatrix(_FAMILY_TABLE["hierarchical_phi"](m))


def chi_k(m: int) -> KMatrix:
    """K-matrix of the chi family: ((1, 1), (1, -(m-1))); m is a Python int."""
    _check_ints(m=m)
    return KMatrix(_FAMILY_TABLE["chi"](m))


class ZeroWavefunctionError(ValueError):
    """The requested construction is identically zero, not a state."""


def family_factors(family: str, n_electrons: int, m: int) -> tuple[int, int | None]:
    """Validated (Vandermonde power, condensate exponent p or None) of a family state.

    n_electrons and m must be Python ints: a bool, a float or a numpy
    integer raises ValueError before any arithmetic, as do bad parameters,
    an unknown family or a state over MAX_ORBITALS or MAX_DETERMINANTS;
    ZeroWavefunctionError is raised when the condensate vanishes (for chi,
    m > 2N+1).  power and p are read off the family table's entries, with
    no record made.  The orbitals are checked first, which bounds N before
    anything of size N is made; the determinants by summing prefix widths
    (:func:`_determinants_visited`), unless min(C(orbitals, N - 1),
    C(orbitals, N + 1)) bounds them within the budget: each is an N-subset
    of the orbitals with the root's sum, so its first N - 1 entries fix it,
    as does its complement less one entry.  That bound never exceeds
    C(orbitals, N) and is N + 2 at most for chi, whose root is delta with
    two values left out: only its orbitals refuse it, at every odd m <=
    2N + 1 up to N = 510.  Only refusals format their text.
    """
    _check_ints(N=n_electrons, m=m)
    if n_electrons < 2:
        raise ValueError("need at least two electrons")
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(_FAMILY_TABLE)}")
    entries, power, p, k = _FAMILY_TABLE[family], m, None, 0
    if entries is not None:
        (power, _), (_, minus_p) = entries(m)
        p = -minus_p
        if vanishes(n_electrons, p):
            raise ZeroWavefunctionError(
                f"zero wavefunction: m > 2N+1 (family {family}, N={n_electrons}, m={m})"
            )
        k = n_electrons - p // 2
    orbitals = power * (n_electrons - 1) + 2 * (k > 0) + 1
    if orbitals > MAX_ORBITALS:
        refusal = f"spans {orbitals:,} orbitals, more than MAX_ORBITALS = {MAX_ORBITALS}"
    # The build visits only tuples this root dominates: the squeezing
    # recursion those of ((N-1) power, ..., power, 0), and the product by
    # e_k(z_1^2, ..., z_N^2), k = N - p/2, those of that root plus 2 on its
    # first k entries, since sort(lam + nu) is dominated by lam + sort(nu).
    elif min(
        math.comb(orbitals, n_electrons - 1), math.comb(orbitals, n_electrons + 1)
    ) > MAX_DETERMINANTS and _determinants_visited(
        tuple(power * (n_electrons - 1 - i) + 2 * (i < k) for i in range(n_electrons))
    ) > MAX_DETERMINANTS:
        refusal = f"can have more than MAX_DETERMINANTS = {MAX_DETERMINANTS:,} determinants"
    else:
        return power, p
    raise ValueError(f"family {family}, N={n_electrons}, m={m} {refusal}")


def _determinants_visited(root: tuple[int, ...]) -> int:
    """The tuples root dominates, up to MAX_DETERMINANTS + 1.

    Sums the widths of the dominated walk's prefixes, each the number of
    tuples that share it, and stops at the first prefix past the budget.
    """
    count = 0
    for _, _, xs in _dominated_prefixes(root):
        count += len(xs)
        if count > MAX_DETERMINANTS:
            return MAX_DETERMINANTS + 1
    return count


def family_polynomial(family: str, n_electrons: int, m: int) -> MultiPoly:
    """The antisymmetric polynomial part of a family wavefunction, fully expanded.

    This is the slow, independent route: :func:`family_expansion` builds
    the same state in the determinant basis without it.  With up to N! times
    as many terms, it is limited to N <= 5, where the tests and ``verify``
    compare the two.  Raises ZeroWavefunctionError when the condensate
    vanishes (for chi, m > 2N+1), ValueError above N = 5 or for bad parameters.
    """
    power, p = family_factors(family, n_electrons, m)
    if n_electrons > 5:
        raise ValueError(f"the full expansion is limited to N <= 5, got N={n_electrons}")
    product = vandermonde_power(n_electrons, power)
    return product if p is None else product * condense(CondensateKernel(n_electrons, p)).poly


_expansions: dict[tuple[int, int], SlaterExpansion] = {}
"""Vandermonde expansions by (N, power), least recently used first."""
_expansions_lock = threading.Lock()
_held = 0  # the determinants _expansions holds, counted under the lock


def _vandermonde(n_electrons: int, power: int) -> SlaterExpansion:
    """vandermonde_expansion(n_electrons, power), memoized per process.

    The memo holds at most MAX_DETERMINANTS determinants in all, no more
    than one state at the size budget: the least recently used expansions
    make room for a new one, and one that alone exceeds the bound is not
    kept; the count held is kept as the memo fills.  SlaterExpansion is
    immutable, so callers share one object.  A lock guards the memo and
    its count, not the build, as lru_cache does.
    """
    global _held
    key = (n_electrons, power)
    with _expansions_lock:
        expansion = _expansions.pop(key, None)
        if expansion is not None:
            _expansions[key] = expansion
            return expansion
    expansion = vandermonde_expansion(n_electrons, power)
    if len(expansion) <= MAX_DETERMINANTS:
        with _expansions_lock:
            held = _held if _expansions else 0  # 0 once emptied from outside
            _held = held + len(expansion) - len(_expansions.pop(key, ()))
            _expansions[key] = expansion
            while _held > MAX_DETERMINANTS:
                _held -= len(_expansions.pop(next(iter(_expansions))))
    return expansion


def family_expansion(family: str, n_electrons: int, m: int) -> SlaterExpansion:
    """A family wavefunction built directly in the determinant basis.

    The Vandermonde power comes from the squeezing recursion
    (:func:`fqhent.poly.vandermonde_expansion`), taken from a per-process
    memo keyed by (N, power) and bounded by MAX_DETERMINANTS, so laughlin
    and hierarchical_phi at the same N and m share one run.  family_factors
    counts and refuses before the memo is looked up.  The condensate, when the
    family has one, is multiplied in by
    :meth:`~fqhent.poly.SlaterExpansion.times_elementary_squares` with
    k = N - p/2, because condense's polynomial is e_k(z_1^2, ..., z_N^2):
    with M(a) = a! alpha^-(a+1), C(p, j) M(p-j) M(j) = p! alpha^-(p+2) for
    every j, so the integral is pi^2 (-1)^p p! alpha^-(p+2) sum_j (-1)^j
    e_{N-p+j} e_{N-j}.  Comparing powers of t in
    prod_i (1 + t z_i)(1 - t z_i) = prod_i (1 - t^2 z_i^2) gives
    sum_b (-1)^b e_b e_{2k-b} = (-1)^k e_k(z^2), and with b = N - j that
    sum is +-e_k(z^2): primitive, with positive leading term, so it is
    condense's polynomial exactly.  Equal, term for term, to
    slater_project(family_polynomial(family, n_electrons, m)); raises as
    that does.
    """
    power, p = family_factors(family, n_electrons, m)
    expansion = _vandermonde(n_electrons, power)
    if p is None:
        return expansion
    return expansion.times_elementary_squares(n_electrons - p // 2)


def laughlin(n_electrons: int, m: int) -> FockVector:
    """Normalized state Vandermonde^m; a single determinant when m = 1."""
    return to_fock(family_expansion("laughlin", n_electrons, m))


def hierarchical_phi(n_electrons: int, m: int) -> FockVector:
    """Normalized state Vandermonde^m times the p=2 condensate polynomial."""
    return to_fock(family_expansion("hierarchical_phi", n_electrons, m))


def chi(n_electrons: int, m: int) -> FockVector:
    """Normalized state Vandermonde times the p=m-1 condensate polynomial.

    Raises ZeroWavefunctionError when m > 2N+1.
    """
    return to_fock(family_expansion("chi", n_electrons, m))


FAMILIES = {f.__name__: f for f in (laughlin, hierarchical_phi, chi)}
