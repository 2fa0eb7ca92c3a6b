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
Before anything is built, the orbitals the state spans, the C(N, p/2)
subsets the Pieri rule tries per determinant and the determinants its build
visits, the tuples its root dominates, are counted; above MAX_ORBITALS or
MAX_DETERMINANTS the request is refused with ValueError.  The determinants
are counted by summing the widths of the dominated prefixes, the tuples
that share their first N - 2 entries, without making the tuples, and only
when C(root[0] + 1, N), which bounds them, is over the limit.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from fractions import Fraction

from ._record import Record
from .lll import FockVector, to_fock
from .poly import (
    MultiPoly,
    SlaterExpansion,
    _check_ints,
    _dominated_prefixes,
    vandermonde_expansion,
    vandermonde_power,
)
from .quasihole import CondensateKernel, condense, vanishes

MAX_DETERMINANTS = 40_000
"""Upper limit on the determinants a family state's build visits: the
strictly decreasing tuples its root dominates, counted before anything is
built, and on the C(N, p/2) subsets the condensate's Pieri rule tries per
determinant.  Bounds the size of a construction for every N and m, and
the determinants the memo of Vandermonde expansions holds in all."""

MAX_ORBITALS = 512
"""Upper limit on the orbitals a family state can occupy.  to_fock weighs
orbital mu by an exact integer factorial ratio whose size grows with mu, so
this bounds its cost where the determinant limit does not: at N = 2 a state
has only (m + 1) / 2 determinants but m + 1 orbitals, and to_fock alone
takes about 0.12 s at m = 2001 and 0.9 s at m = 4001 (Python 3.11, 2-core
VM)."""


class KMatrix(Record):
    """A symmetric integer 2x2 matrix with a charge vector, default (1, 0)."""

    __slots__ = ("entries", "charge")

    def __init__(
        self, entries: tuple[tuple[int, int], tuple[int, int]], charge: tuple[int, int] = (1, 0)
    ) -> None:
        super().__init__(entries, charge)
        (a, b), (c, d) = self.entries
        if len(self.charge) != 2:
            raise ValueError(f"charge must have 2 entries, got {len(self.charge)}")
        for value in (a, b, c, d, *self.charge):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"entries and charge must be integers, got {value!r}") from None
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


def hierarchical_phi_k(m: int) -> KMatrix:
    """K-matrix of the hierarchical_phi family: ((m, 1), (1, -2)); m is a Python int."""
    _check_ints(m=m)
    return KMatrix(((m, 1), (1, -2)))


def chi_k(m: int) -> KMatrix:
    """K-matrix of the chi family: ((1, 1), (1, -(m-1))); m is a Python int."""
    _check_ints(m=m)
    return KMatrix(((1, 1), (1, -(m - 1))))


# name -> the family's K-matrix as a function of m, or None for laughlin,
# Vandermonde^m alone.  K = ((power, 1), (1, -p)) gives the Vandermonde
# power and the exponent p of the condensate factor that multiplies it.
_FAMILY_TABLE = {"laughlin": None, "hierarchical_phi": hierarchical_phi_k, "chi": chi_k}


class ZeroWavefunctionError(ValueError):
    """The requested construction is identically zero, not a state."""


@functools.lru_cache(maxsize=None, typed=True)
def family_factors(family: str, n_electrons: int, m: int) -> tuple[int, int | None]:
    """Validated (Vandermonde power, condensate exponent p or None) of a family state.

    n_electrons and m must be Python ints: a bool, a float or a numpy
    integer raises ValueError before any arithmetic, as do bad parameters,
    an unknown family or a state over MAX_ORBITALS or MAX_DETERMINANTS;
    ZeroWavefunctionError is raised when the condensate vanishes (for chi,
    m > 2N+1).  The orbitals are checked first, which bounds N before
    anything of size N is made; the determinants by summing prefix widths
    (:func:`_determinants_visited`), unless C(root[0] + 1, N), the
    N-subsets of the root's orbitals, is already within the budget.
    Memoized per process with typed keys, so a sweep's up-front check and
    the build after it count the determinants once, and a cached m = 1
    never answers m = True; refusals raise and are not kept.
    """
    _check_ints(N=n_electrons, m=m)
    if n_electrons < 2:
        raise ValueError("need at least two electrons")
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(_FAMILY_TABLE)}")
    k_matrix = _FAMILY_TABLE[family]
    if k_matrix is None:
        power, p = m, None
    else:
        (power, _), (_, minus_p) = k_matrix(m).entries
        p = -minus_p
    if p is not None and vanishes(n_electrons, p):
        raise ZeroWavefunctionError(
            f"zero wavefunction: m > 2N+1 (family {family}, N={n_electrons}, m={m})"
        )
    k = 0 if p is None else n_electrons - p // 2
    name = f"family {family}, N={n_electrons}, m={m}"
    orbitals = power * (n_electrons - 1) + 2 * (k > 0) + 1
    if orbitals > MAX_ORBITALS:
        raise ValueError(
            f"{name} spans {orbitals:,} orbitals, more than MAX_ORBITALS = {MAX_ORBITALS}"
        )
    subsets = 1 if p is None else math.comb(n_electrons, p // 2)
    if subsets > MAX_DETERMINANTS:
        raise ValueError(
            f"{name} tries {subsets:,} condensate subsets per determinant,"
            f" more than MAX_DETERMINANTS = {MAX_DETERMINANTS:,}"
        )
    # The build visits only tuples this root dominates: the squeezing
    # recursion those of ((N-1) power, ..., power, 0), and the product by
    # e_k(z_1^2, ..., z_N^2), k = N - p/2, those of that root plus 2 on its
    # first k entries, since sort(lam + nu) is dominated by lam + sort(nu).
    # Each is an N-subset of 0 .. root[0], so the walk is needed only when
    # there are more such subsets than the budget.
    root = tuple(power * (n_electrons - 1 - i) + 2 * (i < k) for i in range(n_electrons))
    if (
        math.comb(root[0] + 1, n_electrons) > MAX_DETERMINANTS
        and _determinants_visited(root) > MAX_DETERMINANTS
    ):
        raise ValueError(
            f"{name} can have more than MAX_DETERMINANTS = {MAX_DETERMINANTS:,} determinants"
        )
    return power, p


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
    if p is None:
        return vandermonde_power(n_electrons, power)
    cond = condense(CondensateKernel(n_electrons, p=p))
    return vandermonde_power(n_electrons, power) * cond.poly


_expansions: dict[tuple[int, int], SlaterExpansion] = {}
"""Vandermonde expansions by (N, power), least recently used first."""
_expansions_lock = threading.Lock()


def _vandermonde(n_electrons: int, power: int) -> SlaterExpansion:
    """vandermonde_expansion(n_electrons, power), memoized per process.

    The memo holds at most MAX_DETERMINANTS determinants in all, no more
    than one state at the size budget: the least recently used expansions
    make room for a new one, and one that alone exceeds the bound is not
    kept.  SlaterExpansion is immutable, so callers share one object.  A
    lock guards the memo, not the build, as lru_cache does.
    """
    key = (n_electrons, power)
    with _expansions_lock:
        expansion = _expansions.pop(key, None)
        if expansion is not None:
            _expansions[key] = expansion
            return expansion
    expansion = vandermonde_expansion(n_electrons, power)
    if len(expansion) <= MAX_DETERMINANTS:
        with _expansions_lock:
            _expansions.pop(key, None)
            _expansions[key] = expansion
            held = sum(map(len, _expansions.values()))
            while held > MAX_DETERMINANTS:
                held -= len(_expansions.pop(next(iter(_expansions))))
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
