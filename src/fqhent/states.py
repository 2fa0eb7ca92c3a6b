"""Constructors for the model wavefunction families.

Three families are built, each as an exact polynomial in z_1..z_N that is
then pushed through the determinant projection and orbital normalization:

  laughlin          prod_{j<k} (z_j - z_k)^m
  hierarchical_phi  Vandermonde^m times the p=2 quasihole condensate
  chi               Vandermonde^1 times the p=m-1 quasihole condensate

The condensate scalar prefactor is discarded before multiplication since
every entanglement quantity is invariant under global scaling; the verify
report surfaces it separately.  Odd m is required throughout: an even power
of the Vandermonde factor would break fermionic antisymmetry.

The chi construction collapses when the condensate integral vanishes
(m > 2N+1), which is reported as ZeroWavefunctionError rather than a state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lll import FockVector, to_fock
from .poly import MultiPoly, slater_project, vandermonde_power
from .quasihole import CondensateKernel, condense, vanishes

MAX_ELECTRONS = 5
"""Upper limit on N for family constructors; guards combinatorial blowup."""

# name -> (Vandermonde power, condensate exponent p or None), each as a
# function of m.  The condensate factor multiplies the Vandermonde power.
_FAMILY_TABLE = {
    "laughlin": (lambda m: m, None),
    "hierarchical_phi": (lambda m: m, lambda m: 2),
    "chi": (lambda m: 1, lambda m: m - 1),
}


class ZeroWavefunctionError(ValueError):
    """The requested construction is identically zero, not a state."""


def _check_family_params(n_electrons: int, m: int) -> None:
    if n_electrons < 2:
        raise ValueError("need at least two electrons")
    if n_electrons > MAX_ELECTRONS:
        raise ValueError(f"N={n_electrons} exceeds the supported limit {MAX_ELECTRONS}")
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")


def family_polynomial(family: str, n_electrons: int, m: int) -> MultiPoly:
    """The antisymmetric polynomial part of a family wavefunction.

    Raises ZeroWavefunctionError when the condensate vanishes (for chi,
    m > 2N+1) and ValueError for unknown families or bad parameters.
    """
    _check_family_params(n_electrons, m)
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(_FAMILY_TABLE)}")
    power, exponent = _FAMILY_TABLE[family]
    if exponent is None:
        return vandermonde_power(n_electrons, power(m))
    p = exponent(m)
    if vanishes(n_electrons, p):
        raise ZeroWavefunctionError(
            f"zero wavefunction: m > 2N+1 (family {family}, N={n_electrons}, m={m})"
        )
    cond = condense(CondensateKernel(n_electrons, p=p))
    return vandermonde_power(n_electrons, power(m)) * cond.poly


def laughlin(n_electrons: int, m: int) -> FockVector:
    """Normalized state Vandermonde^m; a single determinant when m = 1."""
    return to_fock(slater_project(family_polynomial("laughlin", n_electrons, m)))


def hierarchical_phi(n_electrons: int, m: int) -> FockVector:
    """Normalized state Vandermonde^m times the p=2 condensate polynomial."""
    return to_fock(slater_project(family_polynomial("hierarchical_phi", n_electrons, m)))


def chi(n_electrons: int, m: int) -> FockVector:
    """Normalized state Vandermonde times the p=m-1 condensate polynomial.

    Raises ZeroWavefunctionError when m > 2N+1.
    """
    return to_fock(slater_project(family_polynomial("chi", n_electrons, m)))


FAMILIES = {f.__name__: f for f in (laughlin, hierarchical_phi, chi)}


@dataclass(frozen=True)
class KMatrix:
    """A symmetric integer 2x2 matrix with a charge vector, default (1, 0)."""

    entries: tuple[tuple[int, int], tuple[int, int]]
    charge: tuple[int, int] = (1, 0)

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.entries
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
    """K-matrix of the hierarchical_phi family: ((m, 1), (1, -2))."""
    return KMatrix(((m, 1), (1, -2)))


def chi_k(m: int) -> KMatrix:
    """K-matrix of the chi family: ((1, 1), (1, -(m-1)))."""
    return KMatrix(((1, 1), (1, -(m - 1))))
