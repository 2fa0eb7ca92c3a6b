"""Two-quasihole condensate integrals evaluated by Gaussian moments.

The integral treated here is

    I(z) = ∫∫ d²ξ₁ d²ξ₂  Π_i (ξ₁−z_i)(ξ₂−z_i) · (ξ₁*−ξ₂*)^p · e^{−α(|ξ₁|²+|ξ₂|²)}

with α = 1/3 throughout.  Expanding the integrand in monomials of ξ₁, ξ₂
reduces everything to the diagonal moment identity

    ∫ d²ξ ξ^a (ξ*)^b e^{−α|ξ|²} = δ_{ab} · π · a! · α^{−(a+1)},

so the result is an exact symmetric polynomial in z_1..z_N times a rational
multiple of π².  The zero polynomial is a legitimate outcome and is what
makes some hierarchical construction attempts collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import PiScalar
from .poly import Exponents, MultiPoly


@dataclass(frozen=True)
class CondensateKernel:
    """Parameters of a two-quasihole condensate integral.

    n_electrons is the number of z coordinates, p the power of the
    antiholomorphic pairing factor (ξ₁*−ξ₂*)^p, and alpha the Gaussian width.
    """

    n_electrons: int
    p: int
    alpha: Fraction = Fraction(1, 3)

    def __post_init__(self) -> None:
        if self.n_electrons < 1:
            raise ValueError("need at least one electron")
        if self.p < 0:
            raise ValueError("pairing exponent must be non-negative")
        alpha = Fraction(self.alpha)
        if alpha <= 0:
            raise ValueError("Gaussian width must be positive")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class ScaledPoly:
    """An exact scalar times a primitive integer polynomial.

    The polynomial carries no common integer factor and its leading term in
    the canonical order has positive coefficient; the scale absorbs the
    content, the sign, and the power of π.  The zero value is represented as
    zero scale with the zero polynomial.
    """

    scale: PiScalar
    poly: MultiPoly

    def __post_init__(self) -> None:
        if self.scale.is_zero != self.poly.is_zero:
            raise ValueError("scale must be zero exactly when the polynomial is zero")

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    @classmethod
    def from_rational_terms(
        cls, nvars: int, terms: dict[Exponents, Fraction], pi_power: int
    ) -> "ScaledPoly":
        """Normalize a rational-coefficient term map into scale × primitive poly."""
        terms = {key: coeff for key, coeff in terms.items() if coeff}
        if not terms:
            return cls(PiScalar(Fraction(0)), MultiPoly.zero(nvars))
        denom_lcm = math.lcm(*(coeff.denominator for coeff in terms.values()))
        numer_gcd = math.gcd(*(coeff.numerator for coeff in terms.values()))
        content = Fraction(numer_gcd, denom_lcm)
        leading = max(terms)
        if terms[leading] < 0:
            content = -content
        poly = MultiPoly(nvars, {key: int(coeff / content) for key, coeff in terms.items()})
        return cls(PiScalar(content, pi_power), poly)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{self.scale} * ({self.poly})"


def gaussian_moment(a: int, b: int, alpha: Fraction | int) -> PiScalar:
    """Moment ∫ d²ξ ξ^a (ξ*)^b e^{−α|ξ|²}, exactly.

    Angular integration kills every off-diagonal moment; on the diagonal the
    radial integral gives π · a! · α^{−(a+1)}.
    """
    if a < 0 or b < 0:
        raise ValueError("moment orders must be non-negative")
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("Gaussian width must be positive")
    if a != b:
        return PiScalar(Fraction(0))
    return PiScalar(Fraction(math.factorial(a)) * alpha ** (-(a + 1)), 1)


def condense(kernel: CondensateKernel) -> ScaledPoly:
    """Evaluate the condensate integral as an exact ScaledPoly.

    The holomorphic factor Π_i (ξ₁−z_i)(ξ₂−z_i) is expanded as a polynomial
    in N+2 variables (z_1..z_N, ξ₁, ξ₂), the pairing factor by the binomial
    theorem, and each resulting ξ-monomial is integrated with
    gaussian_moment.  Every surviving term carries π·π, so the result scale
    has π power 2 (or is exactly zero).
    """
    n, p, alpha = kernel.n_electrons, kernel.p, kernel.alpha
    nv = n + 2
    xi1, xi2 = n, n + 1

    holo = MultiPoly.one(nv)
    for i in range(n):
        for xi in (xi1, xi2):
            holo = holo * (MultiPoly.variable(nv, xi) - MultiPoly.variable(nv, i))

    result: dict[Exponents, Fraction] = {}
    for key, coeff in holo.terms.items():
        k, l = key[xi1], key[xi2]
        # Of the binomial terms C(p,j) (−1)^j (ξ₁*)^{p−j} (ξ₂*)^j, the moments
        # vanish off the diagonal, so only j = p − k can survive, and only if l == j.
        j = p - k
        if l != j:
            continue
        m1 = gaussian_moment(k, p - j, alpha)
        m2 = gaussian_moment(l, j, alpha)
        scalar = (m1 * m2).rational * math.comb(p, j) * (-1) ** j * coeff
        z_key = key[:n]
        result[z_key] = result.get(z_key, Fraction(0)) + scalar
    return ScaledPoly.from_rational_terms(n, result, 2)


def vanishes(n_electrons: int, p: int) -> bool:
    """True iff the condensate integral is identically zero.

    Two mechanisms kill it: odd p makes the pairing factor odd under
    ξ₁ ↔ ξ₂ while the rest of the integrand is even, and p > 2N leaves no
    holomorphic degree to match the antiholomorphic one (each ξ appears at
    most to power N).
    """
    if n_electrons < 1:
        raise ValueError("need at least one electron")
    if p < 0:
        raise ValueError("pairing exponent must be non-negative")
    return p % 2 == 1 or p > 2 * n_electrons
