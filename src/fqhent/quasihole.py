"""Two-quasihole condensate integrals evaluated by Gaussian moments.

The integral treated here is

    I(z) = ∫∫ d²ξ₁ d²ξ₂  Π_i (ξ₁−z_i)(ξ₂−z_i) · (ξ₁*−ξ₂*)^p · e^{−α(|ξ₁|²+|ξ₂|²)}

with α = ALPHA = 1/3 throughout.  Each holomorphic product expands in the
elementary symmetric polynomials of z_1..z_N (Macdonald, ch. I),

    Π_i (ξ−z_i) = Σ_k (−1)^{N−k} e_{N−k}(z) ξ^k,

the pairing factor by the binomial theorem, and the diagonal moment identity

    ∫ d²ξ ξ^a (ξ*)^b e^{−α|ξ|²} = δ_{ab} · π · a! · α^{−(a+1)} = δ_{ab} · π · M(a)

keeps only ξ₁^{p−j} ξ₂^j from the j-th binomial term, so that

    I(z) = π² Σ_j C(p, j) (−1)^{p+j} M(p−j) M(j) · e_{N−p+j}(z) e_{N−j}(z)

over max(0, p−N) ≤ j ≤ min(N, p): an exact symmetric polynomial in
z_1..z_N times a rational multiple of π².  Each C(p, j) M(p−j) M(j) equals
p! α^{−(p+2)}, so α scales I(z) and nothing else.  The zero polynomial
is a legitimate outcome and is what makes some hierarchical construction
attempts collapse.  Up to its scalar, a nonzero I(z) is the single
symmetric polynomial e_{N−p/2}(z_1², …, z_N²), which the state
constructors multiply in by its Pieri rule
(fqhent.states.family_expansion); condense stays the independent route
that checks it.

Every π here is a fixed power that cancels once a state is normalized, so
no π is carried: gaussian_moment returns the moment over π and a
ScaledPoly's scale is the integral over π².
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .poly import Exponents, MultiPoly, _check_ints, elementary_symmetric

ALPHA = Fraction(1, 3)
"""Gaussian width α of the quasihole measure e^{−α|ξ|²}."""


class CondensateKernel(Record):
    """Parameters of a two-quasihole condensate integral.

    n_electrons is the number of z coordinates and p the power of the
    antiholomorphic pairing factor (ξ₁*−ξ₂*)^p; both are Python ints.
    """

    __slots__ = ("n_electrons", "p")

    def __init__(self, n_electrons: int, p: int) -> None:
        _check_ints(n_electrons=n_electrons, p=p)
        super().__init__(n_electrons, p)
        if self.n_electrons < 1:
            raise ValueError("need at least one electron")
        if self.p < 0:
            raise ValueError("pairing exponent must be non-negative")


class ScaledPoly(Record):
    """π² times a rational scale times a primitive integer polynomial.

    The polynomial carries no common integer factor and its leading term in
    the canonical order has positive coefficient; the scale absorbs the
    content and the sign, and the π² is implied.  The zero value is
    represented as zero scale with the zero polynomial.
    """

    __slots__ = ("scale", "poly")

    def __init__(self, scale: Fraction, poly: MultiPoly) -> None:
        super().__init__(scale, poly)
        if (self.scale == 0) != self.poly.is_zero:
            raise ValueError("scale must be zero exactly when the polynomial is zero")

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    @classmethod
    def from_rational_terms(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "ScaledPoly":
        """Normalize a rational-coefficient term map into scale × primitive poly."""
        terms = {key: coeff for key, coeff in terms.items() if coeff}
        if not terms:
            return cls(Fraction(0), MultiPoly(nvars))
        denom_lcm = math.lcm(*(coeff.denominator for coeff in terms.values()))
        numer_gcd = math.gcd(*(coeff.numerator for coeff in terms.values()))
        content = Fraction(numer_gcd, denom_lcm)
        leading = max(terms)
        if terms[leading] < 0:
            content = -content
        poly = MultiPoly(nvars, {key: int(coeff / content) for key, coeff in terms.items()})
        return cls(content, poly)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{self.scale}*pi^2 * ({self.poly})"


def gaussian_moment(a: int, b: int) -> Fraction:
    """Moment ∫ d²ξ ξ^a (ξ*)^b e^{−α|ξ|²} over π, exactly, at α = ALPHA.

    Angular integration kills every off-diagonal moment; on the diagonal the
    radial integral gives π · a! · α^{−(a+1)}.  α is not a parameter: it
    only scales the condensate, which normalization discards.
    """
    _check_ints(a=a, b=b)
    if a < 0 or b < 0:
        raise ValueError("moment orders must be non-negative")
    if a != b:
        return Fraction(0)
    return math.factorial(a) * ALPHA ** (-(a + 1))


def condense(kernel: CondensateKernel) -> ScaledPoly:
    """Evaluate the condensate integral as an exact ScaledPoly.

    Since Π_i (ξ−z_i) = Σ_k (−1)^{N−k} e_{N−k}(z) ξ^k and the moments keep
    only ξ₁^{p−j} ξ₂^j from the j-th binomial term of (ξ₁*−ξ₂*)^p, the
    result is Σ_j weight_j · e_{N−p+j}(z) · e_{N−j}(z) over
    max(0, p−N) ≤ j ≤ min(N, p), with weight_j = C(p, j) (−1)^{p+j}
    M(p−j) M(j) and M(k) = gaussian_moment(k, k), the moment over π.
    Every term carries π·π, which the scale leaves implied.
    """
    n, p = kernel.n_electrons, kernel.p
    moment = [gaussian_moment(k, k) for k in range(min(n, p) + 1)]
    result: dict[Exponents, Fraction] = {}
    for j in range(max(0, p - n), min(n, p) + 1):
        weight = math.comb(p, j) * (-1) ** (p + j) * moment[p - j] * moment[j]
        product = elementary_symmetric(n, n - p + j) * elementary_symmetric(n, n - j)
        for key, coeff in product.terms.items():
            result[key] = result.get(key, Fraction(0)) + weight * coeff
    return ScaledPoly.from_rational_terms(n, result)


def vanishes(n_electrons: int, p: int) -> bool:
    """True iff the condensate integral is identically zero.

    Two mechanisms kill it: odd p makes the pairing factor odd under
    ξ₁ ↔ ξ₂ while the rest of the integrand is even, and p > 2N leaves no
    holomorphic degree to match the antiholomorphic one (each ξ appears at
    most to power N).  Raises ValueError where CondensateKernel does.
    """
    CondensateKernel(n_electrons, p)
    return p % 2 == 1 or p > 2 * n_electrons
