"""Lowest-Landau-level orbitals and the exact map to second-quantized states.

In symmetric gauge the lowest-Landau-level orbitals are
f_i(z) = A_i z^i e^{−|z|²/4} with A_i = 1/sqrt(pi 2^{i+1} i!).  An
antisymmetric polynomial written in the monomial-determinant basis therefore
becomes a sum over occupation configurations once each determinant is scaled
by the orbital normalizations.  A state is kept as one signed integer
weight per configuration, its squared amplitude up to a single shared
total; every coefficient in this package is real, so no other phase can
occur.  The shared factor pi^{N/2} cancels in normalization and is dropped
uniformly.

to_fock builds that state.  The CLI and the sweeps need only the orbital
occupations of a homogeneous family state, which occupations sums from the
same weights in one pass over the determinants, with no configuration map
and no gcd reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import lt, mul
from types import MappingProxyType
from typing import Mapping

from ._record import Record
from .poly import SlaterExpansion, _check_ints

FockConfig = tuple[int, ...]
"""Strictly increasing tuple of occupied orbital indices."""


class ZeroStateError(ValueError):
    """A Fock vector was requested for the zero polynomial."""


class Amplitude(Record):
    """One entry of FockVector.terms: a sign and the exact squared magnitude."""

    __slots__ = ("sign", "magnitude_sq")

    @property
    def as_float(self) -> float:
        return self.sign * math.sqrt(float(self.magnitude_sq))


def amplitude_product(w: int, x: int, total: int) -> Fraction | float:
    """Product sign(w x) sqrt(|w x|) / total of the amplitudes with weights w and x.

    A Fraction when |w x| is a perfect square (always the case when both
    amplitudes are rational), otherwise a float.
    """
    magnitude = abs(w * x)
    sign = 1 if (w < 0) == (x < 0) else -1
    root = math.isqrt(magnitude)
    if root * root == magnitude:
        return Fraction(sign * root, total)
    return sign * math.sqrt(magnitude / (total * total))


class FockVector(Record):
    """A normalized N-fermion state over dim lowest-Landau-level orbitals.

    n_particles fermions occupy orbitals 0 .. dim - 1, both Python ints.
    Each occupied configuration c (a strictly increasing orbital tuple)
    carries a signed integer weight w_c, the weights sharing no common
    factor; its amplitude is sign(w_c) sqrt(|w_c| / total), where total is
    the sum of the |w_c|, so |w_c| / total is its squared amplitude.  It is
    built from any signed integer weights, which are reduced on the way in
    and stored as weights, a read-only view; terms shows the same exact
    values as Amplitudes.
    """

    __slots__ = ("n_particles", "dim", "weights", "total")

    def __init__(self, n_particles: int, dim: int, weights: Mapping[FockConfig, int]) -> None:
        for config, weight in weights.items():
            if not isinstance(weight, int):
                raise ValueError(f"config {config}: weight {weight!r} is not an integer")
        _check_ints(n_particles=n_particles, dim=dim)
        if n_particles < 1:
            raise ValueError("need at least one particle")
        if dim < n_particles:
            raise ValueError("dim must be at least the particle count")
        for config in weights:
            if len(config) != n_particles:
                raise ValueError(f"config {config} does not have {n_particles} orbitals")
            if not all(map(isinstance, config, repeat(int))):
                raise ValueError(f"config {config} has an orbital that is not an integer")
            if not all(map(lt, config, config[1:])):
                raise ValueError(f"config {config} is not strictly increasing")
            if config[0] < 0 or config[-1] >= dim:
                raise ValueError(f"config {config} has orbitals outside 0..{dim - 1}")
        self._store(n_particles, dim, weights)

    @classmethod
    def _from_weights(cls, n_particles: int, dim: int, weights: Mapping[FockConfig, int]):
        """Adopt weights whose configurations were built valid, as to_fock's are."""
        state = cls.__new__(cls)
        state._store(n_particles, dim, weights)
        return state

    def _store(self, n_particles: int, dim: int, weights: Mapping[FockConfig, int]) -> None:
        common = math.gcd(*weights.values())
        if common == 0:
            raise ZeroStateError("all weights are zero")
        store = MappingProxyType({tuple(c): w // common for c, w in weights.items() if w})
        Record.__init__(self, n_particles, dim, store, sum(map(abs, store.values())))

    @classmethod
    def from_unnormalized(
        cls,
        n_particles: int,
        dim: int,
        terms: Mapping[FockConfig, tuple[int, Fraction]],
    ) -> "FockVector":
        """Normalize a map config -> (sign, int or Fraction squared magnitude)
        exactly: over one denominator they are the weights __init__ checks."""
        for config, (sign, mag) in terms.items():
            bad_sign = not isinstance(sign, int) or sign not in (1, -1)
            if bad_sign or not isinstance(mag, (int, Fraction)) or mag < 0:
                raise ValueError(f"config {config}: need sign +1 or -1, int or Fraction >= 0")
        # signed squared magnitudes times the lcm of their denominators
        lcm = math.lcm(*(mag.denominator for _, mag in terms.values()))
        weights = {c: s * mag.numerator * (lcm // mag.denominator) for c, (s, mag) in terms.items()}
        return cls(n_particles, dim, weights)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[FockConfig, Amplitude]:
        return MappingProxyType({
            c: Amplitude(1 if w > 0 else -1, Fraction(abs(w), self.total))
            for c, w in self.weights.items()
        })

    def __len__(self) -> int:
        return len(self.weights)

    def __reduce__(self) -> tuple:
        return type(self), (self.n_particles, self.dim, dict(self.weights))

    def is_homogeneous(self) -> bool:
        """True iff every config carries the same total angular momentum."""
        configs = iter(self.weights)
        momentum = sum(next(configs, ()))
        return not any(sum(config) != momentum for config in configs)

    def __repr__(self) -> str:
        body = dict(sorted(self.weights.items()))
        return f"{type(self).__qualname__}({self.n_particles}, {self.dim}, {body!r})"


def _ratio_tables(expansion: SlaterExpansion) -> tuple[int, list[list[int]]]:
    """dim and, for each entry k of the strictly decreasing exponents lam,
    the table ratios[k][lam_k] = lam_k! / f_k! for f_k <= lam_k <= c_k, with
    f_k and c_k the smallest and the largest lam_k of any determinant: its
    floor and its ceiling.  A table stops at its ceiling, so no factorial is
    multiplied that no lam_k indexes.  One pass over the determinants reads
    the entries one column at a time.  Raises ZeroStateError on the zero
    expansion.
    """
    if expansion.is_zero:
        raise ZeroStateError("zero polynomial has no Fock expansion")
    ratios = []
    for column in zip(*expansion.terms):
        floor, ceiling = min(column), max(column)
        table = accumulate(range(floor + 1, ceiling + 1), mul, initial=1)
        ratios.append([0] * floor + list(table))
    # the first entry is every lam's largest
    return len(ratios[0]), ratios


def to_fock(expansion: SlaterExpansion) -> FockVector:
    """Second-quantize a monomial-determinant expansion, exactly normalized.

    A term c_lam det(z_i^{lam_j}) with lam strictly decreasing contributes
    the configuration mu = reversed(lam) with unnormalized amplitude
    c_lam * sigma * sqrt(prod_j 2^{mu_j+1} mu_j!), where sigma is the parity
    of the sorting reversal (a global sign, kept for convention fidelity) and
    the pi^{N/2} common to all terms has been dropped.  Its integer weight is
    that amplitude's sign times its square, c_lam^2 prod_j 2^{mu_j+1} mu_j!,
    which is c_lam^2 prod_j (mu_j! / f_j!) 2^(|mu| - min |mu|) times a factor
    2^(min |mu| + N) prod_j f_j! shared by every configuration, with f_j the
    smallest mu_j of any configuration and |mu| = sum_j mu_j.  Only the first
    part is computed: the gcd reduction gives the same weights either way.
    """
    dim, ratios = _ratio_tables(expansion)
    n = expansion.nvars
    reversal_sign = -1 if (n * (n - 1) // 2) % 2 else 1
    momenta = list(map(sum, expansion.terms))
    lowest = min(momenta)
    weights: dict[FockConfig, int] = {}
    for (lam, coeff), momentum in zip(expansion.terms.items(), momenta):
        weight = coeff * coeff
        for ratio, mu in zip(ratios, lam):
            weight *= ratio[mu]
        weight <<= momentum - lowest
        weights[lam[::-1]] = weight if reversal_sign * coeff > 0 else -weight
    return FockVector._from_weights(n, dim, weights)


def occupations(expansion: SlaterExpansion) -> tuple[list[int], int]:
    """The occupation numerator of each orbital and the total weight.

    One pass over a homogeneous expansion: each determinant's weight is
    to_fock's, c_lam^2 prod_j (mu_j! / f_j!) (the power of 2 is 1 when every
    |mu| is equal), read from tables that run, for each entry of lam, from
    its floor to its ceiling, the smallest and the largest value it takes,
    and it is added to the total and to each orbital the determinant
    occupies.  Orbital mu's occupation is then occupied[mu] / total, and
    the one-body density matrix is diagonal with entries occupied[mu] /
    (N total).  The weights are not reduced by their gcd: to_fock's state
    has the same occupations over the same total up to one positive factor,
    and a ratio of ints is correctly rounded whatever factor both sides
    share, so every float read from them has the same bits.

    Raises ZeroStateError on the zero expansion, and ValueError when the
    determinants carry more than one total angular momentum, whose density
    matrix is not diagonal.
    """
    dim, ratios = _ratio_tables(expansion)
    momenta = set(map(sum, expansion.terms))
    if len(momenta) > 1:
        raise ValueError(
            f"expansion is not homogeneous: its determinants carry {len(momenta)} total"
            " angular momenta, so its density matrix is not diagonal"
        )
    occupied = [0] * dim
    total = 0
    for lam, coeff in expansion.terms.items():
        weight = coeff * coeff
        for ratio, mu in zip(ratios, lam):
            weight *= ratio[mu]
        total += weight
        for mu in lam:
            occupied[mu] += weight
    return occupied, total


def amplitude_pattern(v: FockVector) -> list[tuple[FockConfig, int]]:
    """Squared-amplitude ratios as smallest integers: the absolute weights.

    Configurations appear in canonical ascending order; the integer ratios
    share no common factor.
    """
    return sorted((config, abs(w)) for config, w in v.weights.items())


def slater_coefficient_magnitudes(
    expansion: SlaterExpansion,
) -> list[tuple[FockConfig, int]]:
    """Absolute determinant-basis coefficients keyed by configuration.

    These are the integer coefficients before any orbital normalization is
    applied, listed in canonical ascending config order.
    """
    out = [
        (tuple(reversed(lam)), abs(coeff)) for lam, coeff in expansion.terms.items()
    ]
    return sorted(out)
