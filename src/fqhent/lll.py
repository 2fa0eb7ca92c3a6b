"""Lowest-Landau-level orbitals and the exact map to second-quantized states.

In symmetric gauge the lowest-Landau-level orbitals are
f_i(z) = A_i z^i e^{−|z|²/4} with A_i = 1/sqrt(pi 2^{i+1} i!).  An
antisymmetric polynomial written in the monomial-determinant basis therefore
becomes a sum over occupation configurations once each determinant is scaled
by the orbital normalizations.  Amplitudes are kept as a sign plus an exact
rational squared magnitude; every coefficient in this package is real, so no
other phase can occur.  The shared factor pi^{N/2} cancels in normalization
and is dropped uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .exact import PiScalar, sqrt_exact
from .poly import SlaterExpansion

FockConfig = tuple[int, ...]
"""Strictly increasing tuple of occupied orbital indices."""


class ZeroStateError(ValueError):
    """A Fock vector was requested for the zero polynomial."""


def orbital_norm_sq(i: int) -> PiScalar:
    """Squared norm of z^i e^{−|z|²/4} over the plane: pi * 2^{i+1} * i!.

    This is A_i^{−2} for the normalized orbital.
    """
    if i < 0:
        raise ValueError("orbital index must be non-negative")
    return PiScalar(Fraction(2 ** (i + 1) * math.factorial(i)), 1)


@dataclass(frozen=True)
class Amplitude:
    """A real amplitude stored as sign times the exact squared magnitude."""

    sign: int
    magnitude_sq: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        magnitude_sq = Fraction(self.magnitude_sq)
        if magnitude_sq < 0:
            raise ValueError("squared magnitude must be non-negative")
        object.__setattr__(self, "magnitude_sq", magnitude_sq)

    @property
    def as_float(self) -> float:
        return self.sign * math.sqrt(float(self.magnitude_sq))

    def product(self, other: "Amplitude") -> Fraction | float:
        """Signed product of two amplitudes, exact whenever the square root is.

        Returns a Fraction when magnitude_sq * other.magnitude_sq is a perfect
        rational square (always the case for states built from rational
        amplitudes), otherwise a float.
        """
        product_sq = self.magnitude_sq * other.magnitude_sq
        sign = self.sign * other.sign
        root = sqrt_exact(product_sq)
        if root is not None:
            return sign * root
        return sign * math.sqrt(float(product_sq))


class FockVector:
    """A normalized N-fermion state over dim lowest-Landau-level orbitals.

    terms maps each occupied configuration (strictly increasing orbital
    tuple) to its Amplitude; squared magnitudes sum to 1 as an exact rational
    identity.
    """

    __slots__ = ("_n_particles", "_dim", "_terms")

    def __init__(
        self, n_particles: int, dim: int, terms: Mapping[FockConfig, Amplitude]
    ) -> None:
        if n_particles < 1:
            raise ValueError("need at least one particle")
        if dim < n_particles:
            raise ValueError("dim must be at least the particle count")
        store: dict[FockConfig, Amplitude] = {}
        total = Fraction(0)
        for config, amp in terms.items():
            config = tuple(config)
            if len(config) != n_particles:
                raise ValueError(f"config {config} does not have {n_particles} orbitals")
            if any(config[i] >= config[i + 1] for i in range(len(config) - 1)):
                raise ValueError(f"config {config} is not strictly increasing")
            if config[0] < 0 or config[-1] >= dim:
                raise ValueError(f"config {config} has orbitals outside 0..{dim - 1}")
            if amp.magnitude_sq == 0:
                continue
            store[config] = amp
            total += amp.magnitude_sq
        if total != 1:
            raise ValueError(f"squared magnitudes sum to {total}, not 1")
        object.__setattr__(self, "_n_particles", n_particles)
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_terms", store)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FockVector is immutable")

    @classmethod
    def from_unnormalized(
        cls,
        n_particles: int,
        dim: int,
        terms: Mapping[FockConfig, tuple[int, Fraction]],
    ) -> "FockVector":
        """Normalize a map config -> (sign, squared magnitude) exactly."""
        total = sum((Fraction(mag) for _, mag in terms.values()), Fraction(0))
        if total == 0:
            raise ZeroStateError("all squared magnitudes are zero")
        return cls(
            n_particles,
            dim,
            {
                config: Amplitude(sign, Fraction(mag) / total)
                for config, (sign, mag) in terms.items()
                if mag
            },
        )

    @classmethod
    def from_rational_amplitudes(
        cls, n_particles: int, dim: int, amplitudes: Mapping[FockConfig, Fraction | int]
    ) -> "FockVector":
        """Build a state from exact rational amplitudes, normalizing exactly."""
        terms: dict[FockConfig, tuple[int, Fraction]] = {}
        for config, amp in amplitudes.items():
            amp = Fraction(amp)
            if amp:
                terms[tuple(config)] = (1 if amp > 0 else -1, amp * amp)
        return cls.from_unnormalized(n_particles, dim, terms)

    # -- queries -----------------------------------------------------------

    @property
    def n_particles(self) -> int:
        return self._n_particles

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping[FockConfig, Amplitude]:
        return MappingProxyType(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[FockConfig, Amplitude]]:
        """Terms in canonical (ascending lexicographic) config order."""
        for config in sorted(self._terms):
            yield config, self._terms[config]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return (
            self._n_particles == other._n_particles
            and self._dim == other._dim
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._n_particles, self._dim, frozenset(self._terms.items())))

    def is_homogeneous(self) -> bool:
        """True iff every config carries the same total angular momentum."""
        return len({sum(config) for config in self._terms}) <= 1

    def occupations(self) -> dict[int, Fraction]:
        """Mean occupation number of each orbital, exactly; values sum to N."""
        out: dict[int, Fraction] = {mode: Fraction(0) for mode in range(self._dim)}
        for config, amp in self._terms.items():
            for mode in config:
                out[mode] += amp.magnitude_sq
        return out

    def __repr__(self) -> str:
        body = {c: (a.sign, a.magnitude_sq) for c, a in self.items()}
        return f"FockVector(N={self._n_particles}, dim={self._dim}, terms={body!r})"


def to_fock(expansion: SlaterExpansion) -> FockVector:
    """Second-quantize a monomial-determinant expansion, exactly normalized.

    A term c_lam det(z_i^{lam_j}) with lam strictly decreasing contributes
    the configuration mu = reversed(lam) with unnormalized amplitude
    c_lam * sigma * sqrt(prod_j 2^{mu_j+1} mu_j!), where sigma is the parity
    of the sorting reversal (a global sign, kept for convention fidelity) and
    the pi^{N/2} common to all terms has been dropped.
    """
    if expansion.is_zero:
        raise ZeroStateError("zero polynomial has no Fock expansion")
    n = expansion.nvars
    reversal_sign = -1 if (n * (n - 1) // 2) % 2 else 1
    unnorm: dict[FockConfig, tuple[int, Fraction]] = {}
    max_orbital = n - 1
    for lam, coeff in expansion.terms.items():
        config = tuple(reversed(lam))
        weight = 1
        for mu in config:
            weight *= 2 ** (mu + 1) * math.factorial(mu)
        sign = reversal_sign * (1 if coeff > 0 else -1)
        unnorm[config] = (sign, Fraction(coeff * coeff * weight))
        max_orbital = max(max_orbital, lam[0])
    return FockVector.from_unnormalized(n, max_orbital + 1, unnorm)


def amplitude_pattern(v: FockVector) -> list[tuple[FockConfig, int]]:
    """Squared-amplitude ratios cleared to smallest integers.

    Configurations appear in canonical ascending order; the integer ratios
    share no common factor.
    """
    configs = sorted(v.terms)
    mags = [v.terms[c].magnitude_sq for c in configs]
    denom_lcm = math.lcm(*(m.denominator for m in mags))
    ints = [m.numerator * (denom_lcm // m.denominator) for m in mags]
    common = math.gcd(*ints)
    return [(c, i // common) for c, i in zip(configs, ints)]


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
