"""Exact scalar helpers shared across the package.

Plane Gaussian integrals contribute one factor of pi each, so every scalar
prefactor arising here is a rational number times an integer power of pi.
Keeping the pi power symbolic avoids transcendental arithmetic entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PiScalar:
    """A scalar q * pi^k with exact rational q and integer k.

    Zero is canonicalized to pi_power == 0 so dataclass equality treats all
    zeros as equal.
    """

    rational: Fraction
    pi_power: int = 0

    def __post_init__(self) -> None:
        rational = Fraction(self.rational)
        object.__setattr__(self, "rational", rational)
        if rational == 0:
            object.__setattr__(self, "pi_power", 0)

    @property
    def is_zero(self) -> bool:
        return self.rational == 0

    def __mul__(self, other: "PiScalar | Fraction | int") -> "PiScalar":
        if isinstance(other, PiScalar):
            return PiScalar(self.rational * other.rational, self.pi_power + other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiScalar(self.rational * other, self.pi_power)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.rational, self.pi_power)

    def __float__(self) -> float:
        return float(self.rational) * math.pi**self.pi_power

    def __str__(self) -> str:
        if self.rational == 0:
            return "0"
        if self.pi_power == 0:
            return str(self.rational)
        pi = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        if self.rational == 1:
            return pi
        if self.rational == -1:
            return f"-{pi}"
        return f"{self.rational}*{pi}"

