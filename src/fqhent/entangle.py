"""Two-fermion diagnostics of a Fock vector.

For two fermions: the pairing (standard-form) decomposition into 2x2
blocks, whose weights reproduce the entropy by an independent route; the
dual-overlap measure eta in a four-dimensional single-particle space; the
analytic N = 2 Laughlin measure; and the two-qubit consistency check.  The
measure itself lives in measure and is re-exported here.

numpy is imported at module level on purpose: whoever imports this module
pays for it at import, not inside a first non-diagonal contraction.  The
compute, table and figure paths import measure instead and never load it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._record import Record
from .lll import FockVector, amplitude_product
from .measure import (  # re-exported, one definition each
    EntanglementReport,
    Entry,
    OneBodyDensityMatrix,
    modified_measure,
    one_body_density,
    von_neumann,
)

class NotTwoFermionError(ValueError):
    """An operation defined only for two-particle states got another N."""


class DimensionNotFourError(ValueError):
    """The dual-overlap measure is defined only for four orbitals."""


def closed_form_sf_laughlin2(m: int) -> float:
    """Analytic N=2 measure: (m-1) ln 2 - 2^{-(m-1)} sum_k C(m,k) ln C(m,k).

    The sum runs over k = 0 .. (m-1)/2, one term per occupied configuration
    {k, m-k}; the value is in nats.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")
    weight = Fraction(1, 2 ** (m - 1))
    total = (m - 1) * math.log(2)
    for k in range((m - 1) // 2 + 1):
        binom = math.comb(m, k)
        total -= float(weight) * binom * math.log(binom)
    return total


class SlaterPairing(Record):
    """Standard-form decomposition of a two-fermion state into mode pairs.

    Each entry is (mode a, mode b, weight); weights satisfy sum of squares
    equal to 1 and residual counts the modes left unpaired.  basis records
    whether pair indices refer to the original orbitals or to the rotated
    basis produced by the spectral path.
    """

    __slots__ = ("pairs", "residual", "basis")

    def __init__(
        self, pairs: tuple[tuple[int, int, float], ...], residual: int, basis: str
    ) -> None:
        super().__init__(pairs, residual, basis)
        if self.basis not in ("orbital", "rotated"):
            raise ValueError("basis must be 'orbital' or 'rotated'")
        total = sum(z * z for _, _, z in self.pairs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pair weights have squared sum {total}, not 1")

    def entropy_nats(self) -> float:
        """Entropy of the one-body density matrix recomputed from weights.

        Each pair contributes two eigenvalues z^2/2, so the entropy is
        -sum z^2 ln(z^2/2).
        """
        entropy = 0.0
        for _, _, z in self.pairs:
            zsq = z * z
            if zsq > 1e-15:
                entropy -= zsq * math.log(zsq / 2)
        return entropy


def _pairing_matrix(v: FockVector) -> np.ndarray:
    dim, total = v.dim, v.total
    flat = [0.0] * (dim * dim)
    for (a, b), weight in v.weights.items():
        half = math.copysign(math.sqrt(abs(weight) / total), weight) / 2
        flat[a * dim + b] = half
        flat[b * dim + a] = -half
    return np.array(flat).reshape(dim, dim)


def slater_pairing(v: FockVector) -> SlaterPairing:
    """Decompose a two-fermion state into paired modes with weights.

    When no orbital appears in more than one configuration (always true for
    homogeneous states) the configs themselves are the pairs and the weights
    are the amplitude magnitudes.  Otherwise the pairs live in a rotated
    basis and their weights come from the singular values of the
    antisymmetric coefficient matrix.
    """
    if v.n_particles != 2:
        raise NotTwoFermionError(f"pairing requires N=2, got N={v.n_particles}")
    weights = v.weights
    configs = sorted(weights)
    seen: set[int] = set()
    disjoint = True
    for a, b in configs:
        if a in seen or b in seen:
            disjoint = False
            break
        seen.update((a, b))
    if disjoint:
        pairs = tuple(
            (a, b, math.sqrt(abs(weights[(a, b)]) / v.total)) for a, b in configs
        )
        return SlaterPairing(pairs, v.dim - 2 * len(pairs), "orbital")
    # The singular values of a real antisymmetric matrix come in equal pairs
    # s, s, one pair per 2x2 block [[0, s], [-s, 0]] of its standard form;
    # the standard-form weight is 2s.
    singular = np.linalg.svd(_pairing_matrix(v), compute_uv=False)
    weights = [2 * float(s) for s in singular[0::2] if s > 1e-12]
    pairs = tuple((2 * k, 2 * k + 1, z) for k, z in enumerate(weights))
    return SlaterPairing(pairs, v.dim - 2 * len(pairs), "rotated")


def schliemann_eta(v: FockVector) -> float:
    """Dual-overlap measure for two fermions in four orbitals.

    For the antisymmetric coefficient matrix w (w_{ab} = amplitude of config
    {a,b} divided by 2) the measure is 8 |Pf(w)|, which reduces to
    2 |a01 a23 - a02 a13 + a03 a12| in the stored amplitudes.  It is 0
    exactly on single determinants and their basis rotations, and 1 on the
    maximally correlated state.
    """
    if v.n_particles != 2:
        raise NotTwoFermionError(f"eta requires N=2, got N={v.n_particles}")
    if v.dim != 4:
        raise DimensionNotFourError(f"eta requires dim=4, got dim={v.dim}")
    weights = v.weights
    pfaffian_terms = [
        sign * amplitude_product(weights[first], weights[second], v.total)
        for first, second, sign in (((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1))
        if first in weights and second in weights
    ]
    exact = [p for p in pfaffian_terms if isinstance(p, Fraction)]
    inexact = [p for p in pfaffian_terms if not isinstance(p, Fraction)]
    total = float(sum(exact, Fraction(0))) + sum(inexact)
    return 2 * abs(total)


def two_qubit_consistency(alpha_sq: Fraction | int) -> float:
    """Measure of the state (alpha a0^dag a1^dag + beta a2^dag a3^dag)|0>.

    alpha_sq is |alpha|^2 with |beta|^2 = 1 - alpha_sq; the returned value
    must coincide with the distinguishable-particle Schmidt entropy
    -|alpha|^2 ln|alpha|^2 - |beta|^2 ln|beta|^2.
    """
    alpha_sq = Fraction(alpha_sq)
    if not 0 <= alpha_sq <= 1:
        raise ValueError(f"alpha_sq must lie in [0, 1], got {alpha_sq}")
    a, b = alpha_sq.numerator, alpha_sq.denominator
    return modified_measure(FockVector(2, 4, {(0, 1): a, (2, 3): b - a})).measure_nats
