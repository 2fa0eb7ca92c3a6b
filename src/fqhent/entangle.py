"""Entanglement measures for fermionic Fock vectors.

The central object is the one-body reduced density matrix
rho_{mu nu} = <a_mu^dag a_nu> / N, computed by exact fermionic contraction.
Its von Neumann entropy always contains ln N of antisymmetrization noise, so
the reported measure subtracts it:

    measure = -tr[rho ln rho] - ln N,

which is zero exactly on single-determinant (separable) states.  For two
fermions two further diagnostics are available: the pairing (standard-form)
decomposition into 2x2 blocks, whose weights reproduce the entropy by an
independent route, and the dual-overlap measure eta defined in a
four-dimensional single-particle space.

Everything upstream of the final logarithms stays in exact rational
arithmetic; entropies and eta are reported as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from .lll import FockConfig, FockVector, amplitude_product

Entry = Fraction | float


class NotTwoFermionError(ValueError):
    """An operation defined only for two-particle states got another N."""


class DimensionNotFourError(ValueError):
    """The dual-overlap measure is defined only for four orbitals."""


@dataclass(frozen=True)
class OneBodyDensityMatrix:
    """Real symmetric density matrix with unit trace, stored sparsely.

    diag holds the dim diagonal entries; off_diagonal maps (mu, nu) with
    mu < nu to the entry rho_{mu nu} = rho_{nu mu} and holds only nonzero
    entries, so the matrix is symmetric by construction and is diagonal
    exactly when off_diagonal is empty.  Entries are exact Fractions
    whenever the underlying amplitude products are rational; the diagonal
    always is.
    """

    dim: int
    diag: tuple[Entry, ...]
    off_diagonal: dict[tuple[int, int], Entry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.diag) != self.dim:
            raise ValueError(f"diagonal has {len(self.diag)} entries, not dim = {self.dim}")
        for (mu, nu), entry in self.off_diagonal.items():
            if not 0 <= mu < nu < self.dim or entry == 0:
                raise ValueError(f"off-diagonal entry ({mu}, {nu}) = {entry} is not stored sparsely")
        if all(isinstance(p, (int, Fraction)) for p in self.diag):
            # over one common denominator: dim Fraction additions would each
            # reduce a growing fraction
            common = math.lcm(*(p.denominator for p in self.diag))
            numerator = sum(p.numerator * (common // p.denominator) for p in self.diag)
            if numerator != common:
                raise ValueError(f"trace is {Fraction(numerator, common)}, not 1")
        elif abs(sum(self.diag) - 1.0) > 1e-9:
            raise ValueError(f"trace is {sum(self.diag)}, not 1")

    def diagonal(self) -> tuple[Entry, ...]:
        return self.diag

    def is_diagonal(self) -> bool:
        """True iff every off-diagonal entry is exactly zero."""
        return not self.off_diagonal

    def as_numpy(self) -> np.ndarray:
        out = np.diag([float(p) for p in self.diag])
        for (mu, nu), entry in self.off_diagonal.items():
            out[mu, nu] = out[nu, mu] = float(entry)
        return out


def one_body_density(v: FockVector) -> OneBodyDensityMatrix:
    """rho_{mu nu} = <a_mu^dag a_nu> / N by exact fermionic contraction.

    The diagonal is the occupation of each orbital over N.  Off the
    diagonal, a_mu |config> is (-1)^(position of mu) times the hole that
    removing mu leaves, so rho_{mu nu} sums the signed amplitude products of
    the configurations that leave the same hole when mu and nu are removed.
    Configurations are therefore grouped by hole and paired only within a
    group.  Configurations sharing a hole differ in total angular momentum by
    mu - nu != 0, so a homogeneous state builds no holes and rho is exactly
    diagonal.  Everything is summed in the state's integer weights; each
    diagonal entry takes one division, by N times their total.
    """
    n, total = v.n_particles, v.total
    occupied = [0] * v.dim
    holes: dict[FockConfig, list[tuple[int, int]]] = {}
    pairs = not v.is_homogeneous()
    for config, weight in v.weights.items():
        for i, mode in enumerate(config):
            occupied[mode] += abs(weight)
            if pairs:
                hole = config[:i] + config[i + 1 :]
                holes.setdefault(hole, []).append((mode, -weight if i % 2 else weight))
    sums: dict[tuple[int, int], Entry] = {}
    for group in holes.values():
        for k, (mu, w_mu) in enumerate(group):
            for nu, w_nu in group[k + 1 :]:
                key = (mu, nu) if mu < nu else (nu, mu)
                sums[key] = sums.get(key, 0) + amplitude_product(w_mu, w_nu, total)
    diag = tuple(Fraction(s, n * total) for s in occupied)
    return OneBodyDensityMatrix(
        v.dim, diag, {key: e / n for key, e in sums.items() if e != 0}
    )


def von_neumann(rho: OneBodyDensityMatrix) -> float:
    """-sum lambda ln lambda over the spectrum, in nats; 0 ln 0 = 0.

    Exactly diagonal matrices use their rational diagonal directly; anything
    else goes through a symmetric eigenvalue solve in double precision.
    """
    if rho.is_diagonal():
        eigenvalues = [float(p) for p in rho.diagonal()]
    else:
        eigenvalues = list(np.linalg.eigvalsh(rho.as_numpy()))
    entropy = 0.0
    for lam in eigenvalues:
        if lam > 1e-15:
            entropy -= lam * math.log(lam)
    return entropy


@dataclass(frozen=True)
class EntanglementReport:
    """Entropy and the N-adjusted measure for one state, in nats and bits."""

    n_particles: int
    entropy_nats: float
    measure_nats: float
    measure_bits: float
    family: str | None = None
    m: int | None = None

    @property
    def t(self) -> int | None:
        return None if self.m is None else (self.m - 1) // 2

    def as_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "N": self.n_particles,
            "m": self.m,
            "t": self.t,
            "S_nats": self.entropy_nats,
            "measure_nats": self.measure_nats,
            "measure_bits": self.measure_bits,
        }


def modified_measure(
    v: FockVector, family: str | None = None, m: int | None = None
) -> EntanglementReport:
    """Entropy of the one-body density matrix minus ln N.

    Values within 1e-12 of zero, on either side, are floating-point residue
    on separable states and are clamped to exactly 0.
    """
    if v.n_particles < 2:
        raise ValueError("entanglement needs at least two particles")
    entropy = von_neumann(one_body_density(v))
    measure = entropy - math.log(v.n_particles)
    if abs(measure) <= 1e-12:
        measure = 0.0
    return EntanglementReport(
        n_particles=v.n_particles,
        entropy_nats=entropy,
        measure_nats=measure,
        measure_bits=measure / math.log(2),
        family=family,
        m=m,
    )


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


@dataclass(frozen=True)
class SlaterPairing:
    """Standard-form decomposition of a two-fermion state into mode pairs.

    Each entry is (mode a, mode b, weight); weights satisfy sum of squares
    equal to 1 and residual counts the modes left unpaired.  basis records
    whether pair indices refer to the original orbitals or to the rotated
    basis produced by the spectral path.
    """

    pairs: tuple[tuple[int, int, float], ...]
    residual: int
    basis: str

    def __post_init__(self) -> None:
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
    w = np.zeros((v.dim, v.dim))
    for (a, b), weight in v.weights.items():
        w[a, b] = math.copysign(math.sqrt(abs(weight) / v.total), weight) / 2
        w[b, a] = -w[a, b]
    return w


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
