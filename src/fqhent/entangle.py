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
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .lll import Amplitude, FockConfig, FockVector

Entry = Fraction | float


class NotTwoFermionError(ValueError):
    """An operation defined only for two-particle states got another N."""


class DimensionNotFourError(ValueError):
    """The dual-overlap measure is defined only for four orbitals."""


@dataclass(frozen=True)
class OneBodyDensityMatrix:
    """Real symmetric density matrix with unit trace.

    Entries are exact Fractions whenever the underlying amplitude products
    are rational squares; homogeneous states always produce exactly diagonal
    rational matrices.
    """

    dim: int
    entries: tuple[tuple[Entry, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.dim or any(
            len(row) != self.dim for row in self.entries
        ):
            raise ValueError("entries must form a dim x dim matrix")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("matrix must be symmetric")
        trace = sum(self.entries[i][i] for i in range(self.dim))
        if isinstance(trace, Fraction):
            if trace != 1:
                raise ValueError(f"trace is {trace}, not 1")
        elif abs(trace - 1.0) > 1e-9:
            raise ValueError(f"trace is {trace}, not 1")

    def diagonal(self) -> tuple[Entry, ...]:
        return tuple(self.entries[i][i] for i in range(self.dim))

    def is_diagonal(self) -> bool:
        """True iff every off-diagonal entry is exactly zero."""
        return all(
            self.entries[i][j] == 0
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )

    def as_numpy(self) -> np.ndarray:
        return np.array([[float(e) for e in row] for row in self.entries])


def one_body_density(v: FockVector) -> OneBodyDensityMatrix:
    """rho_{mu nu} = <a_mu^dag a_nu> / N by exact fermionic contraction.

    Annihilating nu from a configuration picks up (-1)^(position of nu);
    re-creating mu picks up (-1)^(number of remaining orbitals below mu).
    Both bra and ket configurations must be present in the state for a term
    to contribute.  Each off-diagonal entry is accumulated once, for mu < nu,
    and mirrored, so rho is symmetric even when amplitude products are
    floats.
    """
    n, dim = v.n_particles, v.dim
    entries: list[list[Entry]] = [
        [Fraction(0) for _ in range(dim)] for _ in range(dim)
    ]
    for config, amp in v.terms.items():
        for mode in config:
            entries[mode][mode] += amp.magnitude_sq
        for i, nu in enumerate(config):
            rest = config[:i] + config[i + 1 :]
            sign_remove = -1 if i % 2 else 1
            for mu in range(nu):
                if mu in rest:
                    continue
                below = sum(1 for r in rest if r < mu)
                sign_insert = -1 if below % 2 else 1
                bra_config = tuple(sorted(rest + (mu,)))
                bra_amp = v.terms.get(bra_config)
                if bra_amp is None:
                    continue
                entries[mu][nu] += sign_remove * sign_insert * bra_amp.product(amp)
    for nu in range(dim):
        for mu in range(nu):
            entries[nu][mu] = entries[mu][nu]
    scaled = tuple(
        tuple(e / n if isinstance(e, Fraction) else e / n for e in row)
        for row in entries
    )
    return OneBodyDensityMatrix(dim, scaled)


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

    Values within 1e-12 below zero are floating-point residue on separable
    states and are clamped to exactly 0.
    """
    if v.n_particles < 2:
        raise ValueError("entanglement needs at least two particles")
    entropy = von_neumann(one_body_density(v))
    measure = entropy - math.log(v.n_particles)
    if -1e-12 <= measure < 0:
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

    def weights(self) -> tuple[float, ...]:
        return tuple(z for _, _, z in self.pairs)

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
    for (a, b), amp in v.terms.items():
        w[a, b] = amp.as_float / 2
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
    configs = sorted(v.terms)
    seen: set[int] = set()
    disjoint = True
    for a, b in configs:
        if a in seen or b in seen:
            disjoint = False
            break
        seen.update((a, b))
    if disjoint:
        pairs = tuple(
            (a, b, math.sqrt(float(v.terms[(a, b)].magnitude_sq)))
            for a, b in configs
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

    def amp(a: int, b: int) -> Amplitude | None:
        return v.terms.get((a, b))

    pfaffian_terms: list[Fraction | float] = []
    for (a, b), (c, d), sign in (
        ((0, 1), (2, 3), 1),
        ((0, 2), (1, 3), -1),
        ((0, 3), (1, 2), 1),
    ):
        first, second = amp(a, b), amp(c, d)
        if first is None or second is None:
            continue
        pfaffian_terms.append(sign * first.product(second))
    if not pfaffian_terms:
        return 0.0
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
    terms: dict[FockConfig, Amplitude] = {}
    if alpha_sq:
        terms[(0, 1)] = Amplitude(1, alpha_sq)
    if alpha_sq != 1:
        terms[(2, 3)] = Amplitude(1, 1 - alpha_sq)
    state = FockVector(2, 4, terms)
    return modified_measure(state).measure_nats
