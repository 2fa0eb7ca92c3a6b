"""The single-particle entanglement measure of a fermionic Fock vector.

The central object is the one-body reduced density matrix
rho_{mu nu} = <a_mu^dag a_nu> / N, computed by exact fermionic contraction.
Its von Neumann entropy always contains ln N of antisymmetrization noise, so
the reported measure subtracts it:

    measure = -tr[rho ln rho] - ln N,

which is zero exactly on single-determinant (separable) states.  Everything
upstream of the final logarithms stays in exact rational arithmetic;
entropies are reported as Python floats on both of von_neumann's branches.
Every family state is homogeneous, so its density matrix is exactly
diagonal and needs no linear algebra: numpy is imported only inside
as_numpy and von_neumann's non-diagonal branch.  The matrix and the report
are immutable slot records, built on fqhent._record.Record.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from ._record import Record
from .lll import FockConfig, FockVector, amplitude_product

if TYPE_CHECKING:
    import numpy as np

Entry = Fraction | float


class OneBodyDensityMatrix(Record):
    """Real symmetric density matrix with unit trace, stored sparsely.

    diag holds the dim diagonal entries; off_diagonal maps (mu, nu) with
    mu < nu to the entry rho_{mu nu} = rho_{nu mu} and holds only nonzero
    entries, so the matrix is symmetric by construction and is diagonal
    exactly when off_diagonal is empty.  Entries are exact Fractions
    whenever the underlying amplitude products are rational; the diagonal
    always is.
    """

    __slots__ = ("dim", "diag", "off_diagonal")

    def __init__(
        self,
        dim: int,
        diag: tuple[Entry, ...],
        off_diagonal: dict[tuple[int, int], Entry] | None = None,
    ) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off_diagonal", {} if off_diagonal is None else off_diagonal)
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
        import numpy as np

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
    else goes through a symmetric eigenvalue solve in double precision, whose
    eigenvalues are taken as Python floats, so the result is a float either way.
    """
    if rho.is_diagonal():
        eigenvalues = [float(p) for p in rho.diagonal()]
    else:
        import numpy as np

        eigenvalues = np.linalg.eigvalsh(rho.as_numpy()).tolist()
    entropy = 0.0
    for lam in eigenvalues:
        if lam > 1e-15:
            entropy -= lam * math.log(lam)
    return entropy


class EntanglementReport(Record):
    """Entropy and the N-adjusted measure for one state, in nats and bits."""

    __slots__ = ("n_particles", "entropy_nats", "measure_nats", "measure_bits", "family", "m")

    def __init__(
        self,
        n_particles: int,
        entropy_nats: float,
        measure_nats: float,
        measure_bits: float,
        family: str | None = None,
        m: int | None = None,
    ) -> None:
        object.__setattr__(self, "n_particles", n_particles)
        object.__setattr__(self, "entropy_nats", entropy_nats)
        object.__setattr__(self, "measure_nats", measure_nats)
        object.__setattr__(self, "measure_bits", measure_bits)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "m", m)

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
