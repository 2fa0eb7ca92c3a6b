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
as_numpy and von_neumann's non-diagonal branch.  The CLI and the sweeps
build that diagonal from fqhent.lll.occupations, with no FockVector
(fqhent.figures.family_report); modified_measure takes the FockVector
route, and both turn the entropy into the report by
EntanglementReport.from_entropy.  The matrix and the report are immutable
slot records, built on fqhent._record.Record.

The matrix keeps its diagonal as the integer occupations the contraction
sums over the one denominator N times the state's total weight, in lowest
terms.  diag builds reduced Fractions from them only when read, and
von_neumann and as_numpy divide each numerator by the denominator: int
true division is correctly rounded, as float(Fraction) is, so every
eigenvalue and matrix entry has the bits of the reduced Fraction's float.

Off the diagonal, one_body_density pairs the configurations that leave the
same hole when one orbital is removed.  It keys each hole by a bitmask of
the orbitals left and each entry by one integer, and sums an entry as an
integer numerator over the state's total weight until its first irrational
amplitude product, then as a float.  Int true division is correctly rounded,
so each entry is, type and bits, what adding exact Fraction and float
products one at a time in the same order gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from ._record import Record
from .lll import FockVector
from .poly import _check_ints

if TYPE_CHECKING:
    import numpy as np

Entry = Fraction | float


class OneBodyDensityMatrix(Record):
    """Real symmetric density matrix with unit trace, stored sparsely.

    The diagonal is stored once, in lowest terms: dim integers over one
    positive denominator, sharing no common factor, so a matrix has one
    stored form.  diag builds its reduced Fractions on access; von_neumann
    and as_numpy divide each numerator by the denominator, which rounds
    correctly as float(Fraction) does, so the floats keep their bits.
    off_diagonal is a read-only map from (mu, nu), mu < nu, to the nonzero
    entry rho_{mu nu} = rho_{nu mu}, so the matrix is symmetric by
    construction and diagonal exactly when off_diagonal is empty; an entry
    is an exact Fraction when its amplitude products are rational, else a
    float.

    The constructor takes diagonal entries, each an int, a Fraction or a
    float.  Ints and Fractions must be non-negative and sum to exactly 1;
    with any float among them, 1e-9 of either is allowed and each entry is
    stored by its exact binary ratio.
    An off-diagonal entry that is not an int or a Fraction must be finite,
    and dim must be a Python int.  Record compares and hashes the stored fields;
    repr and pickle give the constructor's dim, diag and off_diagonal.
    """

    __slots__ = ("dim", "numerators", "denominator", "off_diagonal")

    def __init__(
        self,
        dim: int,
        diag: tuple[Entry, ...],
        off_diagonal: dict[tuple[int, int], Entry] | None = None,
    ) -> None:
        _check_ints(dim=dim)
        if len(diag) != dim:
            raise ValueError(f"diagonal has {len(diag)} entries, not dim = {dim}")
        for p in diag:
            if not isinstance(p, (int, Fraction, float)):
                raise ValueError(f"diagonal entry {p!r} is not an int, a Fraction or a float")
        exact = all(isinstance(p, (int, Fraction)) for p in diag)
        if not exact and abs(sum(diag) - 1.0) > 1e-9:
            raise ValueError(f"trace is {sum(diag)}, not 1")
        for p in diag:
            if p < (0 if exact else -1e-9):
                raise ValueError(f"diagonal entry {p} is negative")
        ratios = [p.as_integer_ratio() for p in diag]
        denominator = math.lcm(*(q for _, q in ratios))
        numerators = tuple(p * (denominator // q) for p, q in ratios)
        off_diagonal = dict(off_diagonal or {})
        for key, entry in off_diagonal.items():
            if not isinstance(entry, (int, Fraction)) and not math.isfinite(entry):
                raise ValueError(f"off-diagonal entry {key} = {entry} is not finite")
        self._store(dim, numerators, denominator, off_diagonal, exact)

    @classmethod
    def _from_occupations(
        cls, dim: int, numerators: tuple[int, ...], denominator: int, off_diagonal: dict
    ) -> "OneBodyDensityMatrix":
        """Adopt dim non-negative integers over one denominator and a dict
        no one else holds; the trace and the sparse keys are still checked."""
        rho = cls.__new__(cls)
        rho._store(dim, numerators, denominator, off_diagonal)
        return rho

    def _store(
        self,
        dim: int,
        numerators: tuple[int, ...],
        denominator: int,
        off_diagonal: dict,
        exact: bool = True,
    ) -> None:
        """Check the trace, exactly unless the diagonal had floats, and the
        sparse keys and entries, then set the slots, the diagonal in lowest terms."""
        if exact and sum(numerators) != denominator:
            raise ValueError(f"trace is {Fraction(sum(numerators), denominator)}, not 1")
        for (mu, nu), entry in off_diagonal.items():
            if not 0 <= mu < nu < dim or not entry:
                raise ValueError(f"off-diagonal entry ({mu}, {nu}) = {entry} is not stored sparsely")
        common = math.gcd(denominator, *numerators)
        numerators = tuple([p // common for p in numerators]) if common > 1 else numerators
        off_diagonal = MappingProxyType(off_diagonal)
        Record.__init__(self, dim, numerators, denominator // common, off_diagonal)

    @property
    def diag(self) -> tuple[Fraction, ...]:
        """The diagonal entries as reduced Fractions."""
        return tuple([Fraction(p, self.denominator) for p in self.numerators])

    def is_diagonal(self) -> bool:
        """True iff every off-diagonal entry is exactly zero."""
        return not self.off_diagonal

    def as_numpy(self) -> np.ndarray:
        import numpy as np

        dim, denominator = self.dim, self.denominator
        flat = [0.0] * (dim * dim)
        flat[:: dim + 1] = [p / denominator for p in self.numerators]
        for (mu, nu), entry in self.off_diagonal.items():
            flat[mu * dim + nu] = flat[nu * dim + mu] = float(entry)
        return np.array(flat).reshape(dim, dim)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(dim={self.dim!r}, diag={self.diag!r}, "
            f"off_diagonal={dict(self.off_diagonal)!r})"
        )

    def __reduce__(self) -> tuple:
        return type(self), (self.dim, self.diag, dict(self.off_diagonal))


def one_body_density(v: FockVector) -> OneBodyDensityMatrix:
    """rho_{mu nu} = <a_mu^dag a_nu> / N by exact fermionic contraction.

    The diagonal is the occupation of each orbital over N.  Off the
    diagonal, a_mu |config> is (-1)^(position of mu) times the hole that
    removing mu leaves, so rho_{mu nu} sums the amplitude products
    sign(w_mu w_nu) sqrt(|w_mu w_nu|) / total of the configurations that
    leave the same hole when mu and nu are removed, each signed by the two
    positions.  Configurations are therefore grouped by hole and paired only
    within a group.  Configurations sharing a hole differ in total angular
    momentum by mu - nu != 0, so a homogeneous state builds no holes and rho
    is exactly diagonal.  Everything is summed in the state's integer
    weights; each diagonal entry takes one division, by N times their total.

    One pass over the configurations takes each one's |w|, sign and integer
    square root (0 when |w| is not a perfect square) and keys its holes by
    the bitmask of the orbitals left, mask ^ (1 << mode).  A product is
    rational exactly when |w_mu w_nu| is a perfect square: the product of
    the two roots when both exist, never when only one does, and otherwise
    as isqrt finds.  An entry is an integer numerator over total while every
    product summed into it is rational, which is the exact Fraction sum.  At
    its first irrational product it becomes numerator / total plus that
    float, and later rational products add as their numerator / total.  Int
    true division is correctly rounded, as float(Fraction) is, and the
    products are added in the same order, so every entry has the type and
    the bits of the running sum of one exact Fraction or float product at a
    time (tests/oracles.density_by_amplitude_products).
    """
    n, total, dim = v.n_particles, v.total, v.dim
    occupied = [0] * dim
    holes: dict[int, list[tuple[int, int, int, int]]] = {}
    homogeneous = v.is_homogeneous()
    for config, weight in v.weights.items():
        magnitude = abs(weight)
        for mode in config:
            occupied[mode] += magnitude
        if homogeneous:
            continue
        root = math.isqrt(magnitude)
        if root * root != magnitude:
            root = 0
        mask = 0
        for mode in config:
            mask |= 1 << mode
        sign = 1 if weight > 0 else -1
        for mode in config:
            holes.setdefault(mask ^ (1 << mode), []).append((mode, sign, magnitude, root))
            sign = -sign
    total_sq = total * total
    sums: dict[int, int | float] = {}  # keyed by mu * dim + nu, mu < nu
    for group in holes.values():
        if len(group) < 2:
            continue
        for k, (mu, s_mu, a_mu, r_mu) in enumerate(group):
            for nu, s_nu, a_nu, r_nu in group[k + 1 :]:
                key = mu * dim + nu if mu < nu else nu * dim + mu
                magnitude = a_mu * a_nu
                if r_mu:
                    root = r_mu * r_nu
                elif r_nu:
                    root = 0
                else:
                    root = math.isqrt(magnitude)
                    if root * root != magnitude:
                        root = 0
                s = sums.get(key, 0)
                if root:
                    signed = root if s_mu == s_nu else -root
                    sums[key] = s + signed if type(s) is int else s + signed / total
                else:
                    product = math.sqrt(magnitude / total_sq)
                    if s_mu != s_nu:
                        product = -product
                    sums[key] = (s / total if type(s) is int else s) + product
    norm = n * total
    off_diagonal = {
        divmod(key, dim): Fraction(s, norm) if type(s) is int else s / n
        for key, s in sums.items()
        if s != 0
    }
    return OneBodyDensityMatrix._from_occupations(dim, tuple(occupied), norm, off_diagonal)


def von_neumann(rho: OneBodyDensityMatrix) -> float:
    """-sum lambda ln lambda over the spectrum, in nats; 0 ln 0 = 0.

    Exactly diagonal matrices use their rational diagonal directly; anything
    else goes through a symmetric eigenvalue solve in double precision, whose
    eigenvalues are taken as Python floats, so the result is a float either way.
    """
    if rho.is_diagonal():
        denominator = rho.denominator
        eigenvalues = [p / denominator for p in rho.numerators]
    else:
        import numpy as np

        eigenvalues = np.linalg.eigvalsh(rho.as_numpy()).tolist()
    entropy = 0.0
    for lam in eigenvalues:
        if lam > 1e-15:
            entropy -= lam * math.log(lam)
        elif not lam >= -1e-9:  # NaN fails this comparison too
            raise ValueError(f"eigenvalue {lam} is negative or NaN: not a density matrix")
    return entropy


class EntanglementReport(Record):
    """Entropy and the N-adjusted measure for one state, in nats and bits."""

    __slots__ = ("n_particles", "entropy_nats", "measure_nats", "measure_bits", "family", "m")

    @classmethod
    def from_entropy(
        cls, n_particles: int, entropy_nats: float, family: str | None = None, m: int | None = None
    ) -> "EntanglementReport":
        """The report of an N-particle state whose one-body entropy is entropy_nats.

        The measure is the entropy minus ln N.  Values within 1e-12 of zero,
        on either side, are floating-point residue on separable states and
        are clamped to exactly 0.  n_particles must be a Python int.
        """
        _check_ints(n_particles=n_particles)
        if n_particles < 2:
            raise ValueError("entanglement needs at least two particles")
        measure = entropy_nats - math.log(n_particles)
        if abs(measure) <= 1e-12:
            measure = 0.0
        return cls(n_particles, entropy_nats, measure, measure / math.log(2), family, m)

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
    """Entropy of the one-body density matrix minus ln N
    (:meth:`EntanglementReport.from_entropy`)."""
    return EntanglementReport.from_entropy(
        v.n_particles, von_neumann(one_body_density(v)), family, m
    )
