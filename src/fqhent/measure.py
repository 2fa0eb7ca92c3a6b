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
as_numpy, von_neumann's non-diagonal branch and slater_pairing's rotated
branch, so importing this module does not load it.  Only the FockVector
route builds a matrix: modified_measure contracts one.  The CLI and the
sweeps build neither (fqhent.figures.family_report): they hand the
occupations of fqhent.lll.occupations and N times the total weight
straight to spectrum_entropy, the loop von_neumann's branches share, and
both routes turn the entropy into the report by
EntanglementReport.from_entropy.  The matrix and the report are immutable
slot records, built on fqhent._record.Record.

The matrix keeps its diagonal as the integer occupations the contraction
sums over the one denominator N times the state's total weight, in lowest
terms.  Its one constructor takes those fields, as every caller has them,
checks them and reduces them.  diag builds reduced Fractions from them only
when read, and von_neumann and as_numpy divide each numerator by the
denominator: int true division is correctly rounded, as float(Fraction)
is, so every eigenvalue and matrix entry has the bits of the reduced
Fraction's float, and so does each of family_report's eigenvalues, whose
numerators and denominator are never reduced.

Off the diagonal, one_body_density pairs the configurations that leave the
same hole when one orbital is removed.  It keys each hole by a bitmask of
the orbitals left and each entry by one integer, and sums an entry as an
integer numerator over the state's total weight until its first irrational
amplitude product, then as a float.  Int true division is correctly rounded,
so each entry is, type and bits, what adding exact Fraction and float
products one at a time in the same order gives.

For two fermions the module also holds the measure's cross-checks: the
pairing (standard-form) decomposition into 2x2 blocks, whose weights give
the entropy by an independent route; the dual-overlap measure eta in a
four-dimensional single-particle space; the analytic N = 2 Laughlin
measure; and the two-qubit consistency check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ._record import Record
from .lll import FockVector, amplitude_product
from .poly import _check_ints

if TYPE_CHECKING:
    import numpy as np

Entry = Fraction | float


class OneBodyDensityMatrix(Record):
    """Real symmetric density matrix with unit trace, stored sparsely.

    The constructor takes the fields it stores: dim non-negative Python int
    numerators over one positive Python int denominator, which they sum to
    exactly, kept in lowest terms; and off_diagonal, copied and kept
    read-only, which maps (mu, nu), 0 <= mu < nu < dim, to the nonzero entry
    rho_{mu nu} = rho_{nu mu}: an int, never a bool, or a Fraction when
    its amplitude products are rational, else a finite float.  A numpy
    float is stored as the Python float it rounds to; a numpy integer or
    bool, a Decimal, a complex or anything else raises ValueError before
    its value is read, as for a FockVector weight.  So the matrix is
    symmetric by construction and diagonal exactly when off_diagonal is
    empty.  dim must be a Python int.  Record compares, hashes, prints and
    pickles the stored fields; diag gives the diagonal as reduced
    Fractions.
    """

    __slots__ = ("dim", "numerators", "denominator", "off_diagonal")

    def __init__(
        self,
        dim: int,
        numerators: tuple[int, ...],
        denominator: int,
        off_diagonal: Mapping[tuple[int, int], Entry] | None = None,
    ) -> None:
        _check_ints(dim=dim, denominator=denominator)
        if len(numerators) != dim:
            raise ValueError(f"diagonal has {len(numerators)} entries, not dim = {dim}")
        for p in numerators:
            if type(p) is not int or p < 0:
                raise ValueError(f"diagonal numerator {p!r} is not a non-negative Python int")
        if denominator < 1 or sum(numerators) != denominator:
            raise ValueError(f"trace is {sum(numerators)}/{denominator}, not 1")
        off_diagonal = dict(off_diagonal or {})
        for (mu, nu), entry in off_diagonal.items():
            if not 0 <= mu < nu < dim or not entry:
                raise ValueError(f"off-diagonal entry {(mu, nu)} = {entry} is not stored sparsely")
            # a float, as most entries are, skips the slow isinstance of an ABC
            if type(entry) is float or not isinstance(entry, (int, Fraction)):
                if type(entry) is not float:
                    import numbers  # loaded already, by fractions

                    # numpy's floats are Real; its integers are Integral and its bool
                    # neither.  Tested first, so math.isfinite never warns or fails.
                    if isinstance(entry, numbers.Integral) or not isinstance(entry, numbers.Real):
                        raise ValueError(
                            f"off-diagonal entry {(mu, nu)} = {entry!r} is not an int, Fraction or float"
                        )
                    entry = off_diagonal[mu, nu] = float(entry)
                    if not entry:  # a longdouble below the least float
                        raise ValueError(f"off-diagonal entry {(mu, nu)} = {entry} is not stored sparsely")
                if not math.isfinite(entry):
                    raise ValueError(f"off-diagonal entry {(mu, nu)} = {entry} is not finite")
            elif type(entry) is bool:
                raise ValueError(f"off-diagonal entry {(mu, nu)} = {entry} is a bool, not a number")
        common = math.gcd(denominator, *numerators)
        numerators = tuple([p // common for p in numerators]) if common > 1 else tuple(numerators)
        super().__init__(dim, numerators, denominator // common, MappingProxyType(off_diagonal))

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

    One pass files each configuration under the holes it leaves, keyed by
    the bitmask of the orbitals left, mask ^ (1 << mode), with its weight
    negated at every later position.  Each pair in a hole makes one
    exactness test, lll.amplitude_product's: w_mu w_nu is rational exactly
    when its magnitude is a perfect square, and its sign is the product's.
    An entry is an integer numerator over total while every product summed
    into it is rational, which is the exact Fraction sum.  At its first
    irrational product it becomes numerator / total plus that float, and
    later rational products add as their numerator / total.  Int true
    division is correctly rounded, as float(Fraction) is, and the products
    are added in the same order, so every entry has the type and the bits
    of the running sum of one exact Fraction or float product at a time
    (tests/oracles.density_by_amplitude_products).
    """
    n, total, dim = v.n_particles, v.total, v.dim
    occupied = [0] * dim
    holes: dict[int, list[tuple[int, int]]] = {}
    homogeneous = v.is_homogeneous()
    for config, weight in v.weights.items():
        magnitude = abs(weight)
        for mode in config:
            occupied[mode] += magnitude
        if homogeneous:
            continue
        mask = 0
        for mode in config:
            mask |= 1 << mode
        for mode in config:
            holes.setdefault(mask ^ (1 << mode), []).append((mode, weight))
            weight = -weight
    total_sq = total * total
    sums: dict[int, int | float] = {}  # keyed by mu * dim + nu, mu < nu
    for group in holes.values():
        if len(group) < 2:
            continue
        for k, (mu, w_mu) in enumerate(group):
            for nu, w_nu in group[k + 1 :]:
                key = mu * dim + nu if mu < nu else nu * dim + mu
                product = w_mu * w_nu
                magnitude = abs(product)
                root = math.isqrt(magnitude)
                s = sums.get(key, 0)
                if root * root == magnitude:
                    root = root if product > 0 else -root
                    sums[key] = s + root if type(s) is int else s + root / total
                else:
                    irrational = math.sqrt(magnitude / total_sq)
                    if product < 0:
                        irrational = -irrational
                    sums[key] = (s / total if type(s) is int else s) + irrational
    norm = n * total
    off_diagonal = {
        divmod(key, dim): Fraction(s, norm) if type(s) is int else s / n
        for key, s in sums.items()
        if s != 0
    }
    return OneBodyDensityMatrix(dim, tuple(occupied), norm, off_diagonal)


def von_neumann(rho: OneBodyDensityMatrix) -> float:
    """-sum lambda ln lambda over the spectrum, in nats; 0 ln 0 = 0.

    Exactly diagonal matrices use their rational diagonal directly; anything
    else goes through a symmetric eigenvalue solve in double precision, whose
    eigenvalues are taken as Python floats, so the result is a float either way.
    """
    if rho.is_diagonal():
        return spectrum_entropy(rho.numerators, rho.denominator)
    import numpy as np

    return spectrum_entropy(np.linalg.eigvalsh(rho.as_numpy()).tolist(), 1)


def spectrum_entropy(numerators: Iterable[int | float], denominator: int) -> float:
    """-sum lambda ln lambda in nats over the eigenvalues lambda = p / denominator.

    Each p is an int or a float; int true division is correctly rounded, so
    an eigenvalue has the bits of its reduced Fraction's float whatever factor
    p and the denominator share.  A negative (below -1e-9) or NaN eigenvalue
    raises ValueError.
    """
    entropy = 0.0
    for p in numerators:
        lam = p / denominator
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


class NotTwoFermionError(ValueError):
    """An operation defined only for two-particle states got another N."""


class DimensionNotFourError(ValueError):
    """The dual-overlap measure is defined only for four orbitals."""


def closed_form_sf_laughlin2(m: int) -> float:
    """Analytic N=2 measure: (m-1) ln 2 - 2^{-(m-1)} sum_k C(m,k) ln C(m,k).

    The sum runs over k = 0 .. (m-1)/2, one term per occupied configuration
    {k, m-k}; the value is in nats.  m must be a Python int.
    """
    _check_ints(m=m)
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")
    scale = 2 ** (m - 1)
    total = (m - 1) * math.log(2)
    for k in range((m - 1) // 2 + 1):
        binom = math.comb(m, k)
        # int true division rounds correctly where float(binom) overflows
        total -= binom / scale * math.log(binom)
    return total


class SlaterPairing(Record):
    """Standard-form decomposition of a two-fermion state into mode pairs.

    Each entry of pairs, a tuple of tuples, is (mode a, mode b, weight);
    weights satisfy sum of squares equal to 1 and residual counts the modes
    left unpaired.  basis records whether pair indices refer to the original
    orbitals or to the rotated basis produced by the spectral path.
    """

    __slots__ = ("pairs", "residual", "basis")

    def __init__(
        self, pairs: tuple[tuple[int, int, float], ...], residual: int, basis: str
    ) -> None:
        super().__init__(tuple(map(tuple, pairs)), residual, basis)
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
    import numpy as np

    dim, total = v.dim, v.total
    flat = [0.0] * (dim * dim)
    for (a, b), weight in weights.items():
        half = math.copysign(math.sqrt(abs(weight) / total), weight) / 2
        flat[a * dim + b] = half
        flat[b * dim + a] = -half
    # The singular values of a real antisymmetric matrix come in equal pairs
    # s, s, one pair per 2x2 block [[0, s], [-s, 0]] of its standard form;
    # the standard-form weight is 2s.
    singular = np.linalg.svd(np.array(flat).reshape(dim, dim), compute_uv=False)
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
    -|alpha|^2 ln|alpha|^2 - |beta|^2 ln|beta|^2.  alpha_sq is a Python int
    or a Fraction, as FockVector.from_unnormalized takes a squared
    magnitude: anything else, a bool or a str included, raises ValueError.
    """
    if type(alpha_sq) not in (int, Fraction):
        raise ValueError(f"alpha_sq must be an int or a Fraction, got {alpha_sq!r}")
    if not 0 <= alpha_sq <= 1:
        raise ValueError(f"alpha_sq must lie in [0, 1], got {alpha_sq}")
    a, b = alpha_sq.numerator, alpha_sq.denominator
    return modified_measure(FockVector(2, 4, {(0, 1): a, (2, 3): b - a})).measure_nats
