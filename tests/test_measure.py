"""The numpy-free measure module and the package names around it."""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import fqhent
import oracles
from conftest import irrational_mixed_states, mixed_weight_states
from fqhent import FockVector, ZeroWavefunctionError, entangle, figures, laughlin, measure
from fqhent.states import FAMILIES

PACKAGE_ROOT = Path(fqhent.__file__).resolve().parent.parent

MOVED = [
    "Entry",
    "OneBodyDensityMatrix",
    "one_body_density",
    "von_neumann",
    "EntanglementReport",
    "modified_measure",
]

# N = 2, dim = 4, not homogeneous: (0, 1) and (0, 2) share the hole (0,),
# and so do (1, 3) and (2, 3), so rho has off-diagonal entries
NONDIAGONAL_WEIGHTS = {(0, 1): 1, (0, 2): 2, (1, 3): -3, (2, 3): 5}


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from fqhent import *", namespace)
    for name in fqhent.__all__:
        assert namespace[name] is getattr(fqhent, name)


@pytest.mark.parametrize("name", MOVED)
def test_moved_names_have_one_definition(name):
    assert getattr(entangle, name) is getattr(measure, name)
    if name in fqhent.__all__:
        assert getattr(fqhent, name) is getattr(measure, name)


def test_lazy_names_are_entangles():
    for name in fqhent._ENTANGLE_NAMES:
        assert getattr(fqhent, name) is getattr(entangle, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fqhent.no_such_name


def test_nondiagonal_branch_imports_numpy_lazily():
    probe = (
        "import sys\n"
        "from fqhent.lll import FockVector\n"
        "from fqhent.measure import one_body_density, von_neumann\n"
        f"rho = one_body_density(FockVector(2, 4, {NONDIAGONAL_WEIGHTS!r}))\n"
        "before = 'numpy' in sys.modules\n"
        "print(repr((before, float(von_neumann(rho)), rho.as_numpy().tolist(),\n"
        "            'fqhent.entangle' in sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
    )
    before, entropy, matrix, entangle_loaded = ast.literal_eval(result.stdout)
    rho = entangle.one_body_density(FockVector(2, 4, NONDIAGONAL_WEIGHTS))
    assert not rho.is_diagonal()
    assert (before, entangle_loaded) == (False, False)
    assert entropy == entangle.von_neumann(rho)
    assert matrix == rho.as_numpy().tolist()


def test_von_neumann_returns_a_float_on_both_branches():
    diagonal = measure.one_body_density(laughlin(2, 3))
    nondiagonal = measure.one_body_density(FockVector(2, 4, NONDIAGONAL_WEIGHTS))
    assert diagonal.is_diagonal() and not nondiagonal.is_diagonal()
    for rho in (diagonal, nondiagonal):
        assert type(measure.von_neumann(rho)) is float
    report = measure.modified_measure(FockVector(2, 4, NONDIAGONAL_WEIGHTS))
    assert {type(report.entropy_nats), type(report.measure_bits)} == {float}


def _preset_points():
    """(family, N, m) of the five figure presets."""
    for fig_id in figures.PRESETS:
        spec = figures.figure_spec(fig_id)
        for family, n in spec.series:
            for t in spec.t_values:
                yield family, n, 2 * t + 1


def _printed_points():
    """(family, N, m) of the five figure presets, then laughlin(3, 255)."""
    yield from _preset_points()
    yield "laughlin", 3, 255


# N = 3 over 512 orbitals, not homogeneous, with squares, non-squares and
# weights above 2**64.  Shared holes: (255, 511) by the first two, which
# leave it from different positions, (0, 511) by the first and third,
# (0, 254) by the third and fourth and (3, 510) by the last two; 9 * 4 and
# 2 * 8 are perfect squares, 9 * 2 is not.
WIDE_WEIGHTS = {
    (0, 255, 511): 9,
    (255, 400, 511): -4,
    (0, 254, 511): 2,
    (0, 254, 509): 8,
    (3, 300, 510): 2**65 + 1,
    (3, 301, 510): -(2**66),
}


def assert_same_as_amplitude_products(v: FockVector) -> None:
    """The kernel's matrix entry for entry, key order and type included."""
    rho = measure.one_body_density(v)
    diag, off_diagonal = oracles.density_by_amplitude_products(v)
    assert rho.diag == diag
    assert {type(p) for p in rho.diag} == {Fraction}
    assert list(rho.off_diagonal) == list(off_diagonal)
    for key, entry in off_diagonal.items():
        got = rho.off_diagonal[key]
        assert (type(got), got) == (type(entry), entry), key


class TestBitIdentity:
    @given(irrational_mixed_states())
    @settings(max_examples=60, deadline=None)
    def test_irrational_mixed_states(self, v):
        assert_same_as_amplitude_products(v)

    @given(mixed_weight_states())
    @settings(max_examples=150, deadline=None)
    def test_squares_non_squares_and_huge_weights(self, v):
        assert_same_as_amplitude_products(v)

    def test_wide_state_with_shared_holes(self):
        v = FockVector(3, 512, WIDE_WEIGHTS)
        rho = measure.one_body_density(v)
        assert_same_as_amplitude_products(v)
        assert {type(e) for e in rho.off_diagonal.values()} == {Fraction, float}
        assert rho.off_diagonal[(0, 400)] == Fraction(6, 3 * v.total)
        assert rho.off_diagonal[(509, 511)] == Fraction(4, 3 * v.total)
        assert type(rho.off_diagonal[(254, 255)]) is float

    def test_family_states(self):
        for point in dict.fromkeys(_preset_points()):
            try:
                state = FAMILIES[point[0]](*point[1:])
            except ZeroWavefunctionError:
                continue
            assert_same_as_amplitude_products(state)


@pytest.mark.parametrize(
    ("family", "n", "m", "entropy"),
    [
        ("laughlin", 4, 13, "0x1.7a7725af1dbe6p+1"),
        ("hierarchical_phi", 4, 11, "0x1.9874cc6bd832ep+1"),
    ],
)
def test_family_density_is_stored_in_lowest_terms(family, n, m, entropy):
    # every occupation here shares a factor with N times the total weight
    v = FAMILIES[family](n, m)
    rho = measure.one_body_density(v)
    public = measure.OneBodyDensityMatrix(v.dim, rho.diag)
    assert rho.denominator < n * v.total
    assert rho == public and hash(rho) == hash(public)
    assert rho.denominator == math.lcm(*(p.denominator for p in rho.diag))
    # the entropy has the bits it had over the unreduced denominator
    assert measure.von_neumann(rho).hex() == entropy


def assert_kernel_matrix_is_the_public_one(v: FockVector) -> None:
    """The kernel's matrix equals, hashes and measures as the one built from
    the oracle's entries; its floats are those of the oracle's Fractions."""
    rho = measure.one_body_density(v)
    diag, off_diagonal = oracles.density_by_amplitude_products(v)
    public = measure.OneBodyDensityMatrix(v.dim, diag, off_diagonal)
    assert rho == public and hash(rho) == hash(public)
    assert rho.as_numpy().diagonal().tolist() == [float(p) for p in diag]
    assert rho.as_numpy().tolist() == public.as_numpy().tolist()
    entropy = measure.von_neumann(rho)
    assert entropy.hex() == measure.von_neumann(public).hex()
    if rho.is_diagonal():
        expected = oracles.entropy_of(p for p in map(float, diag) if p > 1e-15)
        assert entropy.hex() == expected.hex()


class TestPublicConstructorMatchesKernel:
    @given(irrational_mixed_states())
    @settings(max_examples=30, deadline=None)
    def test_irrational_mixed_states(self, v):
        assert_kernel_matrix_is_the_public_one(v)

    @given(mixed_weight_states())
    @settings(max_examples=60, deadline=None)
    def test_squares_non_squares_and_huge_weights(self, v):
        assert_kernel_matrix_is_the_public_one(v)

    def test_wide_state_with_shared_holes(self):
        assert_kernel_matrix_is_the_public_one(FockVector(3, 512, WIDE_WEIGHTS))

    def test_diagonal_states_over_long_denominators(self):
        # two configurations that share no hole: diagonal, though not
        # homogeneous, over denominators of 64 to 97 bits
        for k in range(40, 60):
            assert_kernel_matrix_is_the_public_one(
                FockVector(2, 4, {(0, 1): 3**k, (2, 3): -(7 ** (k - 12))})
            )

    def test_family_states_and_the_longest_weights(self):
        # laughlin(3, 255)'s occupations and denominator are over 900 bits:
        # dividing them as floats would round three times, not once
        for point in (*dict.fromkeys(_preset_points()), ("laughlin", 3, 255)):
            try:
                state = FAMILIES[point[0]](*point[1:])
            except ZeroWavefunctionError:
                continue
            assert_kernel_matrix_is_the_public_one(state)


def test_printed_digits_match_a_decimal_oracle():
    # the one float step, sum p ln p - ln N over exact diagonals, cancels
    # against ln N; a relative error of 1e-12 is still below the rounding
    # of the 12th printed digit, and the measured worst was 4.5e-14
    results = []
    for point in dict.fromkeys(_printed_points()):
        try:
            state = FAMILIES[point[0]](*point[1:])
        except ZeroWavefunctionError:
            continue
        bits = measure.modified_measure(state).measure_bits
        exact = oracles.measure_bits_decimal(state)
        error = abs(Decimal(float(bits)) - exact) / (exact or 1)
        expected = f"{float(format(exact, '.11e')):.12g}"
        results.append((f"{bits:.12g}" != expected, error, point, f"{bits:.12g}", expected))
    assert len(results) == 34  # the nonzero points
    differs, error, point, printed, expected = max(results)
    assert not differs and error <= Decimal("1e-12"), (
        f"worst point {point}: printed {printed}, oracle {expected}, relative error {error:.2e}"
    )
