"""The exact Slater-to-Fock map and the orbital occupations."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import slater_expansions, squared_magnitudes, unnormalized_terms
from fqhent import (
    Amplitude,
    FockVector,
    MultiPoly,
    SlaterExpansion,
    ZeroStateError,
    ZeroWavefunctionError,
    amplitude_pattern,
    family_expansion,
    laughlin,
    one_body_density,
    slater_coefficient_magnitudes,
    slater_project,
    to_fock,
    vandermonde_power,
)
from fqhent.lll import _ratio_tables, amplitude_product, occupations


class TestAmplitude:
    def test_product_exact_when_square(self):
        # amplitudes +sqrt(1/4) and -sqrt(9/4) as weights over the total 4
        got = amplitude_product(1, -9, 4)
        assert got == Fraction(-3, 4)
        assert isinstance(got, Fraction)

    def test_product_float_fallback(self):
        # amplitudes sqrt(1/2) and sqrt(1) as weights over the total 2
        got = amplitude_product(1, 2, 2)
        assert isinstance(got, float)
        assert got == pytest.approx(math.sqrt(0.5))

    def test_as_float(self):
        assert Amplitude(-1, Fraction(1, 4)).as_float == -0.5


class TestToFock:
    def test_cube(self):
        s = slater_project(vandermonde_power(2, 3))
        v = to_fock(s)
        assert squared_magnitudes(v) == {
            (0, 3): Fraction(1, 4),
            (1, 2): Fraction(3, 4),
        }
        assert v.dim == 4

    def test_degree_five_product(self):
        # (z1 - z2)^3 (z1^2 + z2^2): determinant coefficients 1, -3, 4 on
        # orbitals {0,5}, {1,4}, {2,3}
        s = SlaterExpansion(2, {(5, 0): 1, (4, 1): -3, (3, 2): 4})
        v = to_fock(s)
        assert squared_magnitudes(v) == {
            (0, 5): Fraction(5, 22),
            (1, 4): Fraction(9, 22),
            (2, 3): Fraction(4, 11),
        }

    def test_single_determinant(self):
        v = to_fock(slater_project(vandermonde_power(2, 1)))
        assert squared_magnitudes(v) == {(0, 1): Fraction(1)}

    def test_zero_raises(self):
        with pytest.raises(ZeroStateError):
            to_fock(SlaterExpansion(2))

    @given(slater_expansions())
    @settings(max_examples=50, deadline=None)
    def test_exact_normalization_and_dim(self, expansion):
        v = to_fock(expansion)
        assert sum(squared_magnitudes(v).values()) == 1
        max_orbital = max(c[-1] for c in v.weights)
        assert v.dim == max_orbital + 1

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 11, 13, 101, 255, 511])
    def test_binomial_closure(self, m):
        v = to_fock(slater_project(vandermonde_power(2, m)))
        expected = {
            (k, m - k): Fraction(math.comb(m, k), 2 ** (m - 1))
            for k in range((m - 1) // 2 + 1)
        }
        assert squared_magnitudes(v) == expected

    @pytest.mark.parametrize("nvars,power", [(2, 3), (3, 3), (2, 5), (4, 3)])
    def test_homogeneity_carries_over(self, nvars, power):
        v = to_fock(slater_project(vandermonde_power(nvars, power)))
        degree = power * nvars * (nvars - 1) // 2
        assert v.is_homogeneous()
        assert {sum(c) for c in v.weights} == {degree}

    def test_homogeneity_looks_at_every_config(self):
        assert FockVector(2, 5, {(1, 2): 1}).is_homogeneous()
        assert FockVector(2, 5, {(0, 3): 1, (1, 2): -2}).is_homogeneous()
        assert not FockVector(2, 5, {(0, 3): 1, (1, 2): -2, (0, 4): 1}).is_homogeneous()
        assert not FockVector(2, 5, {(0, 4): 1, (0, 3): 1, (1, 2): -2}).is_homogeneous()


def assert_matches_orbital_norm_formula(expansion: SlaterExpansion) -> None:
    weights, total, dim = oracles.fock_weights_by_orbital_norms(
        expansion.nvars, dict(expansion.terms)
    )
    v = to_fock(expansion)
    assert dict(v.weights) == weights
    assert (v.total, v.dim) == (total, dim)


class TestToFockOracle:
    """to_fock leaves out factors every configuration shares; the oracle keeps them."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["laughlin", "hierarchical_phi", "chi"])
    def test_every_family_state_to_n5_m13(self, family, n):
        for m in range(1, 14, 2):
            try:
                expansion = family_expansion(family, n, m)
            except ZeroWavefunctionError:
                continue
            assert_matches_orbital_norm_formula(expansion)

    @pytest.mark.parametrize("point", [("laughlin", 3, 255), ("hierarchical_phi", 4, 37)])
    def test_largest_states(self, point):
        assert_matches_orbital_norm_formula(family_expansion(*point))

    @pytest.mark.parametrize(
        "terms",
        [
            # total angular momenta 5, 4 and 7: the least is not first
            {(5, 0): 3, (3, 1): -2, (6, 1): 1},
            # totals 10, 11, 8 and 5: the least comes last
            {(7, 3, 0): 1, (6, 4, 1): -4, (5, 2, 1): 6, (3, 2, 0): 5},
            # totals 15, 15 and 11
            {(9, 4, 2, 0): -2, (8, 6, 1, 0): 7, (5, 3, 2, 1): 3},
        ],
    )
    def test_non_homogeneous_expansions(self, terms):
        expansion = SlaterExpansion(len(next(iter(terms))), terms)
        assert len({sum(lam) for lam in terms}) > 1
        assert_matches_orbital_norm_formula(expansion)

    @given(slater_expansions(max_nvars=4, max_orbital=12))
    @settings(max_examples=80, deadline=None)
    def test_random_expansions(self, expansion):
        assert_matches_orbital_norm_formula(expansion)


def assert_occupations_match_to_fock(expansion: SlaterExpansion) -> None:
    """occupations gives to_fock's occupation of every orbital over its
    total, exactly, and the N-fold total as their sum."""
    occupied, total = occupations(expansion)
    v = to_fock(expansion)
    assert len(occupied) == v.dim
    expected = [0] * v.dim
    for config, weight in v.weights.items():
        for mode in config:
            expected[mode] += abs(weight)
    assert [Fraction(p, total) for p in occupied] == [Fraction(p, v.total) for p in expected]
    assert sum(occupied) == expansion.nvars * total


def assert_ratio_tables_stop_at_each_ceiling(expansion: SlaterExpansion) -> None:
    """Table k holds lam_k! / f_k! from the floor f_k to the largest lam_k,
    and nothing past it."""
    dim, ratios = _ratio_tables(expansion)
    columns = list(zip(*expansion.terms))
    assert len(ratios) == expansion.nvars
    assert dim == 1 + max(columns[0])
    for table, column in zip(ratios, columns):
        floor, ceiling = min(column), max(column)
        assert len(table) == ceiling + 1
        factorials = [math.factorial(mu) for mu in range(floor, ceiling + 1)]
        assert table[floor:] == [f // factorials[0] for f in factorials]


class TestOccupations:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["laughlin", "hierarchical_phi", "chi"])
    def test_every_family_state_to_n5_m13(self, family, n):
        for m in range(1, 14, 2):
            try:
                expansion = family_expansion(family, n, m)
            except ZeroWavefunctionError:
                continue
            assert_occupations_match_to_fock(expansion)
            assert_ratio_tables_stop_at_each_ceiling(expansion)

    def test_longest_weights(self):
        assert_occupations_match_to_fock(family_expansion("laughlin", 3, 255))

    @given(slater_expansions(max_nvars=4, max_orbital=12))
    @settings(max_examples=80, deadline=None)
    def test_random_expansions(self, expansion):
        assert_ratio_tables_stop_at_each_ceiling(expansion)
        if len({sum(lam) for lam in expansion.terms}) == 1:
            assert_occupations_match_to_fock(expansion)
        else:
            with pytest.raises(ValueError, match="not homogeneous"):
                occupations(expansion)

    def test_ratio_tables_over_512_orbitals(self):
        # one determinant, lam = (511, ..., 0): each table is the single
        # entry 1 at its own orbital, not 512 tables up to the last orbital
        expansion = family_expansion("laughlin", 512, 1)
        assert list(expansion.terms) == [tuple(range(511, -1, -1))]
        assert_ratio_tables_stop_at_each_ceiling(expansion)
        _, ratios = _ratio_tables(expansion)
        assert [table[511 - k :] for k, table in enumerate(ratios)] == [[1]] * 512

    def test_rejects_non_homogeneous_and_zero_expansions(self):
        # total angular momenta 5, 4 and 7: the density matrix is not diagonal
        expansion = SlaterExpansion(2, {(5, 0): 3, (3, 1): -2, (6, 1): 1})
        with pytest.raises(ValueError, match="carry 3 total angular momenta"):
            occupations(expansion)
        with pytest.raises(ZeroStateError):
            occupations(SlaterExpansion(2))


class TestFockVectorValidation:
    @pytest.mark.parametrize("weight", [Fraction(1, 2), Fraction(3), 0.5, 1.0, "1"])
    def test_rejects_non_integer_weights(self, weight):
        with pytest.raises(ValueError, match="not an integer"):
            FockVector(2, 4, {(0, 1): 1, (2, 3): weight})

    @pytest.mark.parametrize("sizes", [(2, 4.0), (2.0, 4), (np.int64(2), 4), (2, np.int64(4))])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="must be a Python int"):
            FockVector(*sizes, {(0, 1): 1, (2, 3): 2})
        with pytest.raises(ValueError, match="must be a Python int"):
            FockVector.from_unnormalized(*sizes, {(0, 1): (1, 1)})

    @pytest.mark.parametrize("value", [True, np.int64(1)], ids=lambda value: type(value).__name__)
    def test_orbitals_and_weights_are_python_ints(self, value):
        # isinstance(value, int) takes a bool, and type(value) is int takes neither
        with pytest.raises(ValueError, match="orbital that is not an integer"):
            FockVector(1, 2, {(value,): 1})
        with pytest.raises(ValueError, match="weight .* is not an integer"):
            FockVector(1, 2, {(0,): value})

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            FockVector(2, 4, {(1, 0): 1})
        with pytest.raises(ValueError):
            FockVector(2, 4, {(0, 4): 1})
        with pytest.raises(ValueError):
            FockVector(2, 4, {(0, 1, 2): 1})
        with pytest.raises(ValueError):
            FockVector(2, 4, {(0.5, 2): 1})
        with pytest.raises(ValueError):
            FockVector.from_unnormalized(2, 4, {(1.0, 2): (1, 1)})

    def test_reduces_weights_and_rejects_zero(self):
        v = FockVector(2, 4, {(0, 1): 18, (1, 2): 0, (2, 3): -32})
        assert dict(v.weights) == {(0, 1): 9, (2, 3): -16}
        assert v.total == 25
        assert v.terms[(2, 3)] == Amplitude(-1, Fraction(16, 25))
        for zero in ({(0, 1): 0, (2, 3): 0}, {}):
            with pytest.raises(ZeroStateError):
                FockVector(2, 4, zero)

    @pytest.mark.parametrize(
        "terms",
        [
            {(0, 1): (1, Fraction(-1))},
            {(0, 1): (1, -1), (2, 3): (1, -3)},
            {(0, 1): (1, 2), (2, 3): (1, -3)},
            {(0, 1): (0, 1), (2, 3): (1, 1)},
            {(0, 1): (2, 1)},
            {(0, 1): (-2, 1), (2, 3): (1, 1)},
            {(0, 1): (1, 0.5), (2, 3): (1, 1)},
            {(0, 1): (1.0, 1)},
        ],
    )
    def test_from_unnormalized_rejects_bad_signs_and_magnitudes(self, terms):
        with pytest.raises(ValueError, match="sign|negative"):
            FockVector.from_unnormalized(2, 4, terms)

    @pytest.mark.parametrize(
        "terms",
        [
            {(0,): (True, 1), (1,): (-1, 1)},
            {(0,): (1, True), (1,): (-1, 1)},
            {(0,): (np.int64(1), 1), (1,): (-1, 1)},
        ],
        ids=["bool-sign", "bool-magnitude", "int64-sign"],
    )
    def test_from_unnormalized_signs_and_magnitudes_are_not_bools(self, terms):
        # isinstance(True, int) holds, so a bool once read as 1
        with pytest.raises(ValueError, match="need sign"):
            FockVector.from_unnormalized(1, 2, terms)

    def test_weights_and_total(self):
        v = FockVector.from_unnormalized(2, 4, {(0, 1): (1, 6), (2, 3): (-1, Fraction(9))})
        assert dict(v.weights) == {(0, 1): 2, (2, 3): -3}
        assert v.total == 5
        assert v.terms[(2, 3)] == Amplitude(-1, Fraction(3, 5))

    def test_occupations_sum_to_n(self):
        # the density-matrix diagonal holds each orbital's occupation over N
        diag = one_body_density(laughlin(2, 5)).diag
        assert diag[0] == Fraction(1, 32)
        assert diag[2] == Fraction(10, 32)
        assert sum(diag) == 1


class TestIntegerWeights:
    @given(unnormalized_terms(max_particles=4, max_dim=7, max_denominator=6))
    @settings(max_examples=80, deadline=None)
    def test_occupations_and_density_diagonal_match_fractions(self, args):
        n, dim, terms = args
        v = FockVector.from_unnormalized(n, dim, terms)
        expected = oracles.occupations_from_unnormalized(dim, terms)
        assert one_body_density(v).diag == tuple(p / n for p in expected)
        assert FockVector(n, dim, v.weights) == v

    @given(slater_expansions())
    @settings(max_examples=50, deadline=None)
    def test_terms_rebuild_the_state(self, expansion):
        v = to_fock(expansion)
        rebuilt = {c: a.sign * int(a.magnitude_sq * v.total) for c, a in v.terms.items()}
        assert FockVector(v.n_particles, v.dim, rebuilt) == v
        assert sum(map(abs, v.weights.values())) == v.total


class TestAmplitudePattern:
    def test_laughlin_2_5(self):
        assert amplitude_pattern(laughlin(2, 5)) == [
            ((0, 5), 1),
            ((1, 4), 5),
            ((2, 3), 10),
        ]

    def test_single_config(self):
        assert amplitude_pattern(laughlin(2, 1)) == [((0, 1), 1)]

    def test_ratios_have_no_common_factor(self):
        ratios = [r for _, r in amplitude_pattern(laughlin(3, 3))]
        assert math.gcd(*ratios) == 1


class TestSlaterCoefficientMagnitudes:
    def test_laughlin_3_3(self):
        s = slater_project(vandermonde_power(3, 3))
        assert slater_coefficient_magnitudes(s) == [
            ((0, 3, 6), 1),
            ((0, 4, 5), 3),
            ((1, 2, 6), 3),
            ((1, 3, 5), 6),
            ((2, 3, 4), 15),
        ]


def test_equality_of_normalized_states_from_scaled_inputs():
    # global integer scaling of the polynomial does not change the state
    base = slater_project(vandermonde_power(2, 3))
    scaled = SlaterExpansion(2, {lam: 7 * c for lam, c in base.terms.items()})
    assert to_fock(base) == to_fock(scaled)


def test_sign_convention_reversal_parity():
    # single positive determinant: overall sign is the parity of reversing
    # the decreasing tuple, (-1)^(N(N-1)/2)
    pair = to_fock(SlaterExpansion(2, {(1, 0): 1}))
    assert pair.terms[(0, 1)].sign == -1
    triple = to_fock(SlaterExpansion(3, {(2, 1, 0): 1}))
    assert triple.terms[(0, 1, 2)].sign == -1
    quad = to_fock(SlaterExpansion(4, {(3, 2, 1, 0): 1}))
    assert quad.terms[(0, 1, 2, 3)].sign == 1


def test_multipoly_round_trip_through_fock_ratios():
    # the degree-five product state built two ways gives identical vectors
    # (z1 - z2)^3 (z1^2 + z2^2)
    poly = vandermonde_power(2, 3) * MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    assert to_fock(slater_project(poly)) == to_fock(
        SlaterExpansion(2, {(5, 0): 1, (4, 1): -3, (3, 2): 4})
    )
