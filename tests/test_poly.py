"""Exact polynomial arithmetic, Vandermonde powers, and Slater projection."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import multi_polys, slater_expansions


@st.composite
def poly_pairs(draw):
    nvars = draw(st.integers(1, 3))
    return draw(multi_polys(nvars=nvars)), draw(multi_polys(nvars=nvars))
from fqhent import (
    MultiPoly,
    NotAntisymmetricError,
    SlaterExpansion,
    elementary_symmetric,
    slater_project,
    vandermonde_power,
)
from fqhent.poly import vandermonde_expansion


def z(nvars: int, index: int) -> MultiPoly:
    """The polynomial z_{index+1} (0-based index)."""
    return MultiPoly(nvars, {tuple(int(i == index) for i in range(nvars)): 1})


def permuted_terms(p: MultiPoly, perm, sign: int = 1) -> list:
    """sign times p's terms with the exponent of z_i taken from z_{perm[i]}."""
    return [(tuple(key[q] for q in perm), sign * coeff) for key, coeff in p.terms.items()]


def swap(p: MultiPoly, i: int, j: int) -> MultiPoly:
    """p with variables i and j exchanged."""
    perm = list(range(p.nvars))
    perm[i], perm[j] = perm[j], perm[i]
    return MultiPoly(p.nvars, permuted_terms(p, perm))


def symmetrize(p: MultiPoly, sign: int = 1) -> MultiPoly:
    """Sum of p over all variable permutations, weighted by sign^parity;
    the constructor adds up the terms that land on one key."""
    terms = []
    for perm in itertools.permutations(range(p.nvars)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(p.nvars), 2))
        terms += permuted_terms(p, perm, sign**inversions)
    return MultiPoly(p.nvars, terms)


@st.composite
def symmetry_candidates(draw):
    """Polynomials that are symmetric, antisymmetric, (0 1)-invariant only, or random."""
    p = draw(multi_polys(max_nvars=4, max_exp=3, max_terms=4))
    kind = draw(st.sampled_from(("raw", "sym", "anti", "swap-sym", "swap-anti")))
    if kind == "sym":
        return symmetrize(p)
    if kind == "anti":
        return symmetrize(p, -1)
    if p.nvars > 1 and kind in ("swap-sym", "swap-anti"):
        swapped = permuted_terms(p, (1, 0, *range(2, p.nvars)), 1 if kind == "swap-sym" else -1)
        return MultiPoly(p.nvars, [*p.terms.items(), *swapped])
    return p


class TestMultiPoly:
    def test_construction_merges_and_drops_zeros(self):
        p = MultiPoly(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 5)])
        assert dict(p.items()) == {(0, 1): 5}

    def test_rejects_wrong_arity_and_negative_exponents(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            MultiPoly(2, {(-1, 0): 1})
        with pytest.raises(ValueError):
            MultiPoly(0)

    def test_index_coercion(self):
        import numpy as np

        p = MultiPoly(2, {(np.int64(1), np.int64(0)): np.int64(3)})
        assert dict(p.terms) == {(1, 0): 3}
        assert type(next(iter(p.terms))[0]) is int

    def test_canonical_order_is_lex_descending(self):
        p = MultiPoly(2, {(0, 3): 1, (3, 0): 1, (2, 1): -3, (1, 2): 3})
        assert [k for k, _ in p.items()] == [(3, 0), (2, 1), (1, 2), (0, 3)]

    def test_multiply_known_product(self):
        # (z1 - z2)^3 (z1^2 + z2^2)
        p = vandermonde_power(2, 3) * MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert dict(p.items()) == {
            (5, 0): 1,
            (4, 1): -3,
            (3, 2): 4,
            (2, 3): -4,
            (1, 4): 3,
            (0, 5): -1,
        }

    @given(poly_pairs())
    @settings(max_examples=60, deadline=None)
    def test_multiply_matches_oracle(self, pair):
        a, b = pair
        product = a * b
        assert dict(product.terms) == oracles.dict_multiply(
            dict(a.terms), dict(b.terms)
        )

    def test_str(self):
        p = vandermonde_power(2, 3)
        assert str(p) == "z1^3 - 3*z1^2*z2 + 3*z1*z2^2 - z2^3"
        assert str(MultiPoly(2)) == "0"


def checked(poly):
    """poly rebuilt from its terms by the checking constructor."""
    return type(poly)(poly.nvars, poly.terms)


class TestTermMap:
    """The immutable term map MultiPoly and SlaterExpansion share."""

    @pytest.mark.parametrize("cls", [MultiPoly, SlaterExpansion])
    def test_setting_an_attribute_raises(self, cls):
        value = cls(2, {(1, 0): 1})
        for name in ("_terms", "_nvars", "nvars", "other"):
            with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
                setattr(value, name, {})
        assert dict(value.terms) == {(1, 0): 1}

    def test_a_polynomial_never_equals_an_expansion_with_the_same_terms(self):
        for terms in ({(1, 0): 1}, {(3, 1): -2, (2, 0): 5}, {}):
            poly, expansion = MultiPoly(2, terms), SlaterExpansion(2, terms)
            assert poly.terms == expansion.terms
            assert poly != expansion and expansion != poly
            assert not poly == expansion

    def test_repeated_keys_keep_their_first_position(self):
        pairs = [((2, 0), 2), ((1, 0), 5), ((2, 0), 3)]
        for cls in (MultiPoly, SlaterExpansion):
            assert list(cls(2, pairs).terms) == [(2, 0), (1, 0)]

    def test_truthiness_follows_the_term_count(self):
        assert not MultiPoly(2) and not SlaterExpansion(2)
        assert MultiPoly(2, {(0, 0): 1}) and SlaterExpansion(2, {(1, 0): 1})

    @given(poly_pairs())
    @settings(max_examples=60, deadline=None)
    def test_adopted_results_match_the_checked_construction(self, pair):
        p, q = pair
        result = p * q
        assert result == checked(result)
        assert 0 not in result.terms.values()

    @given(slater_expansions())
    @settings(max_examples=40, deadline=None)
    def test_adopted_expansions_match_the_checked_construction(self, expansion):
        for result in (expansion.expand(), slater_project(expansion.expand())):
            assert result == checked(result)
            assert 0 not in result.terms.values()


class TestAntisymmetry:
    def test_difference_is_antisymmetric(self):
        assert MultiPoly(2, {(1, 0): 1, (0, 1): -1}).is_antisymmetric()

    def test_sum_is_not(self):
        assert not MultiPoly(2, {(1, 0): 1, (0, 1): 1}).is_antisymmetric()

    def test_vandermonde_cubed_three_vars(self):
        assert vandermonde_power(3, 3).is_antisymmetric()

    @given(expansion=slater_expansions())
    @settings(max_examples=30, deadline=None)
    def test_expanded_slater_is_antisymmetric(self, expansion):
        assert expansion.expand().is_antisymmetric()

    def test_antisymmetric_under_one_swap_only_is_rejected(self):
        # (z1 - z2) z3 changes sign under (0 1) but not under the other swaps
        p = MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): -1}) * z(3, 2)
        assert swap(p, 0, 1) == MultiPoly(3, {(1, 0, 1): -1, (0, 1, 1): 1})
        assert not p.is_antisymmetric()

    @given(symmetry_candidates())
    @settings(max_examples=120, deadline=None)
    def test_generators_agree_with_all_swaps(self, p):
        assert p.is_antisymmetric() == oracles.invariant_under_all_swaps(p, -1)


class TestVandermonde:
    def test_single_variable_is_one(self):
        assert vandermonde_power(1, 3) == MultiPoly(1, {(0,): 1})

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            vandermonde_power(0, 1)
        with pytest.raises(ValueError):
            vandermonde_power(2, 0)

    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
    def test_matches_brute_force_oracle(self, nvars, power):
        expected = oracles.brute_force_vandermonde(nvars, power)
        assert dict(vandermonde_power(nvars, power).terms) == expected

    @pytest.mark.parametrize("nvars,power", [(2, 3), (3, 3), (4, 3), (3, 5)])
    def test_homogeneous_of_expected_degree(self, nvars, power):
        p = vandermonde_power(nvars, power)
        assert {sum(k) for k in p.terms} == {power * nvars * (nvars - 1) // 2}


class TestVandermondeExpansion:
    """The squeezing recursion against the projection of the expanded power."""

    @pytest.mark.parametrize(
        "nvars,power",
        [(n, m) for n in (1, 2, 3, 4) for m in (1, 3, 5, 7)]
        + [(5, 3), (2, 101), (3, 41)],
    )
    def test_matches_projection_of_the_expanded_power(self, nvars, power):
        # (3, 41) reaches orbital 82, past the 61 at which a bit mask's
        # hash would start to repeat
        expected = slater_project(vandermonde_power(nvars, power))
        expansion = vandermonde_expansion(nvars, power)
        assert expansion == expected
        # built without the public constructor's checks, it passes them
        assert SlaterExpansion(nvars, expansion.terms) == expansion

    def test_rejects_bad_arguments(self):
        for nvars, power in ((0, 3), (3, 0), (3, 2), (3, -1)):
            with pytest.raises(ValueError):
                vandermonde_expansion(nvars, power)


# the oracle's states: (3, 41) passes orbital 61, and the last four are the
# heavy-point benchmark's Vandermonde powers
SQUEEZED = [(2, 399), (3, 41), (3, 99), (4, 19), (5, 7), (6, 5), (7, 3), (8, 3)]
SQUEEZED += [(4, 13), (5, 5), (4, 11), (5, 3)]


@pytest.fixture(scope="module")
def squeezed():
    """vandermonde_expansion at each state of SQUEEZED, built once."""
    return {state: vandermonde_expansion(*state) for state in SQUEEZED}


class TestSqueezeOracle:
    """The prefix-hoisted squeeze against the loop over all position pairs."""

    @pytest.mark.parametrize("state", SQUEEZED, ids="{0[0]}-{0[1]}".format)
    def test_same_terms_in_the_same_order(self, squeezed, state):
        expected = oracles.squeeze_by_position_pairs(*state)
        assert list(squeezed[state].terms.items()) == list(expected.terms.items())

    @pytest.mark.parametrize("state", SQUEEZED, ids="{0[0]}-{0[1]}".format)
    def test_dyson_norm(self, squeezed, state):
        # blind to signs, which the oracle test covers
        assert sum(c * c for c in squeezed[state].terms.values()) == oracles.dyson_norm(*state)

    def test_dyson_norm_small_cases(self):
        # N = 2: sum_i C(m, i)^2 = C(2m, m), halved over the two orders;
        # m = 1: the staircase determinant alone
        for m in (1, 3, 5):
            assert oracles.dyson_norm(2, m) == math.comb(2 * m, m) // 2
        for n in range(1, 8):
            assert oracles.dyson_norm(n, 1) == 1


class TestElementarySymmetric:
    def test_examples(self):
        assert elementary_symmetric(2, 2) == z(2, 0) * z(2, 1)
        e1 = MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        assert elementary_symmetric(3, 1) == e1
        assert elementary_symmetric(3, 0) == MultiPoly(3, {(0, 0, 0): 1})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric(3, 4)
        with pytest.raises(ValueError):
            elementary_symmetric(3, -1)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_symmetric(self, k):
        assert oracles.invariant_under_all_swaps(elementary_symmetric(3, k), 1)


class TestSlaterProjection:
    def test_cube_projection(self):
        s = slater_project(vandermonde_power(2, 3))
        assert dict(s.terms) == {(3, 0): 1, (2, 1): -3}

    def test_vandermonde_is_single_determinant(self):
        s = slater_project(vandermonde_power(3, 1))
        assert dict(s.terms) == {(2, 1, 0): 1}

    def test_degree_five_product(self):
        p = vandermonde_power(2, 3) * MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        s = slater_project(p)
        assert dict(s.terms) == {(5, 0): 1, (4, 1): -3, (3, 2): 4}

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(NotAntisymmetricError):
            slater_project(MultiPoly(2, {(1, 0): 1, (0, 1): 1}))

    def test_expansion_rejects_bad_tuples(self):
        with pytest.raises(ValueError):
            SlaterExpansion(2, {(1, 1): 1})
        with pytest.raises(ValueError):
            SlaterExpansion(2, {(0, 1): 1})

    def test_expansion_sums_repeated_tuples(self):
        # as MultiPoly does: repeats add up and a zero sum drops out
        assert SlaterExpansion(2, [((1, 0), 1), ((1, 0), -1)]).is_zero
        pairs = [((2, 0), 2), ((1, 0), 5), ((2, 0), 3)]
        assert dict(SlaterExpansion(2, pairs).terms) == {(2, 0): 5, (1, 0): 5}
        assert dict(MultiPoly(2, pairs).terms) == {(2, 0): 5, (1, 0): 5}

    @given(slater_expansions())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, expansion):
        assert slater_project(expansion.expand()) == expansion

    def test_expand_matches_permutation_oracle(self):
        expansion = SlaterExpansion(3, {(6, 3, 0): 1, (5, 4, 0): -3, (4, 3, 2): 15})
        expected: dict[tuple[int, ...], int] = {}
        for lam, coeff in expansion.terms.items():
            for key, sign in oracles.permutation_determinant(lam).items():
                expected[key] = expected.get(key, 0) + coeff * sign
        expected = {k: c for k, c in expected.items() if c}
        assert dict(expansion.expand().terms) == expected


def squares(nvars: int, k: int) -> MultiPoly:
    """e_k(z_1^2, ..., z_N^2), by doubling the exponents of e_k(z)."""
    return MultiPoly(
        nvars, {tuple(2 * e for e in key): 1 for key in elementary_symmetric(nvars, k).terms}
    )


class TestTimesSymmetric:
    """The product with the symmetric factor e_k(z_1^2, ..., z_N^2)."""

    def test_known_product(self):
        # (z1 - z2)(z1^2 + z2^2) = (z1^3 - z2^3) - (z1^2 z2 - z1 z2^2)
        product = SlaterExpansion(2, {(1, 0): 1}).times_elementary_squares(1)
        assert dict(product.terms) == {(3, 0): 1, (2, 1): -1}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_projection_of_the_product(self, data):
        expansion = data.draw(slater_expansions(max_nvars=5, max_orbital=12))
        n = expansion.nvars
        for k in range(n + 1):
            product = expansion.times_elementary_squares(k)
            assert product == slater_project(expansion.expand() * squares(n, k)), k
            assert SlaterExpansion(n, product.terms) == product

    def test_cancelled_terms_drop_out(self):
        # a(3,0) p_2 = a(5,0) + a(3,2) and a(2,1) p_2 = a(4,1) - a(3,2)
        expansion = SlaterExpansion(2, {(3, 0): 1, (2, 1): 1})
        product = expansion.times_elementary_squares(1)
        assert dict(product.terms) == {(5, 0): 1, (4, 1): 1}

    def test_zero_operands_give_the_zero_expansion(self):
        zero = SlaterExpansion(3)
        for k in range(4):
            assert zero.times_elementary_squares(k) == zero

    def test_k0_is_the_identity_and_kn_shifts_every_entry(self):
        expansion = SlaterExpansion(3, {(6, 3, 0): 2, (5, 4, 0): -3, (4, 3, 2): 5})
        assert expansion.times_elementary_squares(0) == expansion
        shifted = {tuple(x + 2 for x in lam): c for lam, c in expansion.terms.items()}
        assert dict(expansion.times_elementary_squares(3).terms) == shifted

    def test_passing_a_neighbour_flips_the_sign_and_landing_on_one_drops(self):
        # lam = (4, 3, 1): at k = 1, 3 -> 5 passes 4 and 1 -> 3 lands on 3; at
        # k = 2 (the complement: all + 2, one entry - 2), 6 -> 4 passes 5 and
        # 5 -> 3 lands on 3
        expansion = SlaterExpansion(3, {(4, 3, 1): 1})
        once = expansion.times_elementary_squares(1)
        assert dict(once.terms) == {(6, 3, 1): 1, (5, 4, 1): -1}
        twice = expansion.times_elementary_squares(2)
        assert dict(twice.terms) == {(6, 5, 1): 1, (5, 4, 3): -1}
        for k, product in ((1, once), (2, twice)):
            assert product == slater_project(expansion.expand() * squares(3, k))

    @pytest.mark.parametrize("nvars", [2, 3, 5])
    @pytest.mark.parametrize("top", [7, 8, 15, 16, 31, 32])
    def test_largest_exponent_at_a_power_of_two_boundary(self, nvars, top):
        # the product reaches exponent top, at and just past 2^w - 1, where a
        # product packing exponents into w-bit slots would overflow one
        rest = tuple(range(nvars - 2, -1, -1))
        expansion = SlaterExpansion(nvars, {(top - 2, *rest): 1, (top - 3, *rest): -2})
        product = expansion.times_elementary_squares(1)
        assert max(lam[0] for lam in product.terms) == top
        assert product == slater_project(expansion.expand() * squares(nvars, 1))

    def test_rejects_bad_k(self):
        expansion = SlaterExpansion(3, {(2, 1, 0): 1})
        for k in (-1, 4, 1.0, "1", None):
            with pytest.raises(ValueError, match=r"k must be (a Python int|in 0\.\.3)"):
                expansion.times_elementary_squares(k)
