"""Gaussian moments and the two-quasihole condensate integral."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import oracles
from fqhent import (
    CondensateKernel,
    MultiPoly,
    ScaledPoly,
    condense,
    elementary_symmetric,
    gaussian_moment,
    vanishes,
)


class TestGaussianMoment:
    def test_area(self):
        assert gaussian_moment(0, 0) == Fraction(3)

    def test_off_diagonal_vanishes(self):
        assert gaussian_moment(1, 0) == 0
        assert gaussian_moment(4, 2) == 0

    def test_diagonal_value(self):
        # pi * 2! * 3^3, returned over pi
        assert gaussian_moment(2, 2) == Fraction(54)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_moment(-1, 0)


class TestCondense:
    def test_two_electrons_pair_exponent_two(self):
        out = condense(CondensateKernel(2, 2))
        assert out.poly == MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert out.scale == Fraction(-162)

    def test_three_electrons_pair_exponent_two(self):
        out = condense(CondensateKernel(3, 2))
        assert out.poly == MultiPoly(3, {(2, 2, 0): 1, (2, 0, 2): 1, (0, 2, 2): 1})
        assert out.scale == Fraction(-162)

    def test_boundary_overrun_is_zero(self):
        out = condense(CondensateKernel(2, 6))
        assert out.is_zero
        assert out.scale == 0

    def test_zero_pair_exponent_is_squared_product(self):
        # p=0 gives 9 pi^2 (z1 z2 ... zN)^2
        out = condense(CondensateKernel(4, 0))
        assert out.poly == MultiPoly(4, {(2, 2, 2, 2): 1})
        assert out.scale == Fraction(9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", range(11))
    def test_matches_closed_form_oracle(self, n, p):
        out = condense(CondensateKernel(n, p))
        got = {
            key: out.scale * coeff for key, coeff in out.poly.terms.items()
        }
        assert got == oracles.condensate_closed_form(n, p)

    def test_builds_no_polynomial_in_the_quasihole_coordinates(self, monkeypatch):
        widths = []
        init, adopt = MultiPoly.__init__, MultiPoly._from_terms

        def recording_init(self, nvars, terms=()):
            widths.append(nvars)
            init(self, nvars, terms)

        def recording_adopt(cls, nvars, terms):
            # products and sums are adopted without passing through __init__
            widths.append(nvars)
            return adopt(nvars, terms)

        monkeypatch.setattr(MultiPoly, "__init__", recording_init)
        monkeypatch.setattr(MultiPoly, "_from_terms", classmethod(recording_adopt))
        condense(CondensateKernel(4, 2))
        assert widths and max(widths) == 4

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 4), (4, 6)])
    def test_output_is_symmetric(self, n, p):
        poly = condense(CondensateKernel(n, p)).poly
        assert oracles.invariant_under_all_swaps(poly, 1)

    @pytest.mark.parametrize("n,p", [(2, 0), (2, 2), (2, 4), (3, 2), (4, 8)])
    def test_degree_is_2n_minus_p(self, n, p):
        poly = condense(CondensateKernel(n, p)).poly
        assert {sum(k) for k in poly.terms} == {2 * n - p}

    @pytest.mark.parametrize(
        "n,p", [(n, p) for n in range(1, 6) for p in range(2 * n + 3)]
    )
    def test_matches_full_expansion_oracle(self, n, p):
        out = condense(CondensateKernel(n, p))
        got = {
            key: out.scale * coeff for key, coeff in out.poly.terms.items()
        }
        assert got == oracles.condensate_by_expansion(n, p)


class TestCondensateTerms:
    """The closed form e_{N-p/2}(z^2) that the state builds multiply in, against condense."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reproduce_the_condensate_polynomial_exactly(self, n):
        # same content and sign as condense, not just proportional to it
        for p in range(2 * n + 3):
            kernel = CondensateKernel(n, p)
            if vanishes(n, p):
                assert condense(kernel).is_zero, (n, p)
                continue
            squarefree = elementary_symmetric(n, n - p // 2)
            factor = MultiPoly(n, {tuple(2 * e for e in key): 1 for key in squarefree.terms})
            assert condense(kernel).poly == factor, (n, p)
            assert condense(kernel).scale == oracles.condensate_scale(p), (n, p)


class TestVanishes:
    @pytest.mark.parametrize(
        "n,p,expected",
        [(2, 4, False), (2, 5, True), (4, 8, False), (2, 6, True), (3, 3, True)],
    )
    def test_examples(self, n, p, expected):
        assert vanishes(n, p) is expected

    @pytest.mark.parametrize("n,p", list(itertools.product([1, 2, 3, 4], range(11))))
    def test_equivalence_with_condense(self, n, p):
        assert condense(CondensateKernel(n, p)).is_zero == vanishes(n, p)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            vanishes(0, 2)
        with pytest.raises(ValueError):
            vanishes(2, -1)


class TestScaledPoly:
    def test_normalization_extracts_content_and_sign(self):
        terms = {(2, 0): Fraction(-4, 3), (0, 2): Fraction(-8, 3)}
        sp = ScaledPoly.from_rational_terms(2, terms)
        assert sp.poly == MultiPoly(2, {(2, 0): 1, (0, 2): 2})
        assert sp.scale == Fraction(-4, 3)

    def test_zero(self):
        sp = ScaledPoly.from_rational_terms(2, {})
        assert sp.is_zero
        assert str(sp) == "0"

    def test_str(self):
        sp = condense(CondensateKernel(2, 2))
        assert str(sp) == "-162*pi^2 * (z1^2 + z2^2)"

    def test_rejects_inconsistent_zero(self):
        with pytest.raises(ValueError):
            ScaledPoly(Fraction(0), MultiPoly(2, {(1, 0): 1}))
        with pytest.raises(ValueError):
            ScaledPoly(Fraction(1), MultiPoly(2))


class TestKernelValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CondensateKernel(0, 2)
        with pytest.raises(ValueError):
            CondensateKernel(2, -1)
