"""Family constructors, the zero-wavefunction boundary, and K-matrices."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fqhent import (
    KMatrix,
    MultiPoly,
    ZeroWavefunctionError,
    chi,
    chi_k,
    condense,
    CondensateKernel,
    family_polynomial,
    filling_fraction,
    hierarchical_phi,
    hierarchical_phi_k,
    laughlin,
    modified_measure,
    vandermonde_power,
    vanishes,
)


class TestLaughlin:
    def test_m1_single_determinant(self):
        v = laughlin(2, 1)
        assert len(v) == 1
        assert v.terms[(0, 1)].magnitude_sq == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_m1_separable_any_n(self, n):
        v = laughlin(n, 1)
        assert len(v) == 1
        assert list(v.terms) == [tuple(range(n))]

    def test_m3_amplitudes(self):
        v = laughlin(2, 3)
        assert {c: a.magnitude_sq for c, a in v.items()} == {
            (0, 3): Fraction(1, 4),
            (1, 2): Fraction(3, 4),
        }

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 11, 13])
    def test_n2_config_count(self, m):
        assert len(laughlin(2, m)) == (m + 1) // 2

    def test_rejects_even_m(self):
        with pytest.raises(ValueError):
            laughlin(2, 2)

    def test_rejects_small_and_large_n(self):
        with pytest.raises(ValueError):
            laughlin(1, 3)
        with pytest.raises(ValueError):
            laughlin(6, 3)


class TestHierarchicalPhi:
    def test_m1_amplitudes(self):
        v = hierarchical_phi(2, 1)
        assert {c: a.magnitude_sq for c, a in v.items()} == {
            (0, 3): Fraction(3, 4),
            (1, 2): Fraction(1, 4),
        }

    def test_m3_polynomial_part(self):
        z1 = MultiPoly.variable(2, 0)
        z2 = MultiPoly.variable(2, 1)
        expected = (z1 - z2) ** 3 * (z1**2 + z2**2)
        assert family_polynomial("hierarchical_phi", 2, 3) == expected

    def test_m3_amplitudes(self):
        v = hierarchical_phi(2, 3)
        assert {c: a.magnitude_sq for c, a in v.items()} == {
            (0, 5): Fraction(5, 22),
            (1, 4): Fraction(9, 22),
            (2, 3): Fraction(4, 11),
        }

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 11, 13])
    def test_n2_config_count(self, m):
        assert len(hierarchical_phi(2, m)) == (m + 3) // 2

    @pytest.mark.parametrize("m", [1, 3])
    def test_n3_polynomial_part(self, m):
        squares = MultiPoly(3, {(2, 2, 0): 1, (2, 0, 2): 1, (0, 2, 2): 1})
        expected = vandermonde_power(3, m) * squares
        assert family_polynomial("hierarchical_phi", 3, m) == expected

    def test_scalar_prefactor_is_discarded(self):
        # whatever the condensate scale, the normalized state is unchanged
        cond = condense(CondensateKernel(2, 2))
        assert cond.scale.rational != 1
        v = hierarchical_phi(2, 1)
        assert sum(a.magnitude_sq for _, a in v.items()) == 1


class TestChi:
    def test_m1_is_shifted_single_determinant(self):
        # p=0 condensate is a constant times (z1..zN)^2, so every orbital
        # index is shifted up by 2 relative to the bare Vandermonde
        v = chi(4, 1)
        assert list(v.terms) == [(2, 3, 4, 5)]
        assert modified_measure(v).measure_nats == 0.0

    def test_boundary_zero_wavefunction(self):
        with pytest.raises(ZeroWavefunctionError, match="zero wavefunction"):
            chi(2, 7)

    def test_boundary_message_names_criterion(self):
        with pytest.raises(ZeroWavefunctionError, match="m > 2N\\+1"):
            chi(3, 9)

    def test_nonzero_at_boundary_m(self):
        # m = 2N+1 is the last nonzero point and is separable
        v = chi(2, 5)
        assert len(v) == 1
        v4 = chi(4, 9)
        assert len(v4) == 1

    def test_n4_m3_entangled(self):
        v = chi(4, 3)
        assert len(v) > 1
        assert modified_measure(v).measure_nats > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 11, 13])
    def test_zero_iff_vanishes(self, n, m):
        try:
            chi(n, m)
            raised = False
        except ZeroWavefunctionError:
            raised = True
        assert raised == vanishes(n, m - 1)
        assert raised == (m > 2 * n + 1)


class TestFamilyPolynomials:
    @pytest.mark.parametrize(
        "family,n,m",
        [
            ("laughlin", 2, 3),
            ("laughlin", 3, 3),
            ("hierarchical_phi", 2, 3),
            ("hierarchical_phi", 3, 1),
            ("chi", 3, 3),
            ("chi", 4, 5),
        ],
    )
    def test_antisymmetric_and_homogeneous(self, family, n, m):
        poly = family_polynomial(family, n, m)
        assert poly.is_antisymmetric()
        assert poly.is_homogeneous()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_polynomial("unknown", 2, 3)


class TestKMatrix:
    def test_filling_fraction_hierarchical(self):
        assert filling_fraction(hierarchical_phi_k(3)) == Fraction(2, 7)

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_hierarchical_closed_form(self, m):
        assert filling_fraction(hierarchical_phi_k(m)) == Fraction(2, 2 * m + 1)

    def test_identity(self):
        assert filling_fraction(KMatrix(((1, 0), (0, 1)))) == 1

    def test_chi_series(self):
        assert filling_fraction(chi_k(3)) == Fraction(2, 3)

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_chi_closed_form(self, m):
        assert filling_fraction(chi_k(m)) == Fraction(m - 1, m)

    def test_charge_vector(self):
        k = KMatrix(((2, 1), (1, 3)), charge=(1, 1))
        # q^T K^{-1} q = (3 - 2 + 2)/5
        assert filling_fraction(k) == Fraction(3, 5)

    def test_rejects_asymmetric_and_singular(self):
        with pytest.raises(ValueError):
            KMatrix(((1, 2), (3, 1)))
        with pytest.raises(ValueError):
            KMatrix(((1, 1), (1, 1)))
