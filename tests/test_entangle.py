"""Density matrices, entropies, pairing decomposition, and the eta measure."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import dim4_two_fermion_states, irrational_mixed_states
from fqhent import (
    DimensionNotFourError,
    FockVector,
    NotTwoFermionError,
    OneBodyDensityMatrix,
    chi,
    closed_form_sf_laughlin2,
    hierarchical_phi,
    laughlin,
    modified_measure,
    one_body_density,
    schliemann_eta,
    slater_pairing,
    two_qubit_consistency,
    von_neumann,
)

LN2 = math.log(2)


# (sign, squared magnitude) per config: N=2, dim=5, not homogeneous.  The
# insertion order matters: it sets the order in which float products add up.
IRRATIONAL_MIXED_STATE = {
    (2, 3): (1, Fraction(1)),
    (1, 3): (-1, Fraction(3)),
    (0, 2): (1, Fraction(18)),
    (0, 4): (1, Fraction(1)),
    (0, 1): (-1, Fraction(18)),
    (3, 4): (-1, Fraction(6)),
}


def rational_state(dim: int, amps: dict) -> FockVector:
    """The two-fermion state with these integer amplitudes, normalized."""
    return FockVector(2, dim, {c: a * abs(a) for c, a in amps.items()})


def assert_matches_partial_trace(rho: OneBodyDensityMatrix, v: FockVector) -> None:
    dense = rho.as_numpy()
    expected = oracles.density_by_partial_trace(v)
    for i in range(v.dim):
        for j in range(v.dim):
            assert dense[i][j] == pytest.approx(expected[i][j], abs=1e-12)


class TestOneBodyDensity:
    def test_laughlin_2_3_diagonal(self):
        rho = one_body_density(laughlin(2, 3))
        assert rho.is_diagonal()
        assert rho.diag == (
            Fraction(1, 8),
            Fraction(3, 8),
            Fraction(3, 8),
            Fraction(1, 8),
        )

    def test_single_determinant(self):
        rho = one_body_density(laughlin(2, 1))
        assert rho.diag == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize(
        "state",
        [laughlin(2, 5), laughlin(3, 3), hierarchical_phi(2, 3), hierarchical_phi(3, 1), chi(4, 3)],
        ids=["laughlin25", "laughlin33", "phi23", "phi31", "chi43"],
    )
    def test_family_states_exactly_diagonal_unit_trace(self, state):
        rho = one_body_density(state)
        assert rho.is_diagonal()
        assert sum(rho.diag) == 1
        assert all(isinstance(p, Fraction) for p in rho.diag)

    @pytest.mark.parametrize(
        "state",
        [laughlin(4, 5), hierarchical_phi(3, 9), laughlin(3, 13)],
        ids=["laughlin45", "phi39", "laughlin313"],
    )
    def test_homogeneous_states_with_many_configs_match_partial_trace(self, state):
        assert len(state) > 20
        rho = one_body_density(state)
        assert rho.is_diagonal()
        assert_matches_partial_trace(rho, state)

    def test_several_configs_of_one_total_are_diagonal(self):
        # every configuration of three fermions with total angular momentum 6,
        # with mixed signs and magnitudes that are not perfect squares
        terms = {(0, 1, 5): (1, 3), (0, 2, 4): (-1, 7), (1, 2, 3): (1, 2)}
        v = FockVector.from_unnormalized(3, 6, terms)
        rho = one_body_density(v)
        assert rho.is_diagonal()
        assert rho.diag == tuple(
            Fraction(sum(abs(w) for c, w in v.weights.items() if mode in c), 3 * v.total)
            for mode in range(6)
        )
        assert_matches_partial_trace(rho, v)

    def test_shared_hole_after_configs_of_one_total_keeps_off_diagonals(self):
        # (0, 3) and (1, 2) have total 3; (0, 2), of total 2, shares the hole
        # (0,) with (0, 3) and the hole (2,) with (1, 2)
        v = rational_state(4, {(0, 3): 1, (1, 2): 2, (0, 2): 2})
        rho = one_body_density(v)
        assert set(rho.off_diagonal) == {(0, 1), (2, 3)}
        assert rho.off_diagonal[(2, 3)] == Fraction(1, 9)
        assert_matches_partial_trace(rho, v)

    def test_rotated_determinant_off_diagonals(self):
        v = rational_state(3, {(0, 1): 1, (0, 2): 1})
        rho = one_body_density(v)
        assert rho.diag == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert rho.off_diagonal == {(1, 2): Fraction(1, 4)}
        eigs = sorted(np.linalg.eigvalsh(rho.as_numpy()))
        assert eigs == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)

    @given(dim4_two_fermion_states())
    @settings(max_examples=60, deadline=None)
    def test_matches_annihilation_oracle(self, v):
        assert_matches_partial_trace(one_body_density(v), v)

    @given(dim4_two_fermion_states())
    @settings(max_examples=40, deadline=None)
    def test_positive_semidefinite_unit_trace(self, v):
        rho = one_body_density(v)
        assert sum(rho.diag) == 1
        assert min(np.linalg.eigvalsh(rho.as_numpy())) > -1e-12

    @given(dim4_two_fermion_states())
    @settings(max_examples=40, deadline=None)
    def test_two_fermion_spectrum_is_doubly_degenerate(self, v):
        eigs = sorted(np.linalg.eigvalsh(one_body_density(v).as_numpy()))
        for a, b in zip(eigs[::2], eigs[1::2]):
            assert b - a == pytest.approx(0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            OneBodyDensityMatrix(2, (1,), 1)
        with pytest.raises(ValueError):
            OneBodyDensityMatrix(2, (2, 1), 4)
        for off_diagonal in ({(1, 0): Fraction(1, 4)}, {(0, 2): Fraction(1, 4)}, {(0, 1): 0}):
            with pytest.raises(ValueError):
                OneBodyDensityMatrix(2, (1, 1), 2, off_diagonal)
        assert OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): Fraction(1, 4)}).as_numpy().tolist() == [
            [0.5, 0.25],
            [0.25, 0.5],
        ]

    def test_trace_is_checked_exactly(self):
        assert OneBodyDensityMatrix(3, (1, 2, 3), 6).dim == 3
        assert OneBodyDensityMatrix(2, (1, 0), 1).dim == 2
        for numerators, denominator in (
            ((1, 2, 2), 6),
            ((10**30, 2 * 10**30 + 3), 3 * 10**30),
            ((1, 1), 1),
            ((0, 0), 0),
        ):
            with pytest.raises(ValueError, match="trace"):
                OneBodyDensityMatrix(len(numerators), numerators, denominator)

    def test_negative_diagonal_entries_are_rejected(self):
        for numerators, denominator in (((3, -1), 2), ((10**30, -1, 1), 10**30)):
            with pytest.raises(ValueError, match="negative"):
                OneBodyDensityMatrix(len(numerators), numerators, denominator)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_off_diagonal_entries_are_rejected(self, entry):
        # von_neumann once measured such a matrix as 0.0 nats: eigvalsh
        # returns NaN eigenvalues, and NaN failed both of its comparisons
        with pytest.raises(ValueError, match=r"off-diagonal entry \(0, 1\) = .* is not finite"):
            OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): entry})

    @pytest.mark.parametrize(
        "entry",
        [np.float32("nan"), np.float64("inf"), Decimal("NaN")],
        ids=["float32-nan", "float64-inf", "decimal-nan"],
    )
    def test_non_finite_entries_of_other_number_types_are_rejected(self, entry):
        # neither float32 nor Decimal is a float, so a check of floats alone
        # lets their NaN through to von_neumann
        with pytest.raises(ValueError, match=r"off-diagonal entry \(0, 1\) = .* is not finite"):
            OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): entry})

    @pytest.mark.parametrize("entry", ["0.25", b"1", [0.25]])
    def test_off_diagonal_entries_that_are_not_numbers_are_rejected(self, entry):
        with pytest.raises(TypeError):
            OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): entry})

    def test_bool_off_diagonal_entry_is_rejected(self):
        # a bool is an int, so it was once stored and only von_neumann failed
        with pytest.raises(ValueError, match=r"off-diagonal entry \(0, 1\) = True is a bool"):
            OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): True})

    def test_finite_float32_entry_is_accepted(self):
        rho = OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): np.float32(0.25)})
        assert rho.off_diagonal == {(0, 1): 0.25}
        assert von_neumann(rho) == pytest.approx(-0.75 * math.log(0.75) - 0.25 * math.log(0.25))

    def test_non_finite_diagonal_entries_are_rejected(self):
        for diag in ((math.nan, 1.0), (math.inf, 0.0), (math.inf, -math.inf)):
            with pytest.raises(ValueError):
                OneBodyDensityMatrix(2, diag, 1)

    def test_equal_matrices_hash_equal_over_any_denominator(self):
        rho = one_body_density(rational_state(3, {(0, 1): 1, (0, 2): 1}))
        assert rho.denominator == 4
        same = OneBodyDensityMatrix(3, (4, 2, 2), 8, {(1, 2): 0.25})
        assert same == rho and hash(same) == hash(rho) and len({rho, same}) == 1
        assert repr(rho) == (
            "OneBodyDensityMatrix(dim=3, numerators=(2, 1, 1), denominator=4,"
            " off_diagonal={(1, 2): Fraction(1, 4)})"
        )
        assert rho != OneBodyDensityMatrix(3, rho.numerators, rho.denominator)

    def test_off_diagonal_is_read_only(self):
        entries = {(0, 1): Fraction(1, 4)}
        rho = OneBodyDensityMatrix(2, (1, 1), 2, entries)
        with pytest.raises(TypeError):
            rho.off_diagonal[(0, 1)] = Fraction(3, 4)
        entries[(0, 1)] = Fraction(3, 4)
        assert rho.off_diagonal == {(0, 1): Fraction(1, 4)}
        kernel = one_body_density(FockVector.from_unnormalized(2, 5, IRRATIONAL_MIXED_STATE))
        with pytest.raises(TypeError):
            del kernel.off_diagonal[next(iter(kernel.off_diagonal))]

    def test_irrational_mixed_state_is_symmetric(self):
        # float amplitude products once summed in different orders for
        # rho[mu][nu] and rho[nu][mu] and failed the symmetry check
        v = FockVector.from_unnormalized(2, 5, IRRATIONAL_MIXED_STATE)
        rho = one_body_density(v)
        dense = rho.as_numpy()
        assert (dense == dense.T).all()
        assert_matches_partial_trace(rho, v)

    @given(irrational_mixed_states())
    @settings(max_examples=60, deadline=None)
    def test_irrational_states_match_annihilation_oracle(self, v):
        rho = one_body_density(v)
        assert_matches_partial_trace(rho, v)
        spectrum = np.linalg.eigvalsh(np.array(oracles.density_by_partial_trace(v)))
        assert von_neumann(rho) == pytest.approx(
            oracles.entropy_of(max(lam, 0.0) for lam in spectrum), abs=1e-9
        )


class TestVonNeumann:
    def test_half_half(self):
        rho = one_body_density(laughlin(2, 1))
        assert von_neumann(rho) == pytest.approx(LN2, abs=1e-14)

    def test_pure_mode(self):
        rho = OneBodyDensityMatrix(1, (1,), 1)
        assert von_neumann(rho) == 0.0

    def test_negative_eigenvalue_is_rejected(self):
        # eigenvalues 5/4 and -1/4
        with pytest.raises(ValueError, match="eigenvalue"):
            von_neumann(OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): Fraction(3, 4)}))
        assert von_neumann(OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): Fraction(1, 2)})) == 0.0

    def test_nan_eigenvalue_is_rejected(self):
        # the constructor refuses a NaN entry; von_neumann still refuses a
        # matrix whose slot was made to hold one
        rho = OneBodyDensityMatrix(2, (1, 1), 2, {(0, 1): Fraction(1, 4)})
        object.__setattr__(rho, "off_diagonal", MappingProxyType({(0, 1): math.nan}))
        with pytest.raises(ValueError, match="eigenvalue nan is negative or NaN"):
            von_neumann(rho)

    def test_laughlin_2_3(self):
        rho = one_body_density(laughlin(2, 3))
        expected = 3 * LN2 - 0.75 * math.log(3)
        assert von_neumann(rho) == pytest.approx(expected, abs=1e-13)


class TestModifiedMeasure:
    def test_separable_exactly_zero(self):
        assert modified_measure(laughlin(2, 1)).measure_nats == 0.0

    @pytest.mark.parametrize("family,n,m", [(laughlin, 5, 1), (chi, 5, 1), (chi, 5, 11)])
    def test_single_determinant_families_exactly_zero(self, family, n, m):
        # ln N - entropy leaves a residue of about 2e-16 above zero here
        report = modified_measure(family(n, m))
        assert report.measure_nats == 0.0
        assert report.measure_bits == 0.0

    def test_hand_built_determinant_exactly_zero(self):
        v = FockVector(12, 12, {tuple(range(12)): 1})
        assert modified_measure(v).measure_nats == 0.0

    def test_laughlin_2_3_value(self):
        report = modified_measure(laughlin(2, 3))
        expected = 2 * LN2 - 0.75 * math.log(3)
        assert report.measure_nats == pytest.approx(expected, abs=1e-12)
        assert report.measure_bits == pytest.approx(expected / LN2, abs=1e-12)

    def test_equality_anchor(self):
        a = modified_measure(laughlin(2, 3)).measure_nats
        b = modified_measure(hierarchical_phi(2, 1)).measure_nats
        assert a == pytest.approx(b, abs=1e-12)

    def test_n3_counterpart_differs(self):
        a = modified_measure(laughlin(3, 3)).measure_nats
        b = modified_measure(hierarchical_phi(3, 1)).measure_nats
        assert abs(a - b) > 1e-3

    def test_laughlin_2_5_value(self):
        got = modified_measure(laughlin(2, 5)).measure_nats
        expected = 4 * LN2 - (5 * math.log(5) + 10 * math.log(10)) / 16
        assert got == pytest.approx(expected, abs=1e-12)

    def test_report_fields(self):
        report = modified_measure(laughlin(2, 7), family="laughlin", m=7)
        assert report.t == 3
        payload = report.as_dict()
        assert set(payload) == {
            "family",
            "N",
            "m",
            "t",
            "S_nats",
            "measure_nats",
            "measure_bits",
        }
        assert payload["family"] == "laughlin"
        assert payload["N"] == 2

    def test_rotated_determinant_measures_zero(self):
        v = rational_state(3, {(0, 1): 1, (0, 2): 1})
        assert abs(modified_measure(v).measure_nats) <= 1e-9


class TestClosedForm:
    def test_m1(self):
        assert closed_form_sf_laughlin2(1) == 0.0

    def test_m3(self):
        expected = 2 * LN2 - 0.75 * math.log(3)
        assert closed_form_sf_laughlin2(3) == pytest.approx(expected, abs=1e-14)

    def test_m5(self):
        expected = 4 * LN2 - (5 * math.log(5) + 10 * math.log(10)) / 16
        assert closed_form_sf_laughlin2(5) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 11, 13, 511])
    def test_matches_pipeline(self, m):
        pipeline = modified_measure(laughlin(2, m)).measure_nats
        assert closed_form_sf_laughlin2(m) == pytest.approx(pipeline, abs=1e-10)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            closed_form_sf_laughlin2(2)

    @pytest.mark.parametrize("m", [1031, 2001])
    def test_large_m_against_decimal(self, m):
        # from m = 1031 on, C(m, k) overflows a float; the weights C(m, k) /
        # 2^(m-1) are still correctly rounded as int true divisions
        with localcontext() as context:
            context.prec = 60
            weighted = sum(
                Decimal(math.comb(m, k)) * Decimal(math.comb(m, k)).ln()
                for k in range((m - 1) // 2 + 1)
            )
            exact = (m - 1) * Decimal(2).ln() - weighted / Decimal(2) ** (m - 1)
        assert closed_form_sf_laughlin2(m) == pytest.approx(float(exact), rel=1e-11)


class TestSlaterPairing:
    def test_laughlin_2_3(self):
        pairing = slater_pairing(laughlin(2, 3))
        assert pairing.basis == "orbital"
        assert pairing.residual == 0
        got = {(a, b): w for a, b, w in pairing.pairs}
        assert got[(0, 3)] == pytest.approx(0.5, abs=1e-14)
        assert got[(1, 2)] == pytest.approx(math.sqrt(3) / 2, abs=1e-14)

    def test_single_pair(self):
        pairing = slater_pairing(laughlin(2, 1))
        assert pairing.pairs == ((0, 1, 1.0),)

    def test_hierarchical_2_1(self):
        got = {(a, b): w for a, b, w in slater_pairing(hierarchical_phi(2, 1)).pairs}
        assert got[(0, 3)] == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
        assert got[(1, 2)] == pytest.approx(0.5, abs=1e-14)

    def test_rejects_three_fermions(self):
        with pytest.raises(NotTwoFermionError):
            slater_pairing(laughlin(3, 3))

    def test_spectral_path_on_shared_mode_state(self):
        v = rational_state(3, {(0, 1): 3, (1, 2): 4})
        pairing = slater_pairing(v)
        assert pairing.basis == "rotated"
        assert len(pairing.pairs) == 1
        assert pairing.pairs[0][2] == pytest.approx(1.0, abs=1e-12)
        assert pairing.residual == 1
        assert pairing.entropy_nats() == pytest.approx(LN2, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 11, 13])
    @pytest.mark.parametrize("family", [laughlin, hierarchical_phi])
    def test_route_equivalence_families(self, family, m):
        state = family(2, m)
        via_pairing = slater_pairing(state).entropy_nats()
        via_density = von_neumann(one_body_density(state))
        assert via_pairing == pytest.approx(via_density, abs=1e-10)

    @given(dim4_two_fermion_states())
    @settings(max_examples=60, deadline=None)
    def test_route_equivalence_random(self, v):
        via_pairing = slater_pairing(v).entropy_nats()
        via_density = von_neumann(one_body_density(v))
        assert via_pairing == pytest.approx(via_density, abs=1e-9)

    def test_rotated_path_on_irrational_mixed_state(self):
        v = FockVector.from_unnormalized(2, 5, IRRATIONAL_MIXED_STATE)
        pairing = slater_pairing(v)
        assert pairing.basis == "rotated"
        assert pairing.residual == 5 - 2 * len(pairing.pairs)
        assert [(a, b) for a, b, _ in pairing.pairs] == [
            (2 * k, 2 * k + 1) for k in range(len(pairing.pairs))
        ]
        assert pairing.entropy_nats() == pytest.approx(
            von_neumann(one_body_density(v)), abs=1e-12
        )

    @given(irrational_mixed_states(max_particles=2))
    @settings(max_examples=60, deadline=None)
    def test_route_equivalence_irrational(self, v):
        via_pairing = slater_pairing(v).entropy_nats()
        via_density = von_neumann(one_body_density(v))
        assert via_pairing == pytest.approx(via_density, abs=1e-9)


class TestSchliemannEta:
    def test_single_determinant_zero(self):
        assert schliemann_eta(rational_state(4, {(0, 1): 1})) == 0.0

    def test_maximally_correlated_one(self):
        v = rational_state(4, {(0, 1): 1, (2, 3): 1})
        assert schliemann_eta(v) == pytest.approx(1.0, abs=1e-14)

    def test_quarter_three_quarter(self):
        v = FockVector(2, 4, {(0, 1): 1, (2, 3): 3})
        assert schliemann_eta(v) == pytest.approx(math.sqrt(3) / 2, abs=1e-14)

    def test_laughlin_2_3(self):
        assert schliemann_eta(laughlin(2, 3)) == pytest.approx(
            math.sqrt(3) / 2, abs=1e-14
        )

    def test_rotated_determinant_zero(self):
        v = rational_state(4, {(0, 1): 1, (0, 2): 1})
        assert schliemann_eta(v) == 0.0

    def test_decomposable_minors_exactly_zero(self):
        # amplitudes as 2x2 minors of [[1,2,3,4],[5,6,7,8]] satisfy the
        # decomposability (Pluecker) identity, so eta vanishes exactly
        rows = ([1, 2, 3, 4], [5, 6, 7, 8])
        amps = {}
        for i in range(4):
            for j in range(i + 1, 4):
                amps[(i, j)] = rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
        v = rational_state(4, amps)
        assert schliemann_eta(v) == 0.0
        assert abs(modified_measure(v).measure_nats) <= 1e-9

    def test_dimension_errors(self):
        with pytest.raises(DimensionNotFourError):
            schliemann_eta(laughlin(2, 5))
        with pytest.raises(NotTwoFermionError):
            schliemann_eta(laughlin(3, 3))

    @given(dim4_two_fermion_states())
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_measure_consistency(self, v):
        eta = schliemann_eta(v)
        measure = modified_measure(v).measure_nats
        assert -1e-15 <= eta <= 1 + 1e-12
        assert (eta <= 1e-12) == (abs(measure) <= 1e-9)


class TestTwoQubitConsistency:
    def test_extremes(self):
        assert two_qubit_consistency(1) == 0.0
        assert two_qubit_consistency(0) == 0.0

    def test_half(self):
        assert two_qubit_consistency(Fraction(1, 2)) == pytest.approx(LN2, abs=1e-13)

    def test_quarter(self):
        expected = 2 * LN2 - 0.75 * math.log(3)
        assert two_qubit_consistency(Fraction(1, 4)) == pytest.approx(
            expected, abs=1e-13
        )

    @pytest.mark.parametrize("i", range(11))
    def test_grid_matches_schmidt_entropy(self, i):
        alpha_sq = Fraction(i, 10)
        expected = oracles.entropy_of([alpha_sq, 1 - alpha_sq])
        assert two_qubit_consistency(alpha_sq) == pytest.approx(expected, abs=1e-12)

    def test_range_error(self):
        with pytest.raises(ValueError):
            two_qubit_consistency(Fraction(3, 2))
