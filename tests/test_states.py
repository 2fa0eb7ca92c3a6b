"""Family constructors, the zero-wavefunction boundary, and K-matrices."""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import squared_magnitudes
from fqhent import (
    KMatrix,
    MultiPoly,
    ZeroWavefunctionError,
    chi,
    chi_k,
    condense,
    CondensateKernel,
    family_expansion,
    family_polynomial,
    filling_fraction,
    hierarchical_phi,
    hierarchical_phi_k,
    laughlin,
    modified_measure,
    slater_project,
    sweep,
    vandermonde_power,
    vanishes,
)
from fqhent import poly, states
from fqhent.entangle import closed_form_sf_laughlin2
from fqhent.figures import (
    FigureSpec, evaluate_point, family_report, figure_spec, figure_title, series_points
)
from fqhent.lll import FockVector, occupations
from fqhent.measure import EntanglementReport, OneBodyDensityMatrix
from fqhent.quasihole import gaussian_moment
from fqhent.states import MAX_DETERMINANTS, MAX_ORBITALS, family_factors

FAMILIES = ("laughlin", "hierarchical_phi", "chi")
ODD_M = tuple(range(1, 14, 2))


class TestLaughlin:
    def test_m1_single_determinant(self):
        v = laughlin(2, 1)
        assert len(v) == 1
        assert dict(v.weights) == {(0, 1): -1}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_m1_separable_any_n(self, n):
        v = laughlin(n, 1)
        assert len(v) == 1
        assert list(v.weights) == [tuple(range(n))]

    def test_m3_amplitudes(self):
        v = laughlin(2, 3)
        assert squared_magnitudes(v) == {
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
        # past N = 7 a state is refused as soon as one of its counts is over:
        # chi(511, 3) spans 513 orbitals, laughlin(10, 3) visits more than
        # 40,000 determinants and laughlin(513, 1) spans 513 orbitals
        with pytest.raises(ValueError):
            laughlin(1, 3)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="513 orbitals"):
            chi(511, 3)
        with pytest.raises(ValueError, match="MAX_DETERMINANTS"):
            laughlin(10, 3)
        with pytest.raises(ValueError, match="MAX_ORBITALS"):
            laughlin(513, 1)
        assert time.perf_counter() - start < 1


class TestHierarchicalPhi:
    def test_m1_amplitudes(self):
        v = hierarchical_phi(2, 1)
        assert squared_magnitudes(v) == {
            (0, 3): Fraction(3, 4),
            (1, 2): Fraction(1, 4),
        }

    def test_m3_polynomial_part(self):
        # (z1 - z2)^3 (z1^2 + z2^2)
        expected = vandermonde_power(2, 3) * MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert family_polynomial("hierarchical_phi", 2, 3) == expected

    def test_m3_amplitudes(self):
        v = hierarchical_phi(2, 3)
        assert squared_magnitudes(v) == {
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
        assert cond.scale != 1
        v = hierarchical_phi(2, 1)
        assert sum(squared_magnitudes(v).values()) == 1


class TestChi:
    def test_m1_is_shifted_single_determinant(self):
        # p=0 condensate is a constant times (z1..zN)^2, so every orbital
        # index is shifted up by 2 relative to the bare Vandermonde
        v = chi(4, 1)
        assert list(v.weights) == [(2, 3, 4, 5)]
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


CHI_LARGEST_N = dict.fromkeys(range(3, 14, 2), 510)
"""The largest N family_factors accepts for chi at each odd m from 3 to 13:
the orbital limit, N + 2 <= 512, since the Pieri product makes only the
subsets that survive."""


def _occupations(family: str, n: int, m: int) -> list[Fraction]:
    occupied, total = occupations(family_expansion(family, n, m))
    return [Fraction(count, total) for count in occupied]


class TestChiStability:
    """chi(N, m) at fixed m and N >= m - 1 has (m + 1) / 2 determinants, and
    chi(N + 1, m)'s occupations are chi(N, m)'s with one more orbital at the
    top, fully occupied; compared as exact Fractions, not floats."""

    @pytest.mark.parametrize("m", range(3, 14, 2))
    def test_one_more_electron_fills_one_more_orbital(self, m):
        below = _occupations("chi", m - 1, m)
        for n in range(m - 1, m + 3):
            assert len(family_expansion("chi", n, m)) == (m + 1) // 2, n
            if n > m - 1:
                occupied = _occupations("chi", n, m)
                assert occupied == below + [1], n
                below = occupied

    @pytest.mark.parametrize("m", CHI_LARGEST_N)
    def test_at_the_largest_n(self, m):
        n = CHI_LARGEST_N[m]
        family_factors("chi", n, m)
        with pytest.raises(ValueError, match="MAX_ORBITALS"):
            family_factors("chi", n + 1, m)
        assert len(family_expansion("chi", n, m)) == (m + 1) // 2
        assert _occupations("chi", n, m) == _occupations("chi", m - 1, m) + [1] * (n - m + 1)

    @pytest.mark.parametrize("n", [*range(2, 10), 510])
    def test_hierarchical_phi_m1_is_chi_m3(self, n):
        # both have K = ((1, 1), (1, -2))
        quarter = Fraction(1, 4)
        expected = [3 * quarter, quarter, quarter, 3 * quarter] + [1] * (n - 2)
        assert _occupations("hierarchical_phi", n, 1) == expected == _occupations("chi", n, 3)


def _chi_by_lowered_tails(n: int, m: int) -> dict[tuple[int, ...], int]:
    """chi(N, m) for N >= m - 1 in closed form, with no Pieri product.

    It is a_{delta + 2} e_j(z^-2), j = (m - 1)/2.  An entry of delta + 2
    lowered by 2 lands on the entry two positions on, unless that one is
    lowered too, so the lowered positions are the last a of the even ones
    and the last j - a of the odd ones, for each a in 0..j; each is sorted
    by value with its permutation's sign.
    """
    j = (m - 1) // 2
    evens, odds = range(0, n, 2), range(1, n, 2)
    terms = {}
    for a in range(j + 1):
        lowered = {*evens[len(evens) - a:], *odds[len(odds) - (j - a):]}
        values = [n + 1 - i - 2 * (i in lowered) for i in range(n)]
        order = sorted(range(n), key=values.__getitem__, reverse=True)
        terms[tuple(values[i] for i in order)] = oracles._cycle_sign(tuple(order))
    return terms


class TestChiPastTheSubsetRule:
    """chi points that family_factors refused while C(N, p/2) > 40,000, before
    the Pieri product made only the subsets that survive."""

    @pytest.mark.parametrize("n,m", [(18, 19), (20, 21), (284, 5)])
    def test_terms_and_order_match_the_subset_loop(self, n, m):
        # just past the retired rule: C(18, 9), C(20, 10) and C(284, 2) subsets
        expected = oracles.pieri_by_position_map(poly.vandermonde_expansion(n, 1), n - (m - 1) // 2)
        assert list(family_expansion("chi", n, m).terms.items()) == list(expected.terms.items())

    @pytest.mark.parametrize("n,m", [(100, 41), (284, 5), (510, 201), (510, 511)])
    def test_signed_law(self, n, m):
        # chi is stable in N: chi(m - 1, m)'s terms with N + 1, ..., m + 1 put
        # in front, with the same coefficients
        terms = dict(family_expansion("chi", n, m).terms)
        top = tuple(range(n + 1, m, -1))
        assert terms == {top + lam: c for lam, c in family_expansion("chi", m - 1, m).terms.items()}
        assert terms == _chi_by_lowered_tails(n, m)


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
        assert len({sum(k) for k in poly.terms}) == 1

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_polynomial("unknown", 2, 3)

    def test_refuses_above_n5_at_once(self):
        # laughlin(7, 3) is within every state limit, but its full expansion
        # was still running after 60 s
        family_factors("laughlin", 7, 3)
        start = time.perf_counter()
        for n in (6, 7):
            with pytest.raises(ValueError, match="N <= 5"):
                family_polynomial("laughlin", n, 3)
        assert time.perf_counter() - start < 1
        assert len(family_expansion("laughlin", 7, 3)) == 1111


class TestFamilyExpansion:
    """The determinant-basis construction against the full-expansion route."""

    @pytest.mark.parametrize(
        "family,n,m",
        [(f, n, m) for f in FAMILIES for n in (2, 3, 4) for m in ODD_M]
        + [(f, 5, m) for f in FAMILIES for m in (1, 3)]
        + [("laughlin", 5, 5)]
        + [("chi", 5, m) for m in (5, 7, 9, 11)],
    )
    def test_matches_full_expansion_route(self, family, n, m):
        try:
            expected = slater_project(family_polynomial(family, n, m))
        except ZeroWavefunctionError:
            with pytest.raises(ZeroWavefunctionError):
                family_expansion(family, n, m)
            return
        assert family_expansion(family, n, m) == expected

    def test_builds_without_polynomial_products(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the polynomial route was used")

        points = [("laughlin", 4, 7), ("hierarchical_phi", 4, 5), ("chi", 4, 7)]
        monkeypatch.setattr(states, "vandermonde_power", refuse)
        monkeypatch.setattr(states, "condense", refuse)
        monkeypatch.setattr(poly, "vandermonde_power", refuse)
        monkeypatch.setattr(MultiPoly, "__mul__", refuse)
        built = [family_expansion(*point) for point in points]
        for point in points:
            states.FAMILIES[point[0]](*point[1:])
        monkeypatch.undo()
        for point, expansion in zip(points, built):
            assert expansion == slater_project(family_polynomial(*point))

    def test_rejects_like_family_polynomial(self):
        with pytest.raises(ValueError):
            family_expansion("unknown", 2, 3)
        with pytest.raises(ValueError):
            family_expansion("laughlin", 2, 4)
        with pytest.raises(ZeroWavefunctionError):
            family_expansion("chi", 2, 7)


def _counting_squeezes(monkeypatch) -> list[tuple[int, int]]:
    """The (N, power) of every squeezing run from now on, in order."""
    calls = []
    real = states.vandermonde_expansion

    def counting(nvars, power):
        calls.append((nvars, power))
        return real(nvars, power)

    monkeypatch.setattr(states, "vandermonde_expansion", counting)
    return calls


def _held() -> int:
    return sum(len(e) for e in states._expansions.values())


class TestVandermondeMemo:
    """family_expansion squeezes each (N, power) once, in a bounded LRU memo."""

    def test_laughlin_and_hierarchical_phi_share_one_squeeze(self, monkeypatch):
        calls = _counting_squeezes(monkeypatch)
        first = laughlin(3, 13)
        hierarchical_phi(3, 13)
        assert laughlin(3, 13) == first
        assert family_expansion("laughlin", 3, 13) is family_expansion("laughlin", 3, 13)
        assert family_expansion("hierarchical_phi", 3, 13) == slater_project(
            family_polynomial("hierarchical_phi", 3, 13)
        )
        assert calls == [(3, 13)]

    def test_bounded_and_least_recently_used_out_first(self, monkeypatch):
        # laughlin(2, m) has (m + 1) / 2 determinants
        monkeypatch.setattr(states, "MAX_DETERMINANTS", 10)
        calls = _counting_squeezes(monkeypatch)
        for m in (7, 5, 3, 7, 1):
            family_expansion("laughlin", 2, m)
            assert _held() <= 10
        assert list(states._expansions) == [(2, 5), (2, 3), (2, 7), (2, 1)]
        assert _held() == 10
        family_expansion("laughlin", 2, 9)  # 5 more: (2, 5) and (2, 3) go
        assert list(states._expansions) == [(2, 7), (2, 1), (2, 9)]
        assert _held() == 10
        family_expansion("laughlin", 2, 5)  # 3 more: (2, 7) goes
        assert list(states._expansions) == [(2, 1), (2, 9), (2, 5)]
        assert calls == [(2, 7), (2, 5), (2, 3), (2, 1), (2, 9), (2, 5)]
        for m in range(1, 20, 2):
            family_expansion("laughlin", 2, m)
            assert _held() <= 10

    def test_keeps_nothing_that_alone_exceeds_the_bound(self, monkeypatch):
        family_expansion("laughlin", 2, 3)
        monkeypatch.setattr(states, "MAX_DETERMINANTS", 4)
        # family_factors would refuse laughlin(2, 9), so ask the memo directly
        expansion = states._vandermonde(2, 9)
        assert len(expansion) == 5
        assert expansion == poly.vandermonde_expansion(2, 9)
        assert list(states._expansions) == [(2, 3)]

    def test_threads_share_the_memo(self, monkeypatch):
        # more threads than cores, switching often, over 12 powers of which
        # any 3 or 4 fill the bound
        monkeypatch.setattr(states, "MAX_DETERMINANTS", 12)
        expected = {m: poly.vandermonde_expansion(2, m) for m in range(1, 24, 2)}
        problems = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    m = rng.choice(list(expected))
                    if family_expansion("laughlin", 2, m) != expected[m]:
                        problems.append(m)
                    with states._expansions_lock:
                        if _held() > 12:
                            problems.append(_held())
            except Exception as exc:  # reported by the assertion below
                problems.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []

    @pytest.mark.parametrize(
        "family,n,m,error",
        [
            ("laughlin", 4, 41, ValueError),
            ("hierarchical_phi", 4, 39, ValueError),
            ("laughlin", 2, 513, ValueError),
            ("chi", 2, 7, ZeroWavefunctionError),
        ],
    )
    def test_refused_request_builds_and_keeps_nothing(self, monkeypatch, family, n, m, error):
        calls = _counting_squeezes(monkeypatch)
        with pytest.raises(error):
            family_expansion(family, n, m)
        with pytest.raises(error):
            states.FAMILIES[family](n, m)
        assert calls == []
        assert states._expansions == {}


class TestLaughlinInvariants:
    """Translation invariance, L^- = 0, and sphere highest weight, L^+ = 0."""

    @pytest.mark.parametrize(
        "n,m",
        [(n, m) for n in (2, 3, 4) for m in ODD_M]
        + [(5, m) for m in (1, 3, 5, 7, 9)]
        + [(6, 1), (6, 3), (6, 5), (7, 1), (7, 3), (8, 3)]
        + [(3, 101), (3, 255), (2, 511)],
    )
    def test_laughlin_is_annihilated(self, n, m):
        terms = dict(family_expansion("laughlin", n, m).terms)
        assert oracles.lowering(terms) == {}
        assert oracles.raising(terms, m * (n - 1)) == {}

    def test_perturbed_coefficient_breaks_both(self):
        terms = dict(family_expansion("laughlin", 5, 5).terms)
        terms[max(terms)] += 1
        assert oracles.lowering(terms)
        assert oracles.raising(terms, 5 * 4)

    @pytest.mark.parametrize("family", ["hierarchical_phi", "chi"])
    def test_condensate_states_are_not_translation_invariant(self, family):
        assert oracles.lowering(dict(family_expansion(family, 3, 3).terms))


class TestPointEvaluation:
    """The expansion at a random point mod 2^61 - 1 against the product form.

    By Schwartz-Zippel a wrong expansion agrees at a random point with
    probability at most its degree over the prime.  The condensate comes from
    its Gaussian-integral sum and its scale from that sum's leading term, so
    no code is shared with times_elementary_squares or condense.
    """

    @staticmethod
    def _values(family, n, m, terms):
        power, p = family_factors(family, n, m)
        scale = 1 if p is None else oracles.condensate_scale(p)
        rng = random.Random(f"{family} {n} {m}")
        z = [rng.randrange(1, oracles.PRIME) for _ in range(n)]
        return oracles.determinants_at_point(terms, z), oracles.family_at_point(z, power, p, scale)

    @pytest.mark.parametrize(
        "family,n,m",
        [("hierarchical_phi", 6, 3), ("hierarchical_phi", 7, 3), ("laughlin", 7, 3)]
        + [("chi", n, m) for n in (6, 7) for m in range(1, 2 * n + 2, 2)]
        + [("laughlin", 8, 3), ("hierarchical_phi", 8, 3), ("chi", 16, 17)]
        # past the retired subset rule, where m > N + 1 and no signed law holds
        + [("chi", 20, 23), ("chi", 20, 27), ("chi", 24, 35)],
    )
    def test_matches_product_form(self, family, n, m):
        got, expected = self._values(family, n, m, dict(family_expansion(family, n, m).terms))
        assert got == expected

    def test_perturbed_expansion_fails(self):
        terms = dict(family_expansion("hierarchical_phi", 6, 3).terms)
        lam = max(terms)
        for changed in (terms[lam] + 1, -terms[lam]):
            got, expected = self._values("hierarchical_phi", 6, 3, {**terms, lam: changed})
            assert got != expected


# each entry point that takes N and m, at the laughlin state (N, m)
INTEGER_ENTRY_POINTS = {
    "family_factors": lambda n, m: family_factors("laughlin", n, m),
    "family_report": lambda n, m: family_report("laughlin", n, m),
    "FAMILIES": lambda n, m: states.FAMILIES["laughlin"](n, m),
    "evaluate_point": lambda n, m: evaluate_point("laughlin", n, m),
    "vandermonde_expansion": lambda n, m: poly.vandermonde_expansion(n, m),
}

# every other entry point that takes a count, by the count's name: a call
# that is valid when the count is 3
COUNT_ENTRY_POINTS = {
    "vandermonde_power-nvars": lambda v: vandermonde_power(v, 3),
    "vandermonde_power-power": lambda v: vandermonde_power(3, v),
    "elementary_symmetric-nvars": lambda v: poly.elementary_symmetric(v, 2),
    "elementary_symmetric-k": lambda v: poly.elementary_symmetric(3, v),
    "times_elementary_squares-k": (
        lambda v: poly.SlaterExpansion(3, {(2, 1, 0): 1}).times_elementary_squares(v)
    ),
    "MultiPoly-nvars": lambda v: MultiPoly(v, {}),
    "CondensateKernel-n_electrons": lambda v: CondensateKernel(v, 2),
    "CondensateKernel-p": lambda v: CondensateKernel(3, v),
    "vanishes-n_electrons": lambda v: vanishes(v, 2),
    "vanishes-p": lambda v: vanishes(3, v),
    "gaussian_moment-a": lambda v: gaussian_moment(v, 3),
    "gaussian_moment-b": lambda v: gaussian_moment(3, v),
    "FockVector-n_particles": lambda v: FockVector(v, 4, {(0, 1, 2): 1}),
    "FockVector-dim": lambda v: FockVector(2, v, {(0, 1): 1}),
    "OneBodyDensityMatrix-dim": lambda v: OneBodyDensityMatrix(v, (1, 1, 1), 3),
    "OneBodyDensityMatrix-denominator": lambda v: OneBodyDensityMatrix(3, (1, 1, 1), v),
    "from_entropy-n_particles": lambda v: EntanglementReport.from_entropy(v, 1.5),
    "closed_form_sf_laughlin2-m": closed_form_sf_laughlin2,
    "hierarchical_phi_k-m": hierarchical_phi_k,
    "chi_k-m": chi_k,
    "figure_title-id": figure_title,
    "figure_spec-id": figure_spec,
    "figure_spec-t_max": lambda v: figure_spec(1, v),
    "FigureSpec-t": lambda v: FigureSpec(1, (("laughlin", 2),), (v, 0)),
    "sweep-jobs": lambda v: sweep([], v),
    "series_points-m_max": lambda v: series_points([], v),
}

NOT_INTS = [3.0, True, "3", np.int64(3)]


class TestIntegerInputs:
    """N and m are Python ints: a bool would read as 0 or 1, a float fails
    in math.comb, and a numpy integer overflows the weights and, once in
    the Vandermonde memo, answers a later request with numpy entries."""

    @pytest.mark.parametrize("value", NOT_INTS, ids=lambda value: type(value).__name__)
    @pytest.mark.parametrize("position", ["N", "m"])
    @pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
    def test_refused_before_any_arithmetic(self, entry, position, value):
        args = (value, 3) if position == "N" else (3, value)
        with pytest.raises(ValueError, match="must be a Python int"):
            INTEGER_ENTRY_POINTS[entry](*args)
        assert type(laughlin(3, 3).n_particles) is int

    @pytest.mark.parametrize("value", NOT_INTS, ids=lambda value: type(value).__name__)
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_every_count_is_checked(self, entry, value):
        # the call is valid at 3, so the refusal is the count's alone: a
        # bool would read as 0 or 1, and a float, a str or a numpy integer
        # would reach the arithmetic or a range check that passes it
        COUNT_ENTRY_POINTS[entry](3)
        with pytest.raises(ValueError, match="must be a Python int"):
            COUNT_ENTRY_POINTS[entry](value)


def _product_root(family: str, n: int, m: int) -> tuple[int, ...]:
    """The Vandermonde root, plus 2 on the first N - p/2 entries with a condensate."""
    power, p = family_factors(family, n, m)
    k = 0 if p is None else n - p // 2
    return tuple(power * (n - 1 - i) + (2 if i < k else 0) for i in range(n))


def _is_dominated(mu: tuple[int, ...], root: tuple[int, ...]) -> bool:
    partial = list(itertools.accumulate(mu))
    bounds = list(itertools.accumulate(root))
    return partial[-1] == bounds[-1] and all(a <= b for a, b in zip(partial, bounds))


class TestSizeLimits:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bound_matches_enumeration(self, n):
        # every strictly decreasing root with entries up to 9, against all
        # strictly decreasing tuples of its entries' range, in the same order
        for root in itertools.combinations(range(9, -1, -1), n):
            expected = [
                mu
                for mu in itertools.combinations(range(root[0], -1, -1), n)
                if _is_dominated(mu, root)
            ]
            assert list(oracles.dominated(root)) == expected, root

    @pytest.mark.parametrize("root", [(0,), (511,), (1, 0), (511, 0), (300, 17)])
    def test_short_roots(self, root):
        # one entry dominates only itself; two entries (x, |root| - x) from
        # root[0] down to above half the sum
        if len(root) == 1:
            expected = [root]
        else:
            total = sum(root)
            expected = [(x, total - x) for x in range(root[0], total // 2, -1)]
        assert list(oracles.dominated(root)) == expected

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 20])
    def test_170_entries(self, k):
        # the staircase (169, ..., 1, 0) plus k on its first entry dominates
        # exactly the staircase plus each partition of k, in the partitions'
        # lexicographically descending order
        def partitions(rest, largest):
            if rest == 0:
                yield ()
            for part in range(min(rest, largest), 0, -1):
                for tail in partitions(rest - part, part):
                    yield (part, *tail)

        staircase = tuple(range(169, -1, -1))
        root = (staircase[0] + k, *staircase[1:])
        expected = [
            tuple(s + p for s, p in itertools.zip_longest(staircase, lam, fillvalue=0))
            for lam in partitions(k, k)
        ]
        assert list(oracles.dominated(root)) == expected

    def test_170_entries_count_quickly(self):
        # laughlin(170, 3)'s root dominates more than the budget: this walk
        # makes MAX_DETERMINANTS + 1 of its tuples, and the count that
        # refuses the state only sums the widths of their prefixes
        root = tuple(range(3 * 169, -1, -3))
        start = time.perf_counter()
        walked = list(itertools.islice(oracles.dominated(root), MAX_DETERMINANTS + 1))
        assert time.perf_counter() - start < 0.4
        assert len(walked) == len(set(walked)) == MAX_DETERMINANTS + 1
        assert walked[0] == root and walked == sorted(walked, reverse=True)
        assert all(_is_dominated(mu, root) for mu in walked[::97])
        assert all(a > b for mu in walked[::97] for a, b in zip(mu, mu[1:]))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_DETERMINANTS"):
            family_factors("laughlin", 170, 3)
        assert time.perf_counter() - start < 0.4

    @pytest.mark.parametrize(
        "n,m,expected",
        [(4, 13, 1406), (5, 5, 521), (5, 9, 6033), (5, 13, 27289), (7, 5, 32923), (4, 41, 45331)],
    )
    def test_laughlin_bounds(self, n, m, expected):
        # the tuples the root ((N-1) m, ..., m, 0) dominates
        root = tuple(range(m * (n - 1), -1, -m))
        assert sum(1 for _ in oracles.dominated(root)) == expected

    @pytest.mark.parametrize("n,m", [(4, 13), (5, 5), (5, 9), (5, 13), (7, 5), (4, 41)])
    def test_width_count_matches_the_walk(self, n, m):
        # the budget count sums prefix widths; walking every tuple, up to
        # MAX_DETERMINANTS + 1 of them, gives the same number
        root = tuple(range(m * (n - 1), -1, -m))
        walked = sum(1 for _ in itertools.islice(oracles.dominated(root), MAX_DETERMINANTS + 1))
        assert states._determinants_visited(root) == walked

    @pytest.mark.parametrize(
        "n,m",
        [(2, 80001), (3, 283), (4, 41), (5, 15), (6, 9), (7, 7), (8, 5), (9, 5)]
        + [(10, 3), (11, 3), (12, 3)],
    )
    def test_width_count_stops_past_the_budget(self, n, m):
        # at each N the smallest odd m whose root dominates more than the
        # budget: both counts stop at MAX_DETERMINANTS + 1
        root = tuple(range(m * (n - 1), -1, -m))
        walked = sum(1 for _ in itertools.islice(oracles.dominated(root), MAX_DETERMINANTS + 1))
        assert states._determinants_visited(root) == walked == MAX_DETERMINANTS + 1
        smaller = tuple(range((m - 2) * (n - 1), -1, -(m - 2)))
        assert states._determinants_visited(smaller) <= MAX_DETERMINANTS

    @pytest.mark.parametrize("family,n", [(f, n) for f in FAMILIES for n in range(2, 8)])
    def test_bound_covers_the_state(self, family, n):
        # every allowed state with at most 5,000 determinants; at N <= 3,
        # where there are hundreds, every fourth odd m
        for m in range(1, MAX_ORBITALS, 8 if n <= 3 else 2):
            try:
                root = _product_root(family, n, m)
            except ValueError:
                break
            count = sum(1 for _ in itertools.islice(oracles.dominated(root), 5001))
            if count > 5000:
                break
            expansion = family_expansion(family, n, m)
            assert all(_is_dominated(lam, root) for lam in expansion.terms), (n, m)
            assert len(expansion) <= count

    def test_count_stops_past_limit(self):
        # both roots dominate far more than MAX_DETERMINANTS + 1 tuples
        start = time.perf_counter()
        for family, n, m in [("laughlin", 7, 85), ("hierarchical_phi", 7, 83)]:
            with pytest.raises(ValueError, match="MAX_DETERMINANTS"):
                family_factors(family, n, m)
        assert time.perf_counter() - start < 0.5

    def test_rejects_over_determinant_budget(self):
        # the roots of laughlin(4, 41) and (5, 15) dominate 45,331 and 48,931 tuples
        assert MAX_DETERMINANTS == 40_000
        with pytest.raises(ValueError, match="MAX_DETERMINANTS"):
            family_expansion("laughlin", 4, 41)
        with pytest.raises(ValueError, match="MAX_DETERMINANTS"):
            family_polynomial("laughlin", 5, 15)

    def test_rejects_over_orbital_budget(self):
        # N = 2 stays far below the determinant budget: (m + 1) / 2 determinants
        assert MAX_ORBITALS == 512
        assert len(family_expansion("laughlin", 2, 511)) == 256
        with pytest.raises(ValueError, match="MAX_ORBITALS"):
            laughlin(2, 513)

    def test_builds_and_measures_at_the_orbital_limit(self):
        # N = 512 at m = 1 and N = 510 in chi at m = 3 each span 512 orbitals
        assert modified_measure(laughlin(512, 1)).measure_nats == 0
        state = chi(510, 3)
        assert len(state) == 2 and state.dim == MAX_ORBITALS
        assert modified_measure(state).measure_nats > 0

    def test_limits_reach_n5_to_m13_and_n7_at_low_m(self):
        for family, n, m in [
            ("laughlin", 5, 13),
            ("hierarchical_phi", 5, 13),
            ("laughlin", 6, 7),
            ("hierarchical_phi", 6, 7),
            ("laughlin", 7, 5),
            ("hierarchical_phi", 7, 3),
            ("laughlin", 4, 39),
        ]:
            family_factors(family, n, m)
        for family, n, m in [
            ("laughlin", 4, 41),
            ("laughlin", 5, 15),
            ("laughlin", 7, 7),
            ("hierarchical_phi", 4, 39),
            ("hierarchical_phi", 6, 9),
        ]:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="MAX_DETERMINANTS"):
                family_factors(family, n, m)
            assert time.perf_counter() - start < 0.1, (family, n, m)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_allows_every_point_in_use(self, family):
        # tests, verify and figures use N <= 4 at odd m <= 13; the benchmark
        # adds laughlin (5, 5), hierarchical_phi (5, 3) and chi (5, 11)
        points = [(n, m) for n in (2, 3, 4) for m in ODD_M] + [(5, 1), (5, 3), (5, 5)]
        if family == "chi":
            points.append((5, 11))
        for n, m in points:
            try:
                family_factors(family, n, m)
            except ZeroWavefunctionError:
                pass

    def test_sweep_counts_each_budget_once(self, monkeypatch):
        # C(40, 3) = 9,880 and C(36, 3) = 7,140 bound the tuples these roots
        # dominate, so neither is walked; laughlin(5, 13), with
        # min(C(53, 4), C(53, 6)) = 292,825, and laughlin(3, 143), with
        # min(C(287, 2), C(287, 4)) = 41,041, are walked once per check: a
        # sweep's up-front one and its build's count twice
        roots = []

        def counting(root):
            roots.append(root)
            return poly._dominated_prefixes(root)

        monkeypatch.setattr(states, "_dominated_prefixes", counting)
        sweep([("laughlin", 4, 13), ("hierarchical_phi", 4, 11)])
        family_expansion("laughlin", 4, 13)
        assert roots == []
        family_factors("laughlin", 5, 13)
        assert roots == [(52, 39, 26, 13, 0)]
        sweep([("laughlin", 3, 143)])
        assert roots[1:] == [(286, 143, 0)] * 2

    def test_decisions_match_the_walk(self, monkeypatch):
        # a point within its orbitals is allowed exactly when its root
        # dominates no more tuples than the budget, whether or not it is
        # walked; a root family_factors walks is counted once, not again here
        counts, visited = {}, states._determinants_visited

        def count(root):
            if root not in counts:
                counts[root] = visited(root)
            return counts[root]

        monkeypatch.setattr(states, "_determinants_visited", count)
        points = [
            (family, n, m)
            for family, n, m in itertools.product(FAMILIES, range(2, 10), range(1, 42, 2))
            if family != "chi" or m <= 2 * n + 1
        ]
        points += [("chi", n, m) for n in (282, 510) for m in (3, 5, 101, 2 * n - 1)]
        allowed = 0
        for family, n, m in points:
            power, p = {"laughlin": (m, None), "hierarchical_phi": (m, 2), "chi": (1, m - 1)}[family]
            k = 0 if p is None else n - p // 2
            root = tuple(power * (n - 1 - i) + 2 * (i < k) for i in range(n))
            try:
                family_factors(family, n, m)
            except ValueError as error:
                assert "MAX_DETERMINANTS" in str(error), (family, n, m)
                assert count(root) > MAX_DETERMINANTS, (family, n, m)
            else:
                assert count(root) <= MAX_DETERMINANTS, (family, n, m)
                allowed += 1
        assert 0 < allowed < len(points)

    def test_state_with_fewer_subsets_than_the_budget_is_not_walked(self, monkeypatch):
        # every tuple laughlin(3, 31) visits is a 3-subset of 0 .. 62 with the
        # root's sum, fixed by its first 2 entries, and C(63, 2) = 1,953 is
        # within the budget, so there is nothing to count.  chi's root leaves
        # two of its N + 2 orbitals out, and m = 1 spans N or N + 2 of them,
        # so min(C(orbitals, N - 1), C(orbitals, N + 1)) <= N + 2; the figure
        # presets' points and the benchmark's heavy points are within it too
        def refuse(root):
            raise AssertionError(f"walked {root}")

        monkeypatch.setattr(states, "_dominated_prefixes", refuse)
        points = [
            ("laughlin", 3, 31),
            ("hierarchical_phi", 3, 27),
            ("chi", 4, 7),
            ("laughlin", 5, 5),
            ("laughlin", 4, 13),
            ("hierarchical_phi", 4, 11),
            ("hierarchical_phi", 5, 3),
            ("chi", 5, 11),
        ]
        points += [("chi", 510, m) for m in range(1, 1022, 2)]
        points += [(f, n, 1) for f in ("laughlin", "hierarchical_phi") for n in range(2, 511)]
        for fig_id in (1, 2, 3, 4, 5):
            spec = figure_spec(fig_id)
            points += [(family, n, 2 * t + 1) for family, n in spec.series for t in spec.t_values]
        for point in points:
            try:
                family_factors(*point)
            except ZeroWavefunctionError:
                pass
        assert sweep([("laughlin", 3, 5)])[0].measure_bits > 0


def _outcome(call):
    """What call() returns, or the type and text of what it raises."""
    try:
        return call()
    except ValueError as error:
        return type(error), str(error)


def _refuse_records(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"made a {type(self).__name__}")

    monkeypatch.setattr(KMatrix, "__init__", refuse)
    monkeypatch.setattr(CondensateKernel, "__init__", refuse)


class TestFamilyFactorsMakeNoRecord:
    """family_factors reads power and p off the family table, with no record made."""

    @pytest.fixture
    def grid(self):
        """Each point of N = 2-9 and odd m <= 41, with what it gives while
        records may be made: a refusal's type and text, or else (power, p)
        from the family's K-matrix, (K11, -K22), and (m, None) for laughlin."""
        outcomes = {}
        for family, n, m in itertools.product(FAMILIES, range(2, 10), range(1, 42, 2)):
            outcome = _outcome(lambda: family_factors(family, n, m))
            if type(outcome[0]) is int:
                k = {"hierarchical_phi": hierarchical_phi_k, "chi": chi_k}.get(family)
                outcome = (m, None) if k is None else (k(m).entries[0][0], -k(m).entries[1][1])
            outcomes[family, n, m] = outcome
        return outcomes

    def test_factors_are_the_k_matrix_entries(self, grid, monkeypatch):
        _refuse_records(monkeypatch)
        refused = 0
        for point, expected in grid.items():
            outcome = _outcome(lambda: family_factors(*point))
            assert outcome == expected, point
            refused += type(outcome[0]) is not int
        assert 0 < refused < len(grid)

    @pytest.mark.parametrize(
        "point,error,text",
        [
            (
                ("laughlin", 2, 513),
                ValueError,
                "family laughlin, N=2, m=513 spans 514 orbitals, more than MAX_ORBITALS = 512",
            ),
            (
                ("laughlin", 4, 41),
                ValueError,
                "family laughlin, N=4, m=41 can have more than MAX_DETERMINANTS = 40,000"
                " determinants",
            ),
            (
                ("chi", 4, 13),
                ZeroWavefunctionError,
                "zero wavefunction: m > 2N+1 (family chi, N=4, m=13)",
            ),
        ],
        ids=["orbitals", "determinants", "zero"],
    )
    def test_refusals(self, monkeypatch, point, error, text):
        _refuse_records(monkeypatch)
        with pytest.raises(ValueError) as raised:
            family_factors(*point)
        assert type(raised.value) is error and str(raised.value) == text


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

    @pytest.mark.parametrize("m", ODD_M)
    def test_defines_the_family_factors(self, m):
        # (Vandermonde power, condensate p): K11 and -K22 of the family's matrix
        assert family_factors("laughlin", 3, m) == (m, None)
        assert family_factors("hierarchical_phi", 3, m) == (m, 2)
        if m <= 2 * 3 + 1:
            assert family_factors("chi", 3, m) == (1, m - 1)
        else:
            with pytest.raises(ZeroWavefunctionError):
                family_factors("chi", 3, m)

    def test_charge_vector(self):
        k = KMatrix(((2, 1), (1, 3)), charge=(1, 1))
        # q^T K^{-1} q = (3 - 2 + 2)/5
        assert filling_fraction(k) == Fraction(3, 5)

    def test_rejects_asymmetric_and_singular(self):
        with pytest.raises(ValueError):
            KMatrix(((1, 2), (3, 1)))
        with pytest.raises(ValueError):
            KMatrix(((1, 1), (1, 1)))

    @pytest.mark.parametrize(
        "entries,charge",
        [
            (((1.5, 1), (1, 2)), (1, 0)),
            (((2, 1), (1, 3)), (1, Fraction(1, 2))),
            (((2, 1), (1, 3)), (1,)),
            (((2, 1), (1, 3)), (1, 0, 0)),
        ],
    )
    def test_rejects_non_integer_entries_and_bad_charge(self, entries, charge):
        with pytest.raises(ValueError):
            KMatrix(entries, charge=charge)

    @pytest.mark.parametrize(
        "entries,charge",
        [(((True, 1), (1, -2)), (1, 0)), (((3, 1), (1, -2)), (True, 0))],
        ids=["entry", "charge"],
    )
    def test_rejects_bools(self, entries, charge):
        # operator.index reads True as 1, so each was once stored as 1
        with pytest.raises(ValueError, match="is a bool, not an integer"):
            KMatrix(entries, charge=charge)
