"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on success; without ``-s`` they appear only for failures.  Tolerances
are pinned here as constants, next to the criteria that use them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from fqhent import (
    CondensateKernel,
    FockVector,
    MultiPoly,
    ZeroWavefunctionError,
    chi,
    closed_form_sf_laughlin2,
    condense,
    hierarchical_phi,
    laughlin,
    modified_measure,
    one_body_density,
    schliemann_eta,
    slater_coefficient_magnitudes,
    slater_pairing,
    slater_project,
    two_qubit_consistency,
    vandermonde_power,
)

import oracles
from conftest import squared_magnitudes

TOL_SEPARABLE = 1e-12  # criterion 1
TOL_ANCHOR_PAIR = 1e-12  # criterion 2, equality between the two states
TOL_ANCHOR_VALUE = 1e-10  # criterion 2, against the analytic value
TOL_ROUTE = 1e-10  # criterion 7
TOL_TWO_QUBIT = 1e-12  # criterion 10
ETA_ZERO = 1e-12  # criterion 11, eta counted as zero
MEASURE_ZERO = 1e-9  # criterion 11, measure counted as zero

ODD_M = tuple(range(1, 14, 2))
LN2 = math.log(2)


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _measure(state) -> float:
    return modified_measure(state).measure_nats


def test_criterion_01_separability_of_filling_one():
    values = [_measure(laughlin(n, 1)) for n in (2, 3, 4)]
    ok = all(abs(v) <= TOL_SEPARABLE for v in values)
    _criterion(
        1,
        "laughlin(N,1) measure is 0 within 1e-12 for N in {2,3,4}",
        ok,
        f"values {values}",
    )


def test_criterion_02_equality_anchor():
    a = _measure(laughlin(2, 3))
    b = _measure(hierarchical_phi(2, 1))
    analytic = 2 * LN2 - 0.75 * math.log(3)
    ok = abs(a - b) <= TOL_ANCHOR_PAIR and abs(a - analytic) <= TOL_ANCHOR_VALUE
    _criterion(
        2,
        "laughlin(2,3) == hierarchical_phi(2,1) == 2ln2 - (3/4)ln3",
        ok,
        f"{a:.12f} vs {b:.12f} vs analytic {analytic:.12f} "
        f"({analytic / LN2:.6f} bits)",
    )


def test_criterion_03_binomial_amplitude_pattern():
    ok = True
    for m in ODD_M:
        expected = {
            (k, m - k): Fraction(math.comb(m, k), 2 ** (m - 1))
            for k in range((m - 1) // 2 + 1)
        }
        got = squared_magnitudes(laughlin(2, m))
        if got != expected:
            ok = False
            break
    _criterion(
        3,
        "laughlin(2,m) squared amplitudes are exactly C(m,k)/2^(m-1), odd m <= 13",
        ok,
    )


def test_criterion_04_three_electron_coefficients():
    expansion = slater_project(vandermonde_power(3, 3))
    got = dict(slater_coefficient_magnitudes(expansion))
    expected = {
        (0, 3, 6): 1,
        (0, 4, 5): 3,
        (1, 3, 5): 6,
        (1, 2, 6): 3,
        (2, 3, 4): 15,
    }
    # independent route: brute-force single-factor expansion, reading the
    # strictly decreasing monomials directly
    brute = oracles.brute_force_vandermonde(3, 3)
    brute_mags = {
        tuple(reversed(key)): abs(coeff)
        for key, coeff in brute.items()
        if key[0] > key[1] > key[2]
    }
    ok = got == expected and brute_mags == expected
    _criterion(
        4,
        "laughlin(3,3) coefficient magnitudes are {1,3,6,3,15}, "
        "cross-checked by brute-force expansion",
        ok,
        f"pipeline {sorted(got.values())}, oracle {sorted(brute_mags.values())}",
    )


def test_criterion_05_quasihole_integrals():
    two = condense(CondensateKernel(2, 2))
    three = condense(CondensateKernel(3, 2))
    ok = (
        two.poly == MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        and three.poly == MultiPoly(3, {(2, 2, 0): 1, (2, 0, 2): 1, (0, 2, 2): 1})
        and two.scale == Fraction(-162)
        and three.scale == Fraction(-162)
    )
    _criterion(
        5,
        "condensate polynomials match exactly; derived scale is -162*pi^2",
        ok,
        f"N=2: {two}; N=3 polynomial {three.poly}",
    )


def test_criterion_06_vanishing_criterion():
    ok = True
    for n in (2, 3, 4):
        for m in ODD_M:
            try:
                chi(n, m)
                raised = False
            except ZeroWavefunctionError:
                raised = True
            if raised != (m > 2 * n + 1):
                ok = False
    boundary_ok = len(chi(4, 9)) >= 1
    try:
        chi(4, 11)
        boundary_ok = False
    except ZeroWavefunctionError:
        pass
    _criterion(
        6,
        "chi(N,m) is the zero wavefunction exactly when m > 2N+1 "
        "(N <= 4, odd m <= 13)",
        ok and boundary_ok,
        "chi(4,m) nonzero through m=9, zero from m=11",
    )


def test_criterion_07_route_equivalence():
    worst = 0.0
    for m in ODD_M:
        for name, maker in (
            ("laughlin", laughlin),
            ("hierarchical_phi", hierarchical_phi),
            ("chi", chi),
        ):
            try:
                state = maker(2, m)
            except ZeroWavefunctionError:
                continue
            via_density = _measure(state)
            via_pairing = slater_pairing(state).entropy_nats() - LN2
            worst = max(worst, abs(via_pairing - via_density))
            if name == "laughlin":
                worst = max(worst, abs(closed_form_sf_laughlin2(m) - via_density))
    _criterion(
        7,
        "pairing, density-matrix, and closed-form routes agree within 1e-10 "
        "for all N=2 states, odd m <= 13",
        worst <= TOL_ROUTE,
        f"max disagreement {worst:.2e}",
    )


def test_criterion_08_diagonality():
    states = (
        [laughlin(2, m) for m in ODD_M]
        + [laughlin(3, m) for m in ODD_M]
        + [laughlin(4, 3)]
        + [hierarchical_phi(2, m) for m in ODD_M]
        + [hierarchical_phi(3, m) for m in ODD_M]
        + [chi(n, m) for n in (2, 3, 4) for m in ODD_M if m <= 2 * n + 1]
    )
    ok = all(one_body_density(s).is_diagonal() for s in states)
    _criterion(
        8,
        "one-body density matrix of every family state is exactly diagonal",
        ok,
        f"{len(states)} states checked",
    )


def test_criterion_09_monotonicity():
    ok = True
    details = []
    for maker, n in (
        (laughlin, 2),
        (laughlin, 3),
        (hierarchical_phi, 2),
        (hierarchical_phi, 3),
    ):
        values = [_measure(maker(n, m)) for m in ODD_M]
        increasing = all(b > a for a, b in zip(values, values[1:]))
        details.append(f"{maker.__name__} N={n}: {'up' if increasing else 'NOT up'}")
        ok = ok and increasing
    for m in ODD_M[1:]:
        if _measure(laughlin(3, m)) <= _measure(laughlin(2, m)):
            ok = False
            details.append(f"N-growth violated at m={m}")
    _criterion(
        9,
        "measure strictly increases in m (4 series) and in N for laughlin",
        ok,
        "; ".join(details),
    )


def test_criterion_10_two_qubit_consistency():
    worst = 0.0
    for i in range(11):
        alpha_sq = Fraction(i, 10)
        got = two_qubit_consistency(alpha_sq)
        expected = oracles.entropy_of([alpha_sq, 1 - alpha_sq])
        worst = max(worst, abs(got - expected))
    _criterion(
        10,
        "fermionic measure equals the Schmidt entropy on an 11-point grid "
        "within 1e-12",
        worst <= TOL_TWO_QUBIT,
        f"max deviation {worst:.2e}",
    )


def _random_suite() -> list[FockVector]:
    rng = random.Random(20230823)
    configs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    nonzero = [i for i in range(-9, 10) if i]
    states: list[FockVector] = []
    for _ in range(60):
        amps = {c: rng.choice(nonzero) for c in configs}
        states.append(FockVector(2, 4, {c: a * abs(a) for c, a in amps.items()}))
    for _ in range(20):
        config = configs[rng.randrange(len(configs))]
        states.append(FockVector(2, 4, {config: 1}))
    while sum(1 for _ in states) < 100:
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
        amps = {
            (i, j): rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
            for i in range(4)
            for j in range(i + 1, 4)
        }
        if not any(amps.values()):
            continue
        states.append(FockVector(2, 4, {c: a * abs(a) for c, a in amps.items()}))
    return states


def test_criterion_11_schliemann_measure():
    single = schliemann_eta(FockVector(2, 4, {(0, 1): 1}))
    maximal = schliemann_eta(FockVector(2, 4, {(0, 1): 1, (2, 3): 1}))
    anchors_ok = single == 0.0 and abs(maximal - 1.0) <= 1e-14
    mismatches = 0
    zero_count = 0
    for v in _random_suite():
        eta = schliemann_eta(v)
        measure = modified_measure(v).measure_nats
        eta_zero = eta <= ETA_ZERO
        measure_zero = abs(measure) <= MEASURE_ZERO
        if eta_zero:
            zero_count += 1
        if eta_zero != measure_zero:
            mismatches += 1
    _criterion(
        11,
        "eta anchors hold and eta == 0 iff measure == 0 on a 100-state suite",
        anchors_ok and mismatches == 0,
        f"single-det eta {single}, maximal eta {maximal}; "
        f"{zero_count} zero-eta states, {mismatches} mismatches",
    )
