"""Self-verification suite: recompute anchor values and cross-check routes.

Each check recomputes a quantity from scratch and compares it against either
an exact expected value or an independent computation route.  A check is one
function that returns ``(verdict, detail)``: the verdict is True or False
when the check asserts, and None when it only reports a quantity that is
deliberately not asserted, such as the curve ordering between families.
Its name is the function's name less its ``check_`` or ``info_`` prefix,
with hyphens for underscores, and it is listed once, with its arguments, in
run_verification, which turns each verdict into pass, fail or info.  The
fast level keeps m <= 9 and N <= 3, except N = 4 in the L-/L+ check; full
extends to m <= 13 and N <= 4, and the L-/L+ check to N = 5..7 at smaller
m.  The family constructors build states directly in the determinant basis;
basis-route-equivalence keeps the full-expansion route (family_polynomial,
then slater_project) as their independent check, and
laughlin-translation-highest-weight checks Laughlin states by two exact
identities, at N <= 4 and, in full, up to N = 7 where that route is out of
reach.  The measure's claims read fqhent.figures.family_report, the route
that compute, table and figure take; route-equivalence-n2 measures the
FockVector with modified_measure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._record import Record
from .figures import family_report
from .lll import amplitude_pattern, slater_coefficient_magnitudes
from .measure import (
    closed_form_sf_laughlin2,
    modified_measure,
    slater_pairing,
    two_qubit_consistency,
)
from .poly import MultiPoly, slater_project, vandermonde_power
from .quasihole import CondensateKernel, condense, vanishes
from .states import (
    ZeroWavefunctionError,
    chi,
    chi_k,
    family_expansion,
    family_polynomial,
    filling_fraction,
    hierarchical_phi,
    hierarchical_phi_k,
    laughlin,
)

Verdict = tuple[bool | None, str]
_STATUS = {True: "pass", False: "fail", None: "info"}


class CheckResult(Record):
    __slots__ = ("name", "status", "detail")  # status: "pass", "fail", or "info"


def check_binomial_amplitude_pattern(m_max: int) -> Verdict:
    """laughlin(2,m) squared amplitudes are C(m,k)/2^(m-1) on configs {k, m-k}."""
    for m in range(1, m_max + 1, 2):
        state = laughlin(2, m)
        expected = [((k, m - k), math.comb(m, k)) for k in range((m - 1) // 2 + 1)]
        if amplitude_pattern(state) != expected or state.total != 2 ** (m - 1):
            return False, f"mismatch at m={m}: {state!r}"
    return True, f"exact C(m,k)/2^(m-1) for odd m <= {m_max}"


def check_hierarchical_n2_lowest() -> Verdict:
    """hierarchical_phi(2,1) squared amplitudes are 3/4 on {0,3}, 1/4 on {1,2}."""
    state = hierarchical_phi(2, 1)
    got = {c: Fraction(abs(w), state.total) for c, w in sorted(state.weights.items())}
    expected = {(0, 3): Fraction(3, 4), (1, 2): Fraction(1, 4)}
    return got == expected, f"amplitudes {got}"


def check_laughlin_n3_slater_coefficients() -> Verdict:
    """laughlin(3,3) determinant-basis coefficient magnitudes are {1,3,6,3,15}."""
    poly = vandermonde_power(3, 3)
    expansion = slater_project(poly)
    got = dict(slater_coefficient_magnitudes(expansion))
    expected = {
        (0, 3, 6): 1,
        (0, 4, 5): 3,
        (1, 3, 5): 6,
        (1, 2, 6): 3,
        (2, 3, 4): 15,
    }
    round_trip = expansion.expand() == poly
    return (
        got == expected and round_trip,
        f"magnitudes {sorted(got.values())}, round-trip {'ok' if round_trip else 'FAILED'}",
    )


def check_basis_route_equivalence(points: list[tuple[str, int, int]]) -> Verdict:
    """family_expansion equals slater_project(family_polynomial) term for term."""
    compared = 0
    for family, n, m in points:
        try:
            expected = slater_project(family_polynomial(family, n, m))
        except ZeroWavefunctionError:
            continue
        if family_expansion(family, n, m) != expected:
            return False, f"mismatch at {family} N={n}, m={m}"
        compared += 1
    return True, (
        f"determinant-basis construction equals the full-expansion route "
        f"on {compared} nonzero states"
    )


def check_laughlin_root_dominance(n_max: int) -> Verdict:
    """Every laughlin(N,m) configuration is dominated by the root, which is present.

    Read descending, a configuration lam is dominated by the root
    ((N-1)m, ..., m, 0) when every partial sum of lam is at most the root's.
    Checked for 2 <= N <= n_max and odd m <= 9.
    """
    n_values = tuple(range(2, n_max + 1))
    for n in n_values:
        for m in range(1, 10, 2):
            root = tuple(range((n - 1) * m, -1, -m))
            root_sums = list(itertools.accumulate(root))
            configs = laughlin(n, m).weights
            if root[::-1] not in configs:
                return False, f"root {root} absent at N={n}, m={m}"
            for config in configs:
                sums = itertools.accumulate(config[::-1])
                if any(s > r for s, r in zip(sums, root_sums)):
                    return False, f"{config} not dominated by root {root} at N={n}, m={m}"
    return True, f"root present and dominating for N in {n_values}, odd m <= 9"


def check_laughlin_translation_highest_weight(points: list[tuple[int, int]]) -> Verdict:
    """L^- and L^+ annihilate laughlin(N, m), in exact integers.

    In the determinant basis L^- = sum_i d/dz_i maps a_lam to
    sum_i lam_i a_{lam - e_i} (translation invariance), and
    L^+ = sum_i (z_i^2 d/dz_i - N_phi z_i), with N_phi = m(N-1), maps it to
    sum_i (lam_i - N_phi) a_{lam + e_i} (highest weight on the sphere).
    Moving one entry by one never passes a neighbour, so no sign arises; a
    result with a repeated entry drops out.  Neither identity is used to
    build the state, so this checks the construction where the
    full-expansion route is out of reach.
    """
    for n, m in points:
        terms = family_expansion("laughlin", n, m).terms
        flux = m * (n - 1)
        for step, offset in ((-1, 0), (1, flux)):
            image: dict[tuple[int, ...], int] = {}
            for lam, coeff in terms.items():
                for i, x in enumerate(lam):
                    moved = x + step
                    if moved < 0 or moved in lam:
                        continue
                    key = lam[:i] + (moved,) + lam[i + 1 :]
                    image[key] = image.get(key, 0) + (x - offset) * coeff
            if any(image.values()):
                name = "L-" if step < 0 else "L+"
                return False, f"{name} does not annihilate laughlin N={n}, m={m}"
    return True, (
        f"L- and L+ annihilate laughlin at {len(points)} points up to N={max(n for n, _ in points)}"
    )


def check_condensate_n2() -> Verdict:
    """condense(N=2, p=2) equals -162 pi^2 (z1^2 + z2^2)."""
    out = condense(CondensateKernel(2, 2))
    expected_poly = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    expected_scale = Fraction(-162)
    return (
        out.poly == expected_poly and out.scale == expected_scale,
        f"got {out}; moment evaluation gives scale -162*pi^2 "
        "(commonly quoted constant: -162*pi)",
    )


def check_condensate_n3() -> Verdict:
    """condense(N=3, p=2) polynomial is z1^2 z2^2 + z1^2 z3^2 + z2^2 z3^2."""
    out = condense(CondensateKernel(3, 2))
    expected_poly = MultiPoly(3, {(2, 2, 0): 1, (2, 0, 2): 1, (0, 2, 2): 1})
    return out.poly == expected_poly, f"got {out}"


def check_condensate_vanishing(n_max: int) -> Verdict:
    """vanishes(N,p) matches condense(N,p) being zero for p <= 10, including odd p."""
    for n in range(1, n_max + 1):
        for p in range(11):
            if condense(CondensateKernel(n, p)).is_zero != vanishes(n, p):
                return False, f"mismatch at N={n}, p={p}"
    return True, f"integral zero iff p odd or p > 2N, for N <= {n_max}, p <= 10"


def check_chi_vanishing_boundary(n_max: int, m_max: int) -> Verdict:
    """chi(N,m) raises on the zero wavefunction exactly when m > 2N+1, for N = 2..n_max."""
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1, 2):
            try:
                chi(n, m)
                is_zero = False
            except ZeroWavefunctionError:
                is_zero = True
            if is_zero != (m > 2 * n + 1):
                return False, f"mismatch at N={n}, m={m}"
    return True, "; ".join(
        f"N={n}: nonzero through m={2 * n + 1}" for n in range(2, n_max + 1)
    )


def check_route_equivalence_n2(m_max: int) -> Verdict:
    """Pairing-weight entropy, density-matrix entropy, and the closed form agree."""
    worst = 0.0
    for m in range(1, m_max + 1, 2):
        for build in (laughlin, hierarchical_phi, chi):
            try:
                state = build(2, m)
            except ZeroWavefunctionError:
                continue
            report = modified_measure(state)
            pairing_measure = slater_pairing(state).entropy_nats() - math.log(2)
            worst = max(worst, abs(pairing_measure - report.measure_nats))
            if build is laughlin:
                worst = max(worst, abs(closed_form_sf_laughlin2(m) - report.measure_nats))
    return (
        worst <= 1e-10,
        f"max route disagreement {worst:.2e} (tolerance 1e-10), odd m <= {m_max}",
    )


def check_equality_anchor() -> Verdict:
    """N=2 anchor equality holds; its N=3 counterpart does not."""
    v23 = family_report("laughlin", 2, 3).measure_nats
    phi21 = family_report("hierarchical_phi", 2, 1).measure_nats
    analytic = 2 * math.log(2) - 0.75 * math.log(3)
    v33 = family_report("laughlin", 3, 3).measure_nats
    phi31 = family_report("hierarchical_phi", 3, 1).measure_nats
    ok = (
        abs(v23 - phi21) <= 1e-12
        and abs(v23 - analytic) <= 1e-10
        and abs(v33 - phi31) > 1e-6
    )
    return ok, (
        f"N=2: {v23:.12f} == {phi21:.12f} (= 2ln2 - (3/4)ln3); "
        f"N=3: {v33:.6f} vs {phi31:.6f} differ as expected"
    )


def check_two_qubit_consistency() -> Verdict:
    """Fermionic measure equals the distinguishable-particle Schmidt entropy."""
    worst = 0.0
    for i in range(11):
        alpha_sq = Fraction(i, 10)
        got = two_qubit_consistency(alpha_sq)
        a, b = float(alpha_sq), float(1 - alpha_sq)
        expected = 0.0
        if 0 < a < 1:
            expected = -a * math.log(a) - b * math.log(b)
        worst = max(worst, abs(got - expected))
    return (
        worst <= 1e-12,
        f"max deviation from Schmidt entropy {worst:.2e} over 11 grid points",
    )


def check_monotonicity(m_max: int) -> Verdict:
    """The measure strictly increases with m for all four main series."""
    for family, n in (
        ("laughlin", 2),
        ("laughlin", 3),
        ("hierarchical_phi", 2),
        ("hierarchical_phi", 3),
    ):
        values = [family_report(family, n, m).measure_nats for m in range(1, m_max + 1, 2)]
        if any(b <= a for a, b in zip(values, values[1:])):
            return False, f"{family} N={n} not strictly increasing: {values}"
    return True, (
        f"strictly increasing in m for laughlin and hierarchical_phi, "
        f"N=2,3, odd m <= {m_max}"
    )


def check_laughlin_n_growth(m_max: int) -> Verdict:
    """laughlin N=3 exceeds N=2 at every odd m >= 3."""
    for m in range(3, m_max + 1, 2):
        n2, n3 = (family_report("laughlin", n, m).measure_nats for n in (2, 3))
        if n3 <= n2:
            return False, f"violated at m={m}"
    return True, f"N=3 exceeds N=2 for odd m in 3..{m_max}"


def info_filling_fractions() -> Verdict:
    """Report filling fractions from the two quoted K-matrix families."""
    nu_h = filling_fraction(hierarchical_phi_k(3))
    nu_c = filling_fraction(chi_k(3))
    alternative = Fraction(1) / (1 - Fraction(1, 2))  # quoted 1/(1-1/(m-1)) at m=3
    return None, (
        f"hierarchical K at m=3: nu = {nu_h} (quoted 2/(2m+1) agrees); "
        f"chi K at m=3: inverse-matrix nu = {nu_c}, quoted alternative "
        f"formula gives {alternative}; neither chi value is asserted"
    )


def info_family_ordering(m_max: int) -> Verdict:
    """Report, without asserting, which N=2 family is larger at each m."""
    parts = []
    for m in range(1, m_max + 1, 2):
        diff = (
            family_report("laughlin", 2, m).measure_nats
            - family_report("hierarchical_phi", 2, m).measure_nats
        )
        parts.append(f"m={m}: {'laughlin' if diff > 0 else 'hierarchical_phi'}")
    return None, "larger measure at equal m: " + ", ".join(parts) + " (not asserted)"


def info_hierarchical_n_growth(m_max: int) -> Verdict:
    """Report the hierarchical N=3 vs N=2 comparison without asserting it."""
    parts = []
    for m in range(1, m_max + 1, 2):
        d = (
            family_report("hierarchical_phi", 3, m).measure_nats
            - family_report("hierarchical_phi", 2, m).measure_nats
        )
        parts.append(f"m={m}: {'N=3' if d > 0 else 'N=2'} larger")
    return None, ", ".join(parts) + " (not asserted)"


def run_verification(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    m_max = 13 if level == "full" else 9
    n_max = 4 if level == "full" else 3
    route_points = [
        (family, n, m)
        for family in ("laughlin", "hierarchical_phi", "chi")
        for n in (2, 3)
        for m in range(1, m_max + 1, 2)
    ]
    ladder_points = [(n, m) for n in (2, 3, 4) for m in range(1, m_max + 1, 2)]
    if level == "full":
        route_points += [("laughlin", 4, m) for m in range(1, 8, 2)]
        ladder_points += [(5, m) for m in range(1, 10, 2)] + [(6, 1), (6, 3), (6, 5), (7, 3)]
    checks = [
        (check_binomial_amplitude_pattern, (m_max,)),
        (check_hierarchical_n2_lowest, ()),
        (check_laughlin_n3_slater_coefficients, ()),
        (check_basis_route_equivalence, (route_points,)),
        (check_laughlin_root_dominance, (n_max,)),
        (check_laughlin_translation_highest_weight, (ladder_points,)),
        (check_condensate_n2, ()),
        (check_condensate_n3, ()),
        (check_condensate_vanishing, (n_max,)),
        (check_chi_vanishing_boundary, (n_max, m_max)),
        (check_route_equivalence_n2, (m_max,)),
        (check_equality_anchor, ()),
        (check_two_qubit_consistency, ()),
        (check_monotonicity, (m_max,)),
        (check_laughlin_n_growth, (m_max,)),
        (info_filling_fractions, ()),
        (info_family_ordering, (m_max,)),
        (info_hierarchical_n_growth, (m_max,)),
    ]
    results = []
    for check, args in checks:
        verdict, detail = check(*args)
        name = check.__name__.partition("_")[2].replace("_", "-")
        results.append(CheckResult(name, _STATUS[verdict], detail))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{r.status.upper():4s}] {r.name}: {r.detail}")
    fails = sum(1 for r in results if r.status == "fail")
    passes = sum(1 for r in results if r.status == "pass")
    infos = sum(1 for r in results if r.status == "info")
    lines.append(f"{passes} passed, {fails} failed, {infos} informational")
    return "\n".join(lines) + "\n"


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.status != "fail" for r in results)
