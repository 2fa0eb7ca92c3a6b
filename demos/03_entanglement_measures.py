"""Single-particle entanglement of the model wavefunctions.

Builds states from all three families and compares the three
computational routes: the one-body density matrix, the Slater pairing
decomposition, and (for two-electron Laughlin states) the closed form.
Also shows the two-fermion Schliemann measure and where it vanishes.
"""

import math

from fqhent import (
    FockVector,
    closed_form_sf_laughlin2,
    hierarchical_phi,
    laughlin,
    modified_measure,
    one_body_density,
    schliemann_eta,
    slater_pairing,
)


def main() -> None:
    print("== the equality anchor ==")
    a = modified_measure(laughlin(2, 3), family="laughlin", m=3)
    b = modified_measure(hierarchical_phi(2, 1), family="hierarchical_phi", m=1)
    print(f"  laughlin(2,3):         {a.measure_nats:.12f} nats")
    print(f"  hierarchical_phi(2,1): {b.measure_nats:.12f} nats")
    analytic = 2 * math.log(2) - 0.75 * math.log(3)
    print(f"  2ln2 - (3/4)ln3:       {analytic:.12f} nats")
    print(f"  in bits: {a.measure_bits:.12f}")

    print("\n== the density matrix is exactly diagonal for these states ==")
    rho = one_body_density(laughlin(2, 3))
    print(f"  diagonal of rho for laughlin(2,3): {rho.diag}")
    print(f"  off-diagonals all exactly zero: {rho.is_diagonal()}")

    print("\n== three routes, one number (laughlin(2,5)) ==")
    state = laughlin(2, 5)
    via_density = modified_measure(state).measure_nats
    via_pairing = slater_pairing(state).entropy_nats() - math.log(2)
    via_closed = closed_form_sf_laughlin2(5)
    print(f"  density matrix route: {via_density:.12f}")
    print(f"  pairing route:        {via_pairing:.12f}")
    print(f"  closed form:          {via_closed:.12f}")

    print("\n== pairing weights behind laughlin(2,3) ==")
    pairing = slater_pairing(laughlin(2, 3))
    for a_idx, b_idx, weight in pairing.pairs:
        print(f"  orbitals ({a_idx},{b_idx}) with weight {weight:.6f}")

    print("\n== Schliemann measure for two fermions in four orbitals ==")
    single = FockVector(2, 4, {(0, 1): 1})
    print(f"  laughlin(2,3):      eta = {schliemann_eta(laughlin(2, 3)):.6f}")
    print(f"  single determinant: eta = {schliemann_eta(single):.6f}")
    print("  eta = 0 exactly on single Slater determinants, 1 at maximal")
    print("  entanglement, and eta = 0 iff the modified measure vanishes")

    print("\n== the measure grows with the exponent m ==")
    for m in (1, 3, 5, 7, 9):
        r = modified_measure(laughlin(2, m), family="laughlin", m=m)
        print(f"  m={m}: {r.measure_bits:.9f} bits")


if __name__ == "__main__":
    main()
