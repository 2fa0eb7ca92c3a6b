"""From an antisymmetric polynomial to exact Fock amplitudes.

Walks the full construction pipeline for two and three electrons: build
the Jastrow power, project onto Slater determinants, then normalize in
the lowest Landau level basis.  Every number printed here is exact.
"""

from fractions import Fraction

from fqhent import (
    MultiPoly,
    amplitude_pattern,
    slater_coefficient_magnitudes,
    slater_project,
    to_fock,
    vandermonde_power,
)


def main() -> None:
    print("== the m=3 Jastrow factor for two electrons ==")
    cube = vandermonde_power(2, 3)
    print(f"(z1 - z2)^3 = {cube}")
    print(f"antisymmetric: {cube.is_antisymmetric()}")

    expansion = slater_project(cube)
    print("\ndeterminant expansion (orbital pairs and integer coefficients):")
    for config, coeff in expansion.items():
        print(f"  {config}: {coeff}")

    state = to_fock(expansion)
    print("\nnormalized Fock amplitudes (squared magnitudes are exact):")
    for config, weight in sorted(state.weights.items()):
        magnitude_sq = Fraction(abs(weight), state.total)
        print(f"  |c{config}|^2 = {magnitude_sq}   sign {1 if weight > 0 else -1:+d}")
    print(f"integer pattern: {amplitude_pattern(state)}")

    print("\n== three electrons, m=3 ==")
    expansion3 = slater_project(vandermonde_power(3, 3))
    print("coefficient magnitudes by occupied orbitals:")
    for config, mag in slater_coefficient_magnitudes(expansion3):
        print(f"  {config}: {mag}")

    # round trip: the expansion rebuilds the polynomial exactly
    rebuilt = expansion3.expand()
    print(f"\nexpansion round trip exact: {rebuilt == vandermonde_power(3, 3)}")

    print("\n== polynomials are plain exact objects ==")
    p = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    q = MultiPoly(2, {(1, 1): -3})
    print(f"({p}) * ({q}) = {p * q}")


if __name__ == "__main__":
    main()
