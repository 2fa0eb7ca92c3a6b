"""Quasihole condensate integrals in closed form.

The hierarchy construction needs the Gaussian integral over two
quasihole coordinates.  The integral of a monomial against the Gaussian
weight is nonzero only when the holomorphic and antiholomorphic powers
match, which reduces the whole double integral to a finite sum.  The
result is an exact polynomial in the electron coordinates times a
rational multiple of pi^2.
"""

from fractions import Fraction

from fqhent import CondensateKernel, condense, gaussian_moment, vanishes


def main() -> None:
    print("== single-coordinate Gaussian moments, weight exp(-|xi|^2/3) ==")
    for a, b in ((0, 0), (1, 1), (2, 2), (2, 1)):
        moment = gaussian_moment(a, b, Fraction(1, 3))  # the moment over pi
        shown = f"{moment}*pi" if moment else "0"
        print(f"  a={a} b={b}: {shown}")

    print("\n== the pair condensate for two and three electrons (p=2) ==")
    for n in (2, 3):
        result = condense(CondensateKernel(n, 2))
        print(f"  N={n}: {result}")

    print("\n== p=0 keeps every electron coordinate squared ==")
    print(f"  N=3: {condense(CondensateKernel(3, 0))}")

    print("\n== when does the integral vanish? ==")
    print("  odd p kills the integral by antisymmetry of the pairing factor;")
    print("  p > 2N outruns the polynomial degree available")
    for n in (2, 3, 4):
        alive = [p for p in range(0, 11) if not vanishes(n, p)]
        print(f"  N={n}: nonzero for p in {alive}")

    print("\n== boundary check: N=2, p=4 is the last survivor ==")
    print(f"  condense(N=2, p=4) = {condense(CondensateKernel(2, 4))}")
    print(f"  condense(N=2, p=6) = {condense(CondensateKernel(2, 6))}")


if __name__ == "__main__":
    main()
