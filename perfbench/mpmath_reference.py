"""Recompute the degenerate-stratum constants at zeta = 0 in mpmath.

    python3 perfbench/mpmath_reference.py [--dps 30]

Uses no package code.  The degenerate qutrit stratum is two edges of the
eigenvalue simplex, each parametrised by its lone eigenvalue y in (0, 1/3):

    (2,1) edge: spectrum (b, b, y), b = (1 - y)/2, |d spectrum/dy| = sqrt(3/2)
    (1,2) edge: spectrum (b, y, y), b = 1 - 2y,    |d spectrum/dy| = sqrt(6)

On both edges k_1 k_2 = 2, so the monotone densities are
(b y)^(-1/2) c(b, y)^2 (b - y)^4, with c = 2/(b + y) for Bures and
c = (ln b - ln y)/(b - y) for BKM.  At zeta = 0 the kernel spectrum is
(1, 1, -1): the whole (2,1) edge is classical (b - y >= 0), and on the
(1,2) edge the pairing b(-1) + y + y >= 0 holds for y >= 1/4.  The indicator
is the classical edge mass over the total edge mass.  The substitution
y = u^2 removes the y^(-1/2) singularity at y = 0.

Prints each constant and its difference from ``references.DEGENERATE_ZETA0``;
exits 1 when they differ by more than 1e-15.
"""

from __future__ import annotations

import argparse
import sys

import mpmath as mp

from references import DEGENERATE_ZETA0


def edge_mass(ensemble: str, edge: tuple[int, int], y_low) -> mp.mpf:
    if edge == (2, 1):
        big, jac = (lambda y: (1 - y) / 2), mp.sqrt(mp.mpf(3) / 2)
    else:
        big, jac = (lambda y: 1 - 2 * y), mp.sqrt(6)

    def integrand(u):
        y = u * u
        b = big(y)
        if ensemble == "bures":
            c = 2 / (b + y)
        else:
            c = (mp.log(b) - mp.log(y)) / (b - y)
        return (b - y) ** 4 * c ** 2 / mp.sqrt(b * y) * jac * 2 * u

    return mp.quad(integrand, [mp.sqrt(y_low), mp.sqrt(mp.mpf(1) / 3)])


def degenerate_q_at_zeta0(ensemble: str) -> mp.mpf:
    classical = edge_mass(ensemble, (2, 1), 0) + edge_mass(ensemble, (1, 2), mp.mpf(1) / 4)
    total = edge_mass(ensemble, (2, 1), 0) + edge_mass(ensemble, (1, 2), 0)
    return classical / total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dps", type=int, default=30, help="mpmath decimal digits")
    args = parser.parse_args()
    ok = True
    with mp.workdps(args.dps):
        for ensemble, stored in DEGENERATE_ZETA0.items():
            value = degenerate_q_at_zeta0(ensemble)
            diff = float(abs(value - mp.mpf(stored)))
            ok = ok and diff <= 1e-15
            print(f"{ensemble:6s} Q_degenerate(0) = {mp.nstr(value, 21)}  "
                  f"stored {stored!r}  |diff| {diff:.1e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
