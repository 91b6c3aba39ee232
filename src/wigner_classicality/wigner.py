"""Kernel spectra for finite-dimensional Wigner functions and the spectral
classicality test.

A phase-space kernel for an N-level system is pinned down, up to unitaries,
by its eigenvalues, which must satisfy unit trace and trace-square N.  For a
qubit the solution is unique; for a qutrit it is a one-parameter family
labeled by an angle ``zeta`` in [0, pi/3].  Whether a state's Wigner function
is everywhere nonnegative is decided purely spectrally: pair the descending
state spectrum with the ascending kernel spectrum and check the sign.

As in ``spectra``, each formula is written once for floats or arrays by the
math namespace ``xp``, and only the validating dataclasses check inputs.
The array pairing ``_dual_pairing`` (and ``_is_classical``) takes spectra
as columns, as the samplers' tiles hold them, and one kernel or one per
spectrum, the latter as columns, as ``_kernel_columns`` gives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import SQRT3, OrderedSpectrum, PolarPoint

ZETA_MAX = math.pi / 3.0

#: Tolerances on the kernel trace constraints.
KERNEL_TRACE_TOL = 1e-12
KERNEL_TRACE_SQ_TOL = 1e-10

#: Pairings within this of zero sit on the classical boundary (measure zero).
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ModuliParameter:
    """Angle zeta in [0, pi/3] labeling the inequivalent qutrit kernels."""

    zeta: float

    def __post_init__(self) -> None:
        z = float(self.zeta)
        if not math.isfinite(z) or z < 0.0 or z > ZETA_MAX + 1e-15:
            raise ValueError(f"moduli parameter out of range [0, pi/3]: {z}")
        object.__setattr__(self, "zeta", min(z, ZETA_MAX))


@dataclass(frozen=True)
class SWKernelSpectrum:
    """Kernel eigenvalues (pi_1, ..., pi_N), descending.

    Invariants: sum equals 1 and sum of squares equals N, within tight
    tolerances; these are the defining trace constraints.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        n = len(vals)
        if n < 2:
            raise ValueError("kernel spectrum needs at least two eigenvalues")
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-12:
                raise ValueError(f"kernel spectrum not descending: {vals}")
        if abs(math.fsum(vals) - 1.0) > KERNEL_TRACE_TOL:
            raise ValueError(f"kernel trace must be 1, got {math.fsum(vals)!r}")
        if abs(math.fsum(v * v for v in vals) - n) > KERNEL_TRACE_SQ_TOL:
            raise ValueError(f"kernel trace-square must be {n}, got {math.fsum(v * v for v in vals)!r}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def sw_spectrum_qubit() -> SWKernelSpectrum:
    """The unique qubit kernel spectrum, ((1 + sqrt3)/2, (1 - sqrt3)/2)."""
    return SWKernelSpectrum(((1.0 + SQRT3) / 2.0, (1.0 - SQRT3) / 2.0))


def _zeta_value(zeta: float | ModuliParameter) -> float:
    if isinstance(zeta, ModuliParameter):
        return zeta.zeta
    return ModuliParameter(float(zeta)).zeta


def _kernel_columns(z, xp=np):
    """Qutrit kernel eigenvalues (pi_1, pi_2, pi_3) at angle z, floats or arrays by ``xp``."""
    mu3, mu8 = xp.sin(z), xp.cos(z)
    pi1 = 1.0 / 3.0 + (2.0 / SQRT3) * mu3 + (2.0 / 3.0) * mu8
    pi2 = 1.0 / 3.0 - (2.0 / SQRT3) * mu3 + (2.0 / 3.0) * mu8
    pi3 = 1.0 / 3.0 - (4.0 / 3.0) * mu8
    # renormalize trace exactly to absorb the last-bit rounding of sin/cos
    shift = (1.0 - (pi1 + pi2 + pi3)) / 3.0
    return pi1 + shift, pi2 + shift, pi3 + shift


def sw_spectrum_qutrit(zeta: float | ModuliParameter) -> SWKernelSpectrum:
    """Qutrit kernel spectrum at moduli angle zeta.

    With mu3 = sin(zeta) and mu8 = cos(zeta):

        pi_1 = 1/3 + (2/sqrt3) mu3 + (2/3) mu8
        pi_2 = 1/3 - (2/sqrt3) mu3 + (2/3) mu8
        pi_3 = 1/3 - (4/3) mu8

    which is descending on the whole range [0, pi/3].
    """
    return SWKernelSpectrum(_kernel_columns(_zeta_value(zeta), math))


def _dual_pairing(columns, kernel) -> np.ndarray:
    """Array twin of ``dual_pairing`` on many descending spectra, given as columns.

    ``columns`` is a sequence of the N columns of the spectra (an (N, n)
    array, or the transpose of an (n, N) array of rows), and ``kernel`` one
    descending kernel spectrum of N values, or one per spectrum as its N
    columns.  The pairing is summed from the left,
    ``(s_1 k_N + s_2 k_(N-1)) + ...``, one column at a time, so no BLAS
    routine runs and Monte Carlo hit counts depend on this arithmetic
    alone, not on the BLAS build.
    """
    if len(columns) != len(kernel):
        raise ValueError(f"dimension mismatch: spectrum N={len(columns)}, kernel N={len(kernel)}")
    ascending = kernel[::-1]
    total = columns[0] * ascending[0]
    term = None  # one buffer for every product after the first
    for column, k in zip(columns[1:], ascending[1:]):
        term = np.multiply(column, k, out=term)
        total += term
    return total


def _is_classical(columns, kernel) -> np.ndarray:
    """Array twin of ``is_classical``: nonnegative pairing, spectrum by spectrum (see ``_dual_pairing``)."""
    return _dual_pairing(columns, kernel) >= 0.0


def dual_pairing(spectrum: OrderedSpectrum, kernel: SWKernelSpectrum) -> float:
    """Pair the descending spectrum with the ascending kernel eigenvalues.

    Returns ``r_1 pi_N + r_2 pi_(N-1) + ... + r_N pi_1``, the minimum of the
    Wigner function over the state's unitary orbit (up to normalization); the
    state is classical exactly when this is nonnegative.  The sum is
    correctly rounded (``math.fsum``); the array twin ``_dual_pairing`` sums
    from the left in floating point, which may differ from it in the last
    bits.
    """
    if spectrum.n != kernel.n:
        raise ValueError(f"dimension mismatch: spectrum N={spectrum.n}, kernel N={kernel.n}")
    return math.fsum(r * p for r, p in zip(spectrum.values, reversed(kernel.values)))


def is_classical(spectrum: OrderedSpectrum, kernel: SWKernelSpectrum) -> bool:
    """True when the state's Wigner function is nonnegative everywhere.

    The boundary (pairing exactly zero) counts as classical; it carries no
    measure under any of the ensembles considered here.
    """
    return dual_pairing(spectrum, kernel) >= 0.0


def _cone_classical(z, r, phi, xp=np):
    """The analytic cone test at angle z and polar (r, phi), floats or arrays by ``xp``."""
    return 4.0 * SQRT3 * r * xp.cos(phi / 3.0 + z - math.pi / 3.0) <= 1.0


def classical_cone_regular_qutrit(zeta: float | ModuliParameter, point: PolarPoint) -> bool:
    """Analytic form of the qutrit classicality test in polar coordinates.

    A point of the regular stratum is classical iff

        4 sqrt3 r cos(phi/3 + zeta - pi/3) <= 1,

    trivially true at the center r=0.  Agrees everywhere with the spectral
    pairing test; both are exposed so each can serve as the other's oracle.
    """
    return _cone_classical(_zeta_value(zeta), point.r, point.phi, math)


def classical_edge_bound_qutrit(zeta: float | ModuliParameter, edge_phi: float) -> float:
    """Classicality radius bound on a degenerate edge of the qutrit simplex.

    The two degenerate edges sit at phi=0 (two largest eigenvalues equal,
    radius up to 1/(2 sqrt3)) and phi=pi (two smallest equal, radius up to
    1/sqrt3).  Classical states on an edge are those with

        r <= 1 / (4 sqrt3 cos(zeta - pi/3))   at phi = 0,
        r <= 1 / (4 sqrt3 cos(zeta))          at phi = pi,

    capped at the edge length.

    Args:
        zeta: moduli angle.
        edge_phi: 0.0 or pi, selecting the edge.

    Returns:
        Largest classical radius on the selected edge.
    """
    z = _zeta_value(zeta)
    if abs(edge_phi) <= 1e-12:
        # 2 cos(z - pi/3) = cos z + sqrt3 sin z, with no rounding of pi/3:
        # exactly 1 at z = 0, where the whole edge is classical
        cap = 1.0 / (2.0 * SQRT3)
        return min(cap, 1.0 / (2.0 * SQRT3 * (math.cos(z) + SQRT3 * math.sin(z))))
    if abs(edge_phi - math.pi) <= 1e-12:
        cap = 1.0 / SQRT3
        return min(cap, 1.0 / (4.0 * SQRT3 * math.cos(z)))
    raise ValueError(f"edge_phi must be 0 or pi, got {edge_phi}")
