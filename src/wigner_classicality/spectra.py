"""Spectral domain types for qudit states.

A unitary-invariant ensemble of N-level states is fully described, for our
purposes, by the ordered simplex of density-matrix eigenvalues together with
its stratification by eigenvalue degeneracy.  This module provides those
domain types and, for N=3, the polar chart that maps the ordered simplex onto
the region of the upper half-plane bounded by the Maclaurin trisectrix.

The chart's formulas are written once, as functions that take the math
namespace ``xp`` (``math`` for floats, ``numpy`` for arrays).  The public
scalar API evaluates them on floats inside the validating dataclasses,
which hold the only input checks; array callers, such as ``verify``'s cone
check, evaluate them on arrays directly, on points that lie in the region
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SQRT3 = math.sqrt(3.0)

#: Largest polar radius on the ordered qutrit simplex (attained by pure states).
POLAR_RADIUS_MAX = 1.0 / SQRT3

#: Absolute tolerance on the unit-trace invariant of a constructed spectrum.
TRACE_TOL = 1e-12

#: Constructors renormalize inputs whose sum is within this of 1, reject worse.
RENORM_TOL = 1e-9

#: Slack absorbed on ordering / nonnegativity checks (float noise from eigensolvers).
ORDER_TOL = 1e-12

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


@dataclass(frozen=True)
class OrderedSpectrum:
    """Eigenvalues of a density matrix, sorted descending, summing to one.

    The descending order convention is global to this package: spectra are
    stored descending everywhere, and consumers that need the ascending order
    (the dual-cone pairing) reverse at the point of use.

    Inputs with a sum within ``RENORM_TOL`` of 1 are renormalized; anything
    worse is rejected.  Entries in [-ORDER_TOL, 0) are clamped to 0.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("spectrum must have at least one eigenvalue")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"spectrum entries must be finite, got {vals}")
        for a, b in zip(vals, vals[1:]):
            if b - a > ORDER_TOL:
                raise ValueError(f"spectrum not descending: {vals}")
        if vals[-1] < -ORDER_TOL:
            raise ValueError(f"negative eigenvalue in spectrum: {vals}")
        vals = tuple(max(v, 0.0) for v in vals)
        total = math.fsum(vals)
        if abs(total - 1.0) > RENORM_TOL:
            raise ValueError(f"eigenvalues sum to {total!r}, expected 1 within {RENORM_TOL}")
        if abs(total - 1.0) > TRACE_TOL:
            vals = tuple(v / total for v in vals)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        """Hilbert-space dimension N."""
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class DegeneracyType:
    """Multiplicities (k1, ..., ks) of the distinct eigenvalues of a state.

    The order matches the descending spectrum, so ``(2, 1)`` means the two
    largest eigenvalues coincide while ``(1, 2)`` means the two smallest do.
    A stratum (orbit type) is labeled by the multiset of multiplicities; the
    ordered tuples are the individual pieces it decomposes into.
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        mult = tuple(int(k) for k in self.multiplicities)
        if len(mult) < 1:
            raise ValueError("degeneracy type needs at least one multiplicity")
        if any(k < 1 for k in mult):
            raise ValueError(f"multiplicities must be positive integers: {mult}")
        object.__setattr__(self, "multiplicities", mult)

    @property
    def n(self) -> int:
        """Total dimension N = sum of multiplicities (maximal-rank states)."""
        return sum(self.multiplicities)

    @property
    def is_regular(self) -> bool:
        """True when the spectrum is simple (all multiplicities one)."""
        return all(k == 1 for k in self.multiplicities)

    def partition(self) -> tuple[int, ...]:
        """Canonical (descending) partition labeling the stratum class."""
        return tuple(sorted(self.multiplicities, reverse=True))


def orbit_type_name(partition: Sequence[int]) -> str:
    """Conjugacy-class name of the isotropy group for a degeneracy partition.

    Simple spectra stabilize under the maximal torus, a fully degenerate one
    under the whole group, anything else under a block-unitary subgroup.
    """
    parts = tuple(sorted((int(k) for k in partition), reverse=True))
    n = sum(parts)
    if all(k == 1 for k in parts):
        return f"[T{str(n).translate(_SUPERSCRIPTS)}]"
    if len(parts) == 1:
        return f"[SU({n})]"
    blocks = "×".join(f"U({k})" for k in parts)
    return f"[S({blocks})]"


@dataclass(frozen=True)
class StratumLabel:
    """A stratum of the state space: degeneracy class plus orbit-type name."""

    degeneracy: DegeneracyType
    name: str

    @classmethod
    def for_partition(cls, partition: Sequence[int]) -> "StratumLabel":
        deg = DegeneracyType(tuple(sorted((int(k) for k in partition), reverse=True)))
        return cls(degeneracy=deg, name=orbit_type_name(deg.multiplicities))

    @property
    def n(self) -> int:
        return self.degeneracy.n


@dataclass(frozen=True)
class PolarPoint:
    """Point of the trisectrix region in polar coordinates (r, phi).

    The ordered qutrit simplex maps onto ``{0 <= r <= 1/(2 sqrt3 cos(phi/3)),
    0 <= phi <= pi}``; membership is enforced at construction.
    """

    r: float
    phi: float

    def __post_init__(self) -> None:
        r = float(self.r)
        phi = float(self.phi)
        if not (math.isfinite(r) and math.isfinite(phi)):
            raise ValueError(f"polar point must be finite: r={r}, phi={phi}")
        if r < 0.0 or r > POLAR_RADIUS_MAX + ORDER_TOL:
            raise ValueError(f"radius out of range [0, 1/sqrt3]: {r}")
        if phi < -ORDER_TOL or phi > math.pi + ORDER_TOL:
            raise ValueError(f"angle out of range [0, pi]: {phi}")
        phi = min(max(phi, 0.0), math.pi)
        if _outside_trisectrix(r, phi):
            raise ValueError(f"point outside trisectrix region: r={r}, phi={phi}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)


def _outside_trisectrix(r: float, phi: float) -> bool:
    """The bound 2 sqrt3 r cos(phi/3) <= 1, written without division, broken beyond 1e-9."""
    return r > 0.0 and 2.0 * SQRT3 * r * math.cos(phi / 3.0) > 1.0 + 1e-9


def _trisectrix_radius(phi, xp=np):
    """``1 / (2 sqrt3 cos(phi/3))`` for floats (``xp=math``) or arrays (``xp=numpy``)."""
    return 1.0 / (2.0 * SQRT3 * xp.cos(phi / 3.0))


def trisectrix_boundary(phi: float) -> float:
    """Boundary radius of the ordered-simplex image at angle phi.

    Equals ``1 / (2 sqrt3 cos(phi/3))``; the curve is a Maclaurin trisectrix.
    The angle is checked as ``PolarPoint`` checks it: it must be finite and
    within ``ORDER_TOL`` of [0, pi], and is then clamped to [0, pi].
    """
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"angle must be finite: {phi}")
    if phi < -ORDER_TOL or phi > math.pi + ORDER_TOL:
        raise ValueError(f"angle out of range [0, pi]: {phi}")
    return _trisectrix_radius(min(max(phi, 0.0), math.pi), math)


def _polar_columns(r, phi, xp=np):
    """The polar chart: eigenvalues (r1, r2, r3) at (r, phi), floats or arrays by ``xp``."""
    f = 2.0 * r / SQRT3
    return (1.0 / 3.0 - f * xp.cos((phi + 2.0 * math.pi) / 3.0),
            1.0 / 3.0 - f * xp.cos((phi + 4.0 * math.pi) / 3.0),
            1.0 / 3.0 - f * xp.cos(phi / 3.0))


def polar_to_spectrum(point: PolarPoint) -> OrderedSpectrum:
    """Map a trisectrix-region point to the qutrit spectrum (r1, r2, r3).

    The three eigenvalues are ``1/3 - (2r/sqrt3) cos((phi + 2 pi m)/3)`` for
    m = 1, 2, 0; on the whole region they come out descending.
    """
    return OrderedSpectrum(_polar_columns(point.r, point.phi, math))


def spectrum_to_polar(spectrum: OrderedSpectrum) -> PolarPoint:
    """Invert the polar chart for a qutrit spectrum.

    Uses the exact inverse rather than root finding: the radius comes from
    ``sum (r_i - 1/3)^2 = 2 r^2`` and the angle from the two independent
    centered coordinates, ``phi = 3 atan2(r1 - r2, sqrt3 (1/3 - r3))``.
    The center (maximally mixed state) maps to r=0 with phi=0 by convention.
    """
    if spectrum.n != 3:
        raise ValueError(f"polar chart is defined for qutrits, got N={spectrum.n}")
    r1, r2, r3 = spectrum.values
    dev = (r1 - 1.0 / 3.0, r2 - 1.0 / 3.0, r3 - 1.0 / 3.0)
    r = math.sqrt(math.fsum(d * d for d in dev) / 2.0)
    if r == 0.0:
        return PolarPoint(0.0, 0.0)
    phi = 3.0 * math.atan2(r1 - r2, SQRT3 * (1.0 / 3.0 - r3))
    phi = min(max(phi, 0.0), math.pi)
    return PolarPoint(min(r, POLAR_RADIUS_MAX), phi)
