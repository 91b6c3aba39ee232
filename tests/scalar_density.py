"""Scalar joint eigenvalue density, independent of the package's array kernels.

The package evaluates its densities only through the array kernels
``ensembles._density3_vec`` and ``ensembles._density_pair_vec``.  This loop
over eigenvalue pairs writes the same density out a second way, for any
degeneracy type: the tests compare the kernels against it, integrate it in
the scipy and mpmath oracles, and check its symmetry under relabelling.
"""

import math
from typing import Sequence

from wigner_classicality.ensembles import BKM_SERIES_CUTOFF, EnsembleKind
from wigner_classicality.spectra import DegeneracyType

#: Constraint sum k_i r_i must equal 1 within this.
CONSTRAINT_TOL = 1e-9


def mc_function(kind: EnsembleKind, x: float, y: float) -> float:
    """Morozova-Chentsov function of a monotone ensemble at (x, y).

    Bures: ``2 / (x + y)``.  BKM: ``(ln x - ln y) / (x - y)``, with the
    near-coincidence region |x-y| <= 1e-4 (x+y) evaluated through the series
    ``(1 + d^2/3 + d^4/5) / m`` in d = (x-y)/(x+y), m = (x+y)/2, which is
    accurate to below 1e-16 there and removes the 0/0.

    Args:
        kind: BURES or BKM (the Hilbert-Schmidt ensemble is not monotone).
        x, y: positive reals.
    """
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        raise ValueError("mc_function is defined for the monotone ensembles only")
    x = float(x)
    y = float(y)
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"mc_function needs positive arguments, got ({x}, {y})")
    if kind is EnsembleKind.BURES:
        return 2.0 / (x + y)
    d = (x - y) / (x + y)
    if abs(d) <= BKM_SERIES_CUTOFF:
        m = 0.5 * (x + y)
        return (1.0 + d * d / 3.0 + d ** 4 / 5.0) / m
    return (math.log(x) - math.log(y)) / (x - y)


def log_joint_density(
    kind: EnsembleKind,
    deg: DegeneracyType,
    r: Sequence[float],
    *,
    validate: bool = True,
) -> float:
    """Log of the unnormalized joint eigenvalue density.

    For distinct eigenvalues (r_1 > ... > r_s) with multiplicities
    (k_1, ..., k_s) on the constraint ``sum k_i r_i = 1``:

        Hilbert-Schmidt:  prod_{i<j} (r_i - r_j)^(2 k_i k_j)
        monotone:         (r_1 ... r_s)^(-1/2)
                          * prod_{i<j} c_f(r_i, r_j)^(k_i k_j) (r_i - r_j)^(2 k_i k_j)

    Coincident arguments give -inf (the density vanishes there).

    With ``validate=False`` the symmetric-function formula is evaluated as-is
    for any positive distinct arguments, which is useful for checking the
    invariance under simultaneous permutation of (r_i, k_i) pairs.
    """
    vals = tuple(float(v) for v in r)
    mult = deg.multiplicities
    if len(vals) != len(deg.multiplicities):
        raise ValueError(f"expected {len(deg.multiplicities)} distinct eigenvalues, got {len(vals)}")
    if validate:
        if any(not 0.0 < v < 1.0 for v in vals) and len(deg.multiplicities) > 1:
            raise ValueError(f"distinct eigenvalues must lie in (0, 1): {vals}")
        total = math.fsum(k * v for k, v in zip(mult, vals))
        if abs(total - 1.0) > CONSTRAINT_TOL:
            raise ValueError(f"constraint sum k_i r_i = 1 violated: {total!r}")
        for a, b in zip(vals, vals[1:]):
            if b > a:
                raise ValueError(f"distinct eigenvalues must be descending: {vals}")
    logv = 0.0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            diff = abs(vals[i] - vals[j])
            if diff == 0.0:
                return -math.inf
            kk = mult[i] * mult[j]
            logv += 2.0 * kk * math.log(diff)
            if kind is not EnsembleKind.HILBERT_SCHMIDT:
                logv += kk * math.log(mc_function(kind, vals[i], vals[j]))
    if kind is not EnsembleKind.HILBERT_SCHMIDT:
        logv -= 0.5 * math.fsum(math.log(v) for v in vals)
    return logv


def joint_density(
    kind: EnsembleKind,
    deg: DegeneracyType,
    r: Sequence[float],
    *,
    validate: bool = True,
) -> float:
    """Unnormalized joint eigenvalue density (see ``log_joint_density``).

    Computed in log space and exponentiated; returns exactly 0.0 when two
    distinct-eigenvalue arguments coincide.
    """
    logv = log_joint_density(kind, deg, r, validate=validate)
    if logv == -math.inf:
        return 0.0
    return math.exp(logv)
