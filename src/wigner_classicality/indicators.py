"""Classicality indicators: the probability that a random state is classical.

For an ensemble and a stratum, the indicator is the ratio of the ensemble
measure of the classical region to the measure of the whole stratum, both
expressed through the joint eigenvalue density.  Three independent methods
are provided and cross-validated against each other:

* closed forms (qubit, all ensembles; qutrit, Hilbert-Schmidt only),
* quadrature from Chebyshev fits of the density along rays of the
  eigenvalue simplex, summed over one fixed tanh-sinh rule in the rays'
  angle on the regular qutrit stratum; it has fixed accuracy and no
  tolerance,
* seeded Monte Carlo over the ensemble samplers.

On top of these sit the moduli-space utilities: minimization of the
indicator over the kernel angle, the endpoint asymmetry, and the
degenerate-to-regular ratio.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .spectra import SQRT3, StratumLabel
from .wigner import (
    ZETA_MAX,
    SWKernelSpectrum,
    _is_classical,
    sw_spectrum_qubit,
    sw_spectrum_qutrit,
)
from .ensembles import (
    _EDGES,
    _LINES,
    EnsembleKind,
    _density3_vec,
    _line_weight,
    _regular_chart,
    stratum_spectra,
    worker_seed,
)

QUBIT_STRATUM = StratumLabel.for_partition((1, 1))
REGULAR_QUTRIT = StratumLabel.for_partition((1, 1, 1))
DEGENERATE_QUTRIT = StratumLabel.for_partition((2, 1))

#: Moduli-scan layout: coarse grid then golden-section refinement.
MINIMIZER_GRID_POINTS = 61
MINIMIZER_RESOLUTION = 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Method(Enum):
    CLOSED_FORM = "closed"
    QUADRATURE = "quad"
    MONTE_CARLO = "mc"

    @classmethod
    def from_name(cls, name: str) -> "Method":
        key = name.strip().lower()
        for m in cls:
            if key == m.value or key == m.name.lower():
                return m
        raise ValueError(f"unknown method {name!r}; expected closed|quad|mc")


class UnsupportedRequestError(ValueError):
    """The (ensemble, stratum, method) combination has no implementation."""


class ConvergenceError(RuntimeError):
    """Quadrature gave a nonpositive or non-finite denominator integral."""


@dataclass(frozen=True)
class IndicatorRequest:
    """Full description of one indicator computation.

    ``zeta`` must be given for qutrit strata and omitted for the qubit.
    Quadrature has fixed accuracy and takes no options; Monte Carlo requests
    carry a ``samples`` count and ``seed`` (``workers`` splits the sampling
    into independently seeded chunks; results are deterministic for a fixed
    (seed, workers) pair).
    """

    ensemble: EnsembleKind
    stratum: StratumLabel
    method: Method
    zeta: float | None = None
    samples: int | None = None
    seed: int | None = None
    workers: int = 1

    def validate(self) -> None:
        n = self.stratum.n
        if n == 2:
            if self.zeta is not None:
                raise UnsupportedRequestError("qubit indicators take no moduli parameter")
        elif n == 3:
            if self.zeta is None:
                raise UnsupportedRequestError("qutrit indicators need a moduli parameter zeta")
            if not 0.0 <= float(self.zeta) <= ZETA_MAX + 1e-15:
                raise UnsupportedRequestError(f"zeta out of range [0, pi/3]: {self.zeta}")
        else:
            raise UnsupportedRequestError(f"unsupported dimension N={n}")
        if self.method is Method.CLOSED_FORM:
            closed_ok = (
                n == 2
                or self.ensemble is EnsembleKind.HILBERT_SCHMIDT
                or len(self.stratum.degeneracy.multiplicities) == 1
            )
            if not closed_ok:
                raise UnsupportedRequestError(
                    f"no closed form for ({self.ensemble.label}, N={n}); use quadrature"
                )
        if self.method is Method.MONTE_CARLO:
            if not self.samples or self.samples < 1:
                raise UnsupportedRequestError("Monte Carlo requests need a positive sample count")
            if self.seed is None or self.seed < 0:
                raise UnsupportedRequestError("Monte Carlo requests need a nonnegative seed")
            if self.workers < 1:
                raise UnsupportedRequestError("worker count must be positive")


@dataclass(frozen=True)
class IndicatorResult:
    """An indicator value with its method tag, error estimate and provenance."""

    q: float
    method: Method
    error_estimate: float
    request: IndicatorRequest

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"indicator out of [0, 1]: {self.q}")
        if self.error_estimate < 0.0:
            raise ValueError(f"negative error estimate: {self.error_estimate}")


def _stratum_kind(stratum: StratumLabel) -> str:
    mult = stratum.degeneracy.partition()
    if all(k == 1 for k in mult):
        return "regular"
    if len(mult) == 1:
        return "point"
    if mult == (2, 1):
        return "degenerate"
    raise UnsupportedRequestError(f"unsupported stratum {mult}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def q_qubit_closed_form(ensemble: EnsembleKind) -> IndicatorResult:
    """Qubit indicator in closed form.

    Hilbert-Schmidt: ``1/(3 sqrt3)``.
    Bures: ``(2/pi) (asin(1/sqrt3) - sqrt2/3)``.
    BKM: ``(2/pi) (asin(1/sqrt3) - sqrt(2/3) acoth(sqrt3))``.
    """
    if ensemble is EnsembleKind.HILBERT_SCHMIDT:
        q = 1.0 / (3.0 * SQRT3)
    elif ensemble is EnsembleKind.BURES:
        q = (2.0 / math.pi) * (math.asin(1.0 / SQRT3) - math.sqrt(2.0) / 3.0)
    else:
        acoth_sqrt3 = math.atanh(1.0 / SQRT3)
        q = (2.0 / math.pi) * (math.asin(1.0 / SQRT3) - math.sqrt(2.0 / 3.0) * acoth_sqrt3)
    req = IndicatorRequest(ensemble=ensemble, stratum=QUBIT_STRATUM, method=Method.CLOSED_FORM)
    return IndicatorResult(q=q, method=Method.CLOSED_FORM, error_estimate=0.0, request=req)


def q_hs_qutrit_regular_closed_form(zeta: float) -> IndicatorResult:
    """Hilbert-Schmidt indicator on the regular qutrit stratum.

    ``(20 cos^2(zeta - pi/6) + 1) / (128 (4 cos^2(zeta - pi/6) - 1)^5)``,
    symmetric about zeta = pi/6 where it attains its minimum 21/31104.
    """
    z = float(zeta)
    if not 0.0 <= z <= ZETA_MAX + 1e-15:
        raise ValueError(f"zeta out of range [0, pi/3]: {zeta}")
    c2 = math.cos(z - math.pi / 6.0) ** 2
    q = (20.0 * c2 + 1.0) / (128.0 * (4.0 * c2 - 1.0) ** 5)
    req = IndicatorRequest(
        ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=REGULAR_QUTRIT,
        method=Method.CLOSED_FORM, zeta=z,
    )
    return IndicatorResult(q=q, method=Method.CLOSED_FORM, error_estimate=0.0, request=req)


def q_hs_qutrit_degenerate_closed_form(zeta: float) -> IndicatorResult:
    """Hilbert-Schmidt indicator on the degenerate qutrit stratum.

    ``(csc^5(zeta + pi/6) + sec^5(zeta)) / 1056``; the two terms are the two
    edge pieces, and the expression is symmetric under zeta -> pi/3 - zeta.
    """
    z = float(zeta)
    if not 0.0 <= z <= ZETA_MAX + 1e-15:
        raise ValueError(f"zeta out of range [0, pi/3]: {zeta}")
    q = (math.sin(z + math.pi / 6.0) ** -5 + math.cos(z) ** -5) / 1056.0
    req = IndicatorRequest(
        ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=DEGENERATE_QUTRIT,
        method=Method.CLOSED_FORM, zeta=z,
    )
    return IndicatorResult(q=q, method=Method.CLOSED_FORM, error_estimate=0.0, request=req)


def _closed_form(ensemble: EnsembleKind, stratum: StratumLabel, zeta: float | None) -> IndicatorResult:
    kind = _stratum_kind(stratum)
    if kind == "point":
        req = IndicatorRequest(ensemble=ensemble, stratum=stratum, method=Method.CLOSED_FORM, zeta=zeta)
        return IndicatorResult(q=1.0, method=Method.CLOSED_FORM, error_estimate=0.0, request=req)
    if stratum.n == 2:
        return q_qubit_closed_form(ensemble)
    if kind == "regular":
        return q_hs_qutrit_regular_closed_form(zeta)
    return q_hs_qutrit_degenerate_closed_form(zeta)


# ---------------------------------------------------------------------------
# quadrature: Chebyshev ray fits, and tanh-sinh in phi on the regular stratum
# ---------------------------------------------------------------------------

#: Tanh-sinh rule in u = phi / pi on [0, 1]: nodes t = j h for |j| <= _TS_NODES
#: at step h = _TS_STEP, so |t| <= 4.5.  The face singularity in the chart's t
#: is absorbed by the ray fits, not by this rule; beyond |t| = 4.5 the nodes
#: lie within 5e-62 of the ends of the phi range.
_TS_STEP = 1.0 / 16.0
_TS_NODES = 72


#: Chebyshev degree of the fit of a weight along one ray, and the fit's
#: points x_j = (1 + cos(pi j / n)) / 2 in x = t^(1/4) for j < n; every
#: weight is 0 at the last point x_n = 0.
_RAY_DEGREE = 128
_RAY_X = np.sin(np.arange(_RAY_DEGREE, 0, -1) * (math.pi / (2 * _RAY_DEGREE))) ** 2
_RAY_X.flags.writeable = False


def _ray_node_table() -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points x_j and the matrix that takes a fit's ``b`` to G / (1 - x) there.

    With N = n + 1, the points are x_j = sin^2(pi j / 2N), j = 0..N, from
    x_0 = 0 up to x_N = 1.  At x_j the angle of 2x - 1 = cos(theta) has
    theta / 2 = pi (N - j) / 2N, and the matrix is
    ``sin^2(k theta / 2) / sin^2(theta / 2)`` for k = 1..N, with its limit
    k^2 at x_N = 1.  Every entry is a ratio of values sin^2(pi m / 2N) with
    m in 0..N, k (N - j) being reduced exactly, taken in long double, so
    that 0 and 1 come out exact.
    """
    n1 = _RAY_DEGREE + 1  # N
    pi = np.arccos(np.longdouble(-1.0))
    sin2 = np.sin(np.arange(n1 + 1, dtype=np.longdouble) * (pi / (2 * n1))) ** 2
    m = np.outer(np.arange(1, n1 + 1), np.arange(n1, 0, -1)) % (2 * n1)
    matrix = np.empty((n1, n1 + 1))
    matrix[:, :-1] = sin2[np.minimum(m, 2 * n1 - m)] / sin2[n1:0:-1]
    matrix[:, -1] = np.arange(1, n1 + 1) ** 2
    nodes = sin2.astype(float)
    for a in (nodes, matrix):
        a.flags.writeable = False
    return nodes, matrix


#: The cumulative G of a fit has degree n + 1 in x and vanishes at x = 1, so
#: it is G(x) = (1 - x) h(x) with h of degree n.  A fit is kept as h at the
#: Chebyshev points ``_RAY_NODES``, which a matrix product gives from ``b``;
#: h(0) = G(0) is the first.  h is read by the barycentric formula with
#: weights (-1)^j, halved at both ends.  The factor 1 - x keeps G accurate
#: relative to its size near t = 1, where the classical part of a ray lies
#: when the indicator is small.  The rounding term of a fit is
#: eps sum_k |b_k| times the points' Lebesgue bound 1 + (2/pi) ln(n + 2).
_RAY_NODES, _RAY_MATRIX = _ray_node_table()
_RAY_WEIGHTS = np.resize([1.0, -1.0], _RAY_DEGREE + 2)
_RAY_WEIGHTS[[0, -1]] *= 0.5
_RAY_WEIGHTS.flags.writeable = False
_RAY_ROUNDING = np.finfo(float).eps * (1.0 + 2.0 / math.pi * math.log(_RAY_DEGREE + 2))


def _ray_coefficients(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative Chebyshev coefficients of weight rows given at ``_RAY_X``.

    Each row of ``g`` is a weight times dt/dx = 4 x^3, so that it integrates
    in x.  Its Chebyshev series of degree ``_RAY_DEGREE`` on [0, 1] has
    coefficients ``c`` by a DCT-I (the real FFT of the even extension).  In
    the angle theta of 2x - 1 = cos(theta), the cumulative
    ``G(t) = int_t^1 weight dt`` is ``sum_{k>=1} b_k sin^2(k theta / 2)``,
    which vanishes at t = 1 term by term and is ``sum_{k odd} b_k`` at
    t = 0.  Returns the rows of ``b`` and per row the truncation bound
    |c_{n-1}| + |c_n|.
    """
    n = _RAY_DEGREE
    g = np.pad(g, ((0, 0), (0, 1)))
    c = np.fft.rfft(np.concatenate([g, g[:, n - 1:0:-1]], axis=1), axis=1).real / n
    c[:, n] *= 0.5  # c_0 stays doubled, as the antiderivative wants it
    # b_k = (c_{k-1} - c_{k+1}) / 2k: the antiderivative in 2x - 1, whose
    # factor 1/2 of dx = dy / 2 cancels the 2 of 1 - cos = 2 sin^2
    b = (c[:, :n + 1] - np.pad(c[:, 2:], ((0, 0), (0, 2)))) / (2.0 * np.arange(1, n + 2))
    return b, np.abs(c[:, n - 1]) + np.abs(c[:, n])


def _ray_fit(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ray fits of weight rows given at ``_RAY_X``, for ``_ray_cumulative``.

    Returns the rows of h = G / (1 - x) at ``_RAY_NODES``, the product of
    the ``b`` of ``_ray_coefficients`` with ``_RAY_MATRIX``, and per row the
    fit's error term: the truncation bound plus the rounding term
    ``_RAY_ROUNDING`` sum_k |b_k|.
    """
    b, tail = _ray_coefficients(g)
    # summed from the highest k down, so that the small terms of the decaying
    # b_k come first, which leaves each value as accurate as a long double
    # sum; and by einsum, not a BLAS product, which would wake BLAS worker
    # threads that then spin and slow the Monte Carlo threads of the process
    h = np.einsum("ik,kj->ij", b[:, ::-1], _RAY_MATRIX[::-1])
    return h, tail + _RAY_ROUNDING * np.abs(b).sum(axis=1)


def _ray_cumulative(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """G(t) of each row of ``h`` from ``_ray_fit``, at that row's t.

    The barycentric formula ``(1 - x) sum_j q_j h_j / sum_j q_j`` with
    q_j = w_j / (x - x_j) at x = t^(1/4) is stable at Chebyshev points and
    takes no trigonometry.  A row whose x falls on a point, as at t = 0 and
    t = 1, reads that point's value.
    """
    x = np.sqrt(np.sqrt(t))
    d = np.subtract.outer(x, _RAY_NODES)
    # the first point at or above x is x itself where x falls on a point
    on = _RAY_NODES[np.searchsorted(_RAY_NODES[:-1], x)] == x
    if on.any():  # q_j = w_j on the point and 0 elsewhere
        d[on] = np.where(d[on] == 0.0, 1.0, np.inf)
    q = np.divide(_RAY_WEIGHTS, d, out=d)
    return (1.0 - x) * np.einsum("ij,ij->i", q, h) / q.sum(axis=1)


@lru_cache(maxsize=None)
def _regular_table(kind: EnsembleKind):
    """Ray table of the regular stratum at the phi nodes of the tanh-sinh rule (read-only).

    Along the ray phi = pi u of ``ensembles._regular_chart`` the weight
    (density times area element) is fitted by ``_ray_fit`` in x = t^(1/4),
    which turns the BKM face singularity t log^2 t into x^7 log^2 x.
    Returns the nodes' u; the rows ``rules`` of node weights (step included)
    of the rule at step h and of its even-j sub-rule at step 2h; the rows of
    h = G / (1 - x) at the Chebyshev points ``_RAY_NODES``; the two rules'
    sums of G(0); and the fits' error term, the rule's sum of each ray's
    truncation bound plus its rounding term.
    """
    t = np.arange(-_TS_NODES, _TS_NODES + 1) * _TS_STEP
    s = math.pi * np.sinh(t)
    u = 1.0 / (1.0 + np.exp(-s))
    v = 1.0 / (1.0 + np.exp(s))
    w = math.pi * np.cosh(t) * u * v
    # phi = pi u, so d phi = pi du; j = -_TS_NODES is even
    rules = np.zeros((2, t.size))
    rules[0] = w * (math.pi * _TS_STEP)
    rules[1, ::2] = w[::2] * (2.0 * math.pi * _TS_STEP)
    x = _RAY_X
    spectra, area = _regular_chart(x ** 4, math.pi * u[:, None])
    h, err = _ray_fit(_density3_vec(kind, *spectra) * (area * 4.0 * x ** 3))
    den = rules @ h[:, 0]
    for a in (u, rules, h, den):
        a.flags.writeable = False
    return u, rules, h, den, float(rules[0] @ err)


def _regular_integrals(kind: EnsembleKind, zeta: float) -> tuple[tuple[float, float], ...]:
    """(value, error) of the regular stratum's numerator and denominator.

    Both are tanh-sinh sums over phi of the ray cumulatives of
    ``_regular_table``, at t_c(phi, zeta) for the numerator and at t = 0
    for the denominator.  Each value is the rule at step h; its error is
    the difference from the sub-rule at step 2h, plus the fits' error term.
    That difference measures the coarser rule, so it bounds the finer
    rule's error by a wide margin (tanh-sinh converges double
    exponentially in 1/h).
    """
    u, rules, h, den, fit_err = _regular_table(kind)
    num = rules @ _ray_cumulative(h, _regular_classical_cutoff(math.pi * u, zeta))
    return tuple((float(fine), abs(float(fine - coarse)) + fit_err) for fine, coarse in (num, den))


def _regular_classical_cutoff(phi, zeta: float):
    """Smallest classical t at angle phi of the regular chart.

    The cone ``4 sqrt3 r cos(phi/3 + zeta - pi/3) <= 1`` is r <= rho R(phi)
    in the chart's r = R(phi) (1 - t^4), so t_c^4 = 1 - rho with
    rho = cos(phi/3) / (2 cos(phi/3 + zeta - pi/3)).  1 - rho is written
    without cancellation as
    ``[cos(phi/3)(sqrt3 sin zeta - 2 sin^2(zeta/2)) + 2 sin(phi/3) sin(pi/3 - zeta)]
    / (2 cos(phi/3 + zeta - pi/3))``: both terms are nonnegative on
    [0, pi] x [0, pi/3], so rho <= 1, and t_c reaches 0 only at
    phi = zeta = 0, an endpoint singularity that tanh-sinh absorbs.
    """
    a = phi / 3.0
    half = math.sin(zeta / 2.0)
    gap = (np.cos(a) * (SQRT3 * math.sin(zeta) - 2.0 * half * half)
           + 2.0 * np.sin(a) * math.sin(math.pi / 3.0 - zeta))
    return np.sqrt(np.sqrt(gap / (2.0 * np.cos(a + zeta - math.pi / 3.0))))


@lru_cache(maxsize=None)
def _line_table(kind: EnsembleKind, pieces: tuple[tuple[int, int], ...]):
    """Ray table of line pieces, one row per piece (read-only).

    The pieces are the qubit, ``((1, 1),)``, or the two degenerate qutrit
    edges, ``_EDGES``.  The weight of ``ensembles._line_weight`` along its
    chart y = top t^4, the chart that the samplers draw from, is fitted by
    ``_ray_fit``.  Returns the rows of h = G / (1 - x) at the Chebyshev
    points ``_RAY_NODES``, whose first column is G(0), and the fits' summed
    error terms.
    """
    weights = np.array([_line_weight(kind, mult, _RAY_X ** 4)[0] for mult in pieces])
    h, err = _ray_fit(weights * (4.0 * _RAY_X ** 3))
    h.flags.writeable = False
    return h, float(err.sum())


def _edge_classical_cutoff(comp: tuple[int, int], zeta: float) -> float:
    """Smallest classical value of the lone eigenvalue y on a degenerate edge.

    This is ``classical_edge_bound_qutrit`` carried from the radius to y.
    On the (2,1) edge, 1/3 - 2r/sqrt3 at r = 1/(4 sqrt3 cos(zeta - pi/3)) is
    written without cancellation as
    ``2 sin(zeta/2) sin(pi/3 - zeta/2) / (3 cos(zeta - pi/3))``, which is
    exactly 0 at zeta = 0, where the whole edge is classical.  The direct
    difference leaves 5.6e-17 there, and cutting the edge at that y drops
    2e-6 of its BKM mass, which crowds towards y = 0.  On the (1,2) edge the
    bound r = 1/(4 sqrt3 cos zeta) never reaches the edge length, and
    y = 1/3 - 1/(12 cos zeta) lies in [1/6, 1/4].
    """
    if comp == (2, 1):
        half = zeta / 2.0
        return (2.0 * math.sin(half) * math.sin(math.pi / 3.0 - half)
                / (3.0 * math.cos(zeta - math.pi / 3.0)))
    return 1.0 / 3.0 - 1.0 / (12.0 * math.cos(zeta))


def _line_integrals(kind: EnsembleKind, zeta: float | None) -> tuple[tuple[float, float], ...]:
    """(value, error) of the numerator and denominator of a qubit (``zeta`` None) or degenerate cell.

    Classical regions have y above a cutoff y_c, so each piece contributes
    G(t_c) with t_c = (y_c / top)^(1/4) to the numerator and G(0) to the
    denominator; one evaluation reads every piece.  Both errors are the
    pieces' fit error terms.
    """
    if zeta is None:
        # classical where the Bloch radius is at most 1/sqrt3
        pieces, y_c = ((1, 1),), np.array([(1.0 - 1.0 / SQRT3) / 2.0])
    else:
        pieces = _EDGES
        y_c = np.array([_edge_classical_cutoff(comp, zeta) for comp in _EDGES])
    h, err = _line_table(kind, pieces)
    top = _LINES[pieces[0]][0]  # the two edges share theirs
    num = float(_ray_cumulative(h, (y_c / top) ** 0.25).sum())
    return (num, err), (float(h[:, 0].sum()), err)


def q_quadrature(request: IndicatorRequest) -> IndicatorResult:
    """Indicator by quadrature of the joint eigenvalue density.

    The value is the ratio of the classical-region integral to the full
    stratum integral.  Each is a sum of ray cumulatives G(t) of Chebyshev
    fits along rays of the chart (see ``_ray_fit``).  The qubit is one ray
    and the degenerate stratum one ray per edge (``_line_integrals``).  The
    regular stratum sums the 145 rays of ``_regular_table`` with a fixed
    tanh-sinh rule in phi (``_regular_integrals``).  Nothing is refined, so
    every cell has the same fixed accuracy.  The error estimate is the
    integrals' errors propagated through the ratio; a nonpositive
    denominator raises ``ConvergenceError``.
    """
    request.validate()
    if request.method is not Method.QUADRATURE:
        raise UnsupportedRequestError("q_quadrature requires a quadrature request")
    kind = request.ensemble
    skind = _stratum_kind(request.stratum)
    if skind == "point":
        return IndicatorResult(q=1.0, method=Method.QUADRATURE, error_estimate=0.0, request=request)
    if request.stratum.n == 2 or skind == "degenerate":
        (num, num_err), (den, den_err) = _line_integrals(kind, request.zeta)
    else:
        (num, num_err), (den, den_err) = _regular_integrals(kind, request.zeta)
    if den <= 0.0 or not math.isfinite(den):
        raise ConvergenceError(f"degenerate denominator integral: {den!r}")
    q = num / den
    err = abs(q) * (num_err / num if num > 0.0 else 0.0) + abs(q) * den_err / den
    q = min(max(q, 0.0), 1.0)
    return IndicatorResult(q=q, method=Method.QUADRATURE, error_estimate=err, request=request)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _kernel_for(request: IndicatorRequest) -> SWKernelSpectrum:
    if request.stratum.n == 2:
        return sw_spectrum_qubit()
    return sw_spectrum_qutrit(request.zeta)


def _mc_chunk_hits(request: IndicatorRequest, chunk: int, seed: int) -> int:
    """Classical-state count among ``chunk`` seeded draws."""
    if _stratum_kind(request.stratum) == "point":
        return chunk
    kernel = _kernel_for(request).as_array()
    rng = np.random.default_rng(seed)
    return sum(int(np.count_nonzero(_is_classical(block, kernel)))
               for block in stratum_spectra(request.ensemble, request.stratum, chunk, rng))


def q_monte_carlo(request: IndicatorRequest) -> IndicatorResult:
    """Indicator as the classical fraction of seeded ensemble draws.

    The sample budget is split into ``workers`` chunks with seeds derived by
    ``worker_seed``; chunk hit counts are integers, so the total is
    deterministic for a fixed (seed, workers) pair regardless of execution
    order.  Only the nonempty chunks, at most ``samples`` of them, are
    seeded, and at most ``os.cpu_count()`` threads run them.  The error
    estimate is the binomial standard error ``sqrt(q (1 - q) / n)``; when no
    classical state is seen the estimate falls back to the one-sided 95
    percent bound 3/n (rule of three).

    The draws come from ``stratum_spectra``: on the degenerate stratum one
    sampler over both edges, so each edge's share of the draws follows its
    own mass, not quadrature's.
    """
    request.validate()
    if request.method is not Method.MONTE_CARLO:
        raise UnsupportedRequestError("q_monte_carlo requires a Monte Carlo request")
    n, workers = int(request.samples), int(request.workers)
    base, extra = divmod(n, workers)
    # chunks from index n on would be empty, so none of them is seeded or run
    tasks = [(base + (1 if i < extra else 0), worker_seed(request.seed, i))
             for i in range(min(workers, n))]
    if len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=min(len(tasks), os.cpu_count() or 1)) as pool:
            hit_counts = list(pool.map(lambda t: _mc_chunk_hits(request, t[0], t[1]), tasks))
    else:
        hit_counts = [_mc_chunk_hits(request, sz, sd) for sz, sd in tasks]
    hits = sum(hit_counts)
    q = hits / n
    if hits == 0:
        err = 3.0 / n
    else:
        err = math.sqrt(q * (1.0 - q) / n)
    return IndicatorResult(q=q, method=Method.MONTE_CARLO, error_estimate=err, request=request)


# ---------------------------------------------------------------------------
# dispatch and moduli-space utilities
# ---------------------------------------------------------------------------

def compute_indicator(request: IndicatorRequest) -> IndicatorResult:
    """Evaluate an indicator request with its selected method."""
    request.validate()
    if request.method is Method.CLOSED_FORM:
        result = _closed_form(request.ensemble, request.stratum, request.zeta)
        return replace(result, request=request)
    if request.method is Method.QUADRATURE:
        return q_quadrature(request)
    return q_monte_carlo(request)


def indicator(ensemble: EnsembleKind, stratum: StratumLabel, method: Method,
              zeta: float | None = None, *,
              samples: int | None = None, seed: int | None = None,
              workers: int = 1) -> IndicatorResult:
    """Indicator of one (ensemble, stratum, zeta) cell by ``method``.

    ``samples`` and ``seed`` are kept only for Monte Carlo, so one set of
    options serves every method.
    """
    mc = method is Method.MONTE_CARLO
    return compute_indicator(IndicatorRequest(
        ensemble=ensemble, stratum=stratum, method=method, zeta=zeta,
        samples=samples if mc else None, seed=seed if mc else None, workers=workers,
    ))


def minimize_q_over_zeta(
    ensemble: EnsembleKind,
    stratum: StratumLabel,
    method: Method = Method.QUADRATURE,
    samples: int | None = None,
    seed: int | None = None,
) -> tuple[float, float]:
    """Minimize the indicator over the moduli angle.

    A 61-point scan over [0, pi/3] brackets the grid minimum, then
    golden-section search refines the bracket to a zeta resolution of 1e-6.

    Returns:
        (zeta_min, q_min).
    """
    if stratum.n != 3:
        raise UnsupportedRequestError("moduli minimization applies to qutrit strata")

    def q_of(zeta: float) -> float:
        return indicator(ensemble, stratum, method, zeta, samples=samples, seed=seed).q

    grid = np.linspace(0.0, ZETA_MAX, MINIMIZER_GRID_POINTS)
    values = [q_of(z) for z in grid]
    i = int(np.argmin(values))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = q_of(c), q_of(d)
    while (b - a) > MINIMIZER_RESOLUTION:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = q_of(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = q_of(d)
    zeta_min = 0.5 * (a + b)
    return zeta_min, q_of(zeta_min)


def asymmetry(
    ensemble: EnsembleKind,
    stratum: StratumLabel,
    method: Method = Method.QUADRATURE,
    samples: int | None = None,
    seed: int | None = None,
) -> float:
    """Indicator difference between the moduli endpoints, q(0) - q(pi/3).

    Zero for the Hilbert-Schmidt ensemble (mirror symmetry about pi/6),
    strictly positive for the monotone ensembles.
    """
    if stratum.n != 3:
        raise UnsupportedRequestError("asymmetry applies to qutrit strata")
    q0, q1 = (indicator(ensemble, stratum, method, z, samples=samples, seed=seed).q
              for z in (0.0, ZETA_MAX))
    return q0 - q1


def ratio_degenerate_to_regular(
    ensemble: EnsembleKind,
    zeta: float,
    method: Method = Method.QUADRATURE,
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> float:
    """Ratio of the degenerate-stratum indicator to the regular one.

    Values above 1 mean degenerate (more symmetric) states are more likely
    classical than regular ones at the same kernel angle.
    """
    q_deg, q_reg = (indicator(ensemble, stratum, method, zeta, samples=samples, seed=seed,
                              workers=workers).q
                    for stratum in (DEGENERATE_QUTRIT, REGULAR_QUTRIT))
    if q_reg < 1e-300:
        raise OverflowError(f"regular indicator too small to divide by: {q_reg!r}")
    return q_deg / q_reg
