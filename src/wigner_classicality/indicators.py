"""Classicality indicators: the probability that a random state is classical.

For an ensemble and a stratum, the indicator is the ratio of the ensemble
measure of the classical region to the measure of the whole stratum, both
expressed through the joint eigenvalue density.  Three independent methods
are provided and cross-validated against each other:

* closed forms (qubit, all ensembles; qutrit, Hilbert-Schmidt only),
* quadrature from Chebyshev fits, along rays of the eigenvalue simplex,
  of the weight that the samplers draw from, summed over one fixed
  tanh-sinh rule in the rays' q on the regular qutrit stratum; it has
  fixed accuracy and no tolerance,
* seeded Monte Carlo over the ensemble samplers.

On top of these sit the moduli-space utilities: minimization of the
indicator over the kernel angle, the endpoint asymmetry, and the
degenerate-to-regular ratio.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import numbers
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .spectra import SQRT3, StratumLabel
from .wigner import (
    ZETA_MAX,
    _is_classical,
    sw_spectrum_qubit,
    sw_spectrum_qutrit,
)
from .ensembles import (
    _LINES,
    _STRATA,
    EnsembleKind,
    SpectrumSampler,
    _proposal_weight,
    _stratum_kind,
    _stratum_sampler,
    worker_seed,
)

QUBIT_STRATUM = StratumLabel.for_partition((1, 1))
REGULAR_QUTRIT = StratumLabel.for_partition((1, 1, 1))
DEGENERATE_QUTRIT = StratumLabel.for_partition((2, 1))

#: Moduli-scan layout: a coarse grid brackets each minimum, then an interpolant
#: through this many Chebyshev-Lobatto angles of the bracket locates it.
MINIMIZER_GRID_POINTS = 13
_MINIMIZER_NODES = 16


class Method(Enum):
    CLOSED_FORM = "closed"
    QUADRATURE = "quad"
    MONTE_CARLO = "mc"


class UnsupportedRequestError(ValueError):
    """The (ensemble, stratum, method) combination has no implementation."""


class ConvergenceError(RuntimeError):
    """Quadrature gave a nonpositive or non-finite denominator integral."""


@dataclass(frozen=True)
class IndicatorRequest:
    """Full description of one indicator computation.

    ``zeta`` must be given for qutrit strata and omitted for the qubit.
    Quadrature has fixed accuracy and takes no options; Monte Carlo requests
    carry a ``samples`` count and ``seed``, which fix the result, and
    ``workers``, which only caps its processes.  ``validate`` runs
    ``_validate``, the one set of checks that ``indicators`` runs on a
    whole grid; computing a request builds no other request.
    """

    ensemble: EnsembleKind
    stratum: StratumLabel
    method: Method
    zeta: float | None = None
    samples: int | None = None
    seed: int | None = None
    workers: int = 1

    def validate(self) -> None:
        """Raise ``UnsupportedRequestError`` unless the request can be computed: ``_validate`` on a grid of this one cell."""
        _validate((self.ensemble,), self.stratum, self.method, [self.zeta], self.samples, self.seed, self.workers)


def _validate(kinds, stratum: StratumLabel, method: Method, zetas, samples: int | None,
              seed: int | None, workers: int) -> None:
    """Check a grid of ``kinds`` on ``stratum`` at ``zetas`` by ``method``, building no request.

    Raises the first ``UnsupportedRequestError`` that the grid's cells
    would raise one by one.  Each check depends on a cell's angle alone,
    its ensemble alone or neither, so each runs once, in the cells' order:
    the first angle, then the first ensemble (its type, then its closed
    form) and the Monte Carlo options, then the other angles and the other
    ensembles, and last an unknown method.  A grid with no angle still gets
    the checks that depend on no angle, and one with no ensemble those
    that depend on no ensemble.
    """
    n = stratum.n
    if n not in (2, 3):
        raise UnsupportedRequestError(f"unsupported dimension N={n}")

    def check_angle(zeta) -> None:
        if n == 2:
            if zeta is not None:
                raise UnsupportedRequestError("qubit indicators take no moduli parameter")
        elif zeta is None:
            raise UnsupportedRequestError("qutrit indicators need a moduli parameter zeta")
        elif isinstance(zeta, bool) or not isinstance(zeta, numbers.Real):
            raise UnsupportedRequestError(f"zeta must be a real number, got {zeta!r}")
        elif not 0.0 <= float(zeta) <= ZETA_MAX + 1e-15:
            raise UnsupportedRequestError(f"zeta out of range [0, pi/3]: {zeta}")

    def check_kind(kind: EnsembleKind) -> None:
        if not isinstance(kind, EnsembleKind):
            raise UnsupportedRequestError(f"unknown ensemble {kind!r}")
        closed_ok = (n == 2 or kind is EnsembleKind.HILBERT_SCHMIDT
                     or len(stratum.degeneracy.multiplicities) == 1)
        if method is Method.CLOSED_FORM and not closed_ok:
            raise UnsupportedRequestError(f"no closed form for ({kind.label}, N={n}); use quadrature")

    for zeta in zetas[:1]:
        check_angle(zeta)
    for kind in kinds[:1]:
        check_kind(kind)
    if method is Method.MONTE_CARLO:
        for name, value in (("samples", samples), ("seed", seed), ("workers", workers)):
            if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise UnsupportedRequestError(f"Monte Carlo {name} must be an integer, got {value!r}")
        if not samples or samples < 1:
            raise UnsupportedRequestError("Monte Carlo requests need a positive sample count")
        if seed is None or seed < 0:
            raise UnsupportedRequestError("Monte Carlo requests need a nonnegative seed")
        if workers is None or workers < 1:
            raise UnsupportedRequestError("worker count must be positive")
    for zeta in zetas[1:]:
        check_angle(zeta)
    for kind in kinds[1:]:
        check_kind(kind)
    if not isinstance(method, Method):
        raise UnsupportedRequestError(f"unknown method {method!r}")


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


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _closed_form(ensemble: EnsembleKind, stratum: StratumLabel, zeta) -> float:
    """The closed-form indicator of a validated cell off a point; the formulas are those of the ``q_*_closed_form``."""
    kind = _stratum_kind(stratum)
    if kind == "qubit":
        if ensemble is EnsembleKind.HILBERT_SCHMIDT:
            return 1.0 / (3.0 * SQRT3)
        if ensemble is EnsembleKind.BURES:
            return (2.0 / math.pi) * (math.asin(1.0 / SQRT3) - math.sqrt(2.0) / 3.0)
        acoth_sqrt3 = math.atanh(1.0 / SQRT3)
        return (2.0 / math.pi) * (math.asin(1.0 / SQRT3) - math.sqrt(2.0 / 3.0) * acoth_sqrt3)
    z = float(zeta)
    if kind == "regular":
        c2 = math.cos(z - math.pi / 6.0) ** 2
        return (20.0 * c2 + 1.0) / (128.0 * (4.0 * c2 - 1.0) ** 5)
    return (math.sin(z + math.pi / 6.0) ** -5 + math.cos(z) ** -5) / 1056.0


def q_qubit_closed_form(ensemble: EnsembleKind) -> IndicatorResult:
    """Qubit indicator in closed form.

    Hilbert-Schmidt: ``1/(3 sqrt3)``.
    Bures: ``(2/pi) (asin(1/sqrt3) - sqrt2/3)``.
    BKM: ``(2/pi) (asin(1/sqrt3) - sqrt(2/3) acoth(sqrt3))``.
    """
    return compute_indicator(IndicatorRequest(
        ensemble=ensemble, stratum=QUBIT_STRATUM, method=Method.CLOSED_FORM))


def q_hs_qutrit_regular_closed_form(zeta: float) -> IndicatorResult:
    """Hilbert-Schmidt indicator on the regular qutrit stratum.

    ``(20 cos^2(zeta - pi/6) + 1) / (128 (4 cos^2(zeta - pi/6) - 1)^5)``,
    symmetric about zeta = pi/6 where it attains its minimum 21/31104.
    """
    return compute_indicator(IndicatorRequest(
        ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=REGULAR_QUTRIT, method=Method.CLOSED_FORM, zeta=zeta))


def q_hs_qutrit_degenerate_closed_form(zeta: float) -> IndicatorResult:
    """Hilbert-Schmidt indicator on the degenerate qutrit stratum.

    ``(csc^5(zeta + pi/6) + sec^5(zeta)) / 1056``; the two terms are the two
    edge pieces, and the expression is symmetric under zeta -> pi/3 - zeta.
    """
    return compute_indicator(IndicatorRequest(
        ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=DEGENERATE_QUTRIT, method=Method.CLOSED_FORM, zeta=zeta))


# ---------------------------------------------------------------------------
# quadrature: Chebyshev ray fits, and tanh-sinh in q on the regular stratum
# ---------------------------------------------------------------------------

#: Tanh-sinh rule in the regular chart's q on [0, 1] (``_tanh_sinh_rule``):
#: nodes s = j h for |j| <= _TS_NODES at step h = _TS_STEP.
_TS_STEP = 1.0 / 16.0
_TS_NODES = 72


def _tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes q = 1 / (1 + exp(-pi sinh s)) of the tanh-sinh rule, and two rows of their weights.

    |s| <= 4.5: the face singularity in the chart's t is absorbed by the
    ray fits, not by this rule, and beyond |s| = 4.5 the nodes lie within
    5e-62 of the ends of [0, 1].  The rows hold dq/ds = pi cosh(s) q (1 - q),
    with 1 - q = 1 / (1 + exp(pi sinh s)), times the step, of the rule at
    step h and of its even-j sub-rule at step 2h (j = -_TS_NODES is even).
    ``math`` takes each node alone, so no bit follows numpy's SIMD dispatch.
    """
    nodes = []
    for j in range(-_TS_NODES, _TS_NODES + 1):
        e = math.pi * math.sinh(j * _TS_STEP)
        q, v = 1.0 / (1.0 + math.exp(-e)), 1.0 / (1.0 + math.exp(e))
        nodes.append((q, math.pi * math.cosh(j * _TS_STEP) * q * v))
    q, w = np.array(nodes).T.copy()
    rules = np.zeros((2, q.size))
    rules[0], rules[1, ::2] = w * _TS_STEP, w[::2] * (2.0 * _TS_STEP)
    return q, rules


#: Chebyshev degree of the fit of a weight along one ray, and the fit's
#: points x_j = (1 + cos(pi j / n)) / 2 in x = t^(1/4) for j < n; every
#: weight is 0 at the last point x_n = 0.  t = x^4 there (``_RAY_T``) and
#: dt/dx = 4 x^3 (``_RAY_DT``) are products, whose bits, unlike those of
#: ``x ** 4``, do not follow numpy's SIMD dispatch.
_RAY_DEGREE = 128
_RAY_X = np.sin(np.arange(_RAY_DEGREE, 0, -1) * (math.pi / (2 * _RAY_DEGREE))) ** 2
_RAY_T = (_RAY_X * _RAY_X) * (_RAY_X * _RAY_X)
_RAY_DT = 4.0 * (_RAY_X * _RAY_X * _RAY_X)
_TS_Q, _TS_RULES = _tanh_sinh_rule()
for _a in (_RAY_X, _RAY_T, _RAY_DT, _TS_Q, _TS_RULES):
    _a.flags.writeable = False
del _a


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
    """Ray fits of weight rows given at ``_RAY_X``, for ``_ray_read``.

    Returns the rows of h = G / (1 - x) at ``_RAY_NODES``, the product of
    the ``b`` of ``_ray_coefficients`` with ``_RAY_MATRIX``, and per row the
    fit's error term: the truncation bound plus the rounding term
    ``_RAY_ROUNDING`` sum_k |b_k|.
    """
    b, tail = _ray_coefficients(g)
    # summed from the highest k down, so that the small terms of the decaying
    # b_k come first, which leaves each value as accurate as a long double
    # sum; by einsum, whose fixed summation order fixes the bits, where a
    # BLAS product sums in an order of its own
    h = np.einsum("ik,kj->ij", b[:, ::-1], _RAY_MATRIX[::-1])
    return h, tail + _RAY_ROUNDING * np.abs(b).sum(axis=1)


def _ray_weights(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barycentric weights of reads at ``t``, which every ray table read there shares.

    A read of G at t is ``(1 - x) sum_j q_j h_j / sum_j q_j`` with
    q_j = w_j / (x - x_j) at x = t^(1/4), which is stable at Chebyshev
    points and takes no trigonometry.  Nothing of it but h depends on the
    fit, so one set of weights serves the rows of every table read at the
    same t.  ``t`` has one entry per row on its last axis, and any leading
    axes (one per angle of a block, say); each read's arithmetic is the
    same whatever the leading axes.  A read whose x falls on a point, as
    at t = 0 and t = 1, weighs that point alone, so it gives the point's
    value.  Returns 1 - x, the weights q (with a last axis over the
    points) and their sums.
    """
    x = np.sqrt(np.sqrt(t))
    d = np.subtract.outer(x, _RAY_NODES)
    # the first point at or above x is x itself where x falls on a point
    on = _RAY_NODES[np.searchsorted(_RAY_NODES[:-1], x)] == x
    if on.any():  # q_j = w_j on the point and 0 elsewhere
        d[on] = np.where(d[on] == 0.0, 1.0, np.inf)
    q = np.divide(_RAY_WEIGHTS, d, out=d)
    return 1.0 - x, q, q.sum(axis=-1)


def _ray_read(weights: tuple[np.ndarray, np.ndarray, np.ndarray], h: np.ndarray) -> np.ndarray:
    """G of each row of ``h`` from ``_ray_fit`` at the reads of ``_ray_weights``."""
    lead, q, total = weights
    return lead * np.einsum("...ij,ij->...i", q, h) / total


#: A ray of the regular table whose G(0) weighs at most this share of the
#: denominator in the fine rule is dropped: G is nonincreasing in t, so no
#: read of it can move a digit.
_ROW_MASS_FLOOR = 1e-26

#: Angles per block of ``_quadrature_block``: a block's (angle, ray, point)
#: weight array from ``_ray_weights`` is 8 x 91 x 130 doubles (0.76 MB) on
#: the union of all three regular tables, so it stays in cache; a whole
#: 61-angle grid at once would take 5.8 MB.
_ZETA_BLOCK = 8


@lru_cache(maxsize=None)
def _ray_table(kind: EnsembleKind, skind: str):
    """Ray table of the stratum ``skind`` of ``ensembles._STRATA`` (read-only).

    Each row is a ``_ray_fit``, in x = t^(1/4), of the weight that every
    sampler draws from, ``ensembles._proposal_weight``, times dt/dx along
    the chart's t: one ray per q node of the tanh-sinh rule on the regular
    stratum (x turns the BKM face singularity t log^2 t into x^7 log^2 x),
    and one row per piece on a line stratum, which is their sum, so both
    rule rows are all ones and differ by exactly 0.  Rows whose fine-rule
    mass ``rules[0] * G(0)`` is at most ``_ROW_MASS_FLOOR`` of the
    denominator are dropped, which keeps 83, 90 and 91 of the 145 rays for
    HS, Bures and BKM, and every piece.  Returns the kept rows' keys (q,
    or the piece's position), their two rule rows, their h = G / (1 - x)
    at the Chebyshev points ``_RAY_NODES``, both rules' sums of G(0) over
    all rows, and the error term: the fine rule's sum of every row's
    truncation bound and rounding term, plus both rules' mass of the
    dropped rows, which bounds what dropping them can change in any sum or
    rule difference.
    """
    pieces = _STRATA[skind]
    if skind == "regular":
        keys, rules, coords = _TS_Q, _TS_RULES, (_RAY_T, _TS_Q[:, None])
    else:  # t, then each point's piece, which the degenerate edges read as its edge
        keys, rules = np.arange(len(pieces), dtype=float), np.ones((2, len(pieces)))
        coords = (np.tile(_RAY_T, (len(pieces), 1)), np.repeat(keys[:, None], _RAY_DEGREE, axis=1))
    h, err = _ray_fit(_proposal_weight(kind, pieces, coords)[0] * _RAY_DT)
    den = rules @ h[:, 0]
    keep = rules[0] * h[:, 0] > _ROW_MASS_FLOOR * den[0]
    fit_err = float(rules[0] @ err) + float(rules.sum(axis=0)[~keep] @ h[~keep, 0])  # the dropped rows' mass
    # C order, as the full rows were: BLAS sums the other order differently
    keys, rules, h = keys[keep], np.ascontiguousarray(rules[:, keep]), h[keep]
    for a in (keys, rules, h, den):
        a.flags.writeable = False
    return keys, rules, h, den, fit_err


def _regular_classical_cutoff(q, zeta):
    """Smallest classical t on the ray q of the regular chart, for one angle zeta or a 1-D block.

    In the chart's r = R(phi) (1 - t^4), the cone
    ``4 sqrt3 r cos(phi/3 + zeta - pi/3) <= 1`` is t^4 >= t_c^4 =
    1 - cos(phi/3) / (2 cos(phi/3 + zeta - pi/3)).  Divided through by
    cos(phi/3), with tan(phi/3) = sqrt3 q, that is
    ``(fold + p) / (2 cos(pi/3 - zeta) + p)`` with
    p = 2 sqrt3 q sin(pi/3 - zeta) and fold = sqrt3 sin zeta - 2 sin^2(zeta/2).
    No term is negative, so nothing cancels, and t_c is 0 only at
    q = zeta = 0, an endpoint singularity that tanh-sinh absorbs.
    A block of angles gives one row per angle; the factors of zeta are
    taken by ``math``, so no ray takes trigonometry.
    """
    fold, lift, base = [], [], []
    for v in np.ravel(zeta).tolist():
        half = math.sin(v / 2.0)
        fold.append(SQRT3 * math.sin(v) - 2.0 * half * half)
        lift.append(math.sin(math.pi / 3.0 - v))
        base.append(2.0 * math.cos(math.pi / 3.0 - v))
    shape = (*np.shape(zeta), 1)
    p = np.reshape(lift, shape) * (2.0 * SQRT3 * q)
    return np.sqrt(np.sqrt((np.reshape(fold, shape) + p) / (np.reshape(base, shape) + p)))


@lru_cache(maxsize=None)
def _table_union(kinds: tuple[EnsembleKind, ...], skind: str):
    """The union of the rows of the tables of ``kinds`` on a stratum, and each table on it (read-only).

    The tables are those of ``_ray_table``.  Every regular table keeps
    rays among the same 145 q nodes, and the weights of a read at an angle
    zeta depend on the ray's q alone, so one set of weights over the
    union's rays serves every table; the line tables of a stratum all have
    the same pieces.  Returns the union's row keys, increasing, and per
    kind the positions of its rows among the union's, its h on the union's
    rows (0 on those it dropped), and its rules, denominators and error
    term.
    """
    tables = [_ray_table(kind, skind) for kind in kinds]
    # a set, not np.union1d, which imports numpy.ma (about 20 ms) on first use
    keys = np.array(sorted({v for table in tables for v in table[0].tolist()}))
    reads = []
    for kept, rules, h, den, fit_err in tables:
        rows = np.searchsorted(keys, kept)
        padded = np.zeros((len(keys), h.shape[1]))
        padded[rows] = h
        for a in (rows, padded):
            a.flags.writeable = False
        reads.append((rows, padded, rules, den, fit_err))
    keys.flags.writeable = False
    return keys, tuple(reads)


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


def _classical_cutoff(skind: str, keys: np.ndarray, zetas) -> np.ndarray:
    """Smallest classical t of each row of a stratum's table union, one row per angle of ``zetas``.

    A regular ray cuts at ``_regular_classical_cutoff`` of its q.
    A line piece cuts where its y reaches a cutoff y_c, at
    t_c = (y_c / top)^(1/4): ``_edge_classical_cutoff`` on an edge, and on
    the qubit, whose one angle is None, where the Bloch radius is 1/sqrt3.
    """
    if skind == "regular":
        return _regular_classical_cutoff(keys, np.array(zetas))
    pieces = _STRATA[skind]
    y_c = [[(1.0 - 1.0 / SQRT3) / 2.0] if skind == "qubit" else [_edge_classical_cutoff(comp, z) for comp in pieces]
           for z in zetas]
    top = _LINES[pieces[0]][0]  # the two edges share theirs
    return np.sqrt(np.sqrt(np.array(y_c) / top))


def _table_integrals(kinds: tuple[EnsembleKind, ...], skind: str, zetas):
    """Per kind of ``kinds``, the classical integrals and their errors at a block of angles of a stratum.

    Each is a sum over the table's rows of the ray cumulatives G(t_c) at
    the cutoffs of ``_classical_cutoff``, by both of the table's rules.
    Every kind at every angle of ``zetas`` is read from one
    ``_ray_weights`` call over the union of the kinds' rows
    (``_table_union``); each kind then contracts the weights with its own
    h and keeps its own rows' reads.  Each value is the rule at step h;
    its error is the difference from the sub-rule at step 2h, plus the
    table's error term.  On the regular stratum that difference measures
    the coarser rule, so it bounds the finer rule's error by a wide margin
    (tanh-sinh converges double exponentially in 1/h); on a line stratum
    it is 0.  Returns per kind the values and their errors as arrays over
    the block.
    """
    keys, tables = _table_union(kinds, skind)
    weights = _ray_weights(_classical_cutoff(skind, keys, zetas))
    integrals = []
    for rows, h, rules, _, fit_err in tables:
        g = _ray_read(weights, h)[:, rows]
        # one product per angle: a product over the whole block sums in another
        # order and moves last bits
        fine, coarse = np.array([rules @ row for row in g]).T
        integrals.append((fine, np.abs(fine - coarse) + fit_err))
    return integrals


def _quadrature_block(kinds: tuple[EnsembleKind, ...], stratum: StratumLabel, zetas) -> list:
    """Quadrature values and error estimates of each of ``kinds`` on ``stratum`` at each valid angle of ``zetas``.

    The angles are read ``_ZETA_BLOCK`` at a time, every kind from one set
    of ray weights per block (``_table_integrals``).  Each cell's value and
    error are those of the same cell alone: the block shares the tables,
    the weights and the array calls, and no arithmetic of one cell depends
    on another.  Returns per kind a pair of lists, the values and the
    error estimates.
    """
    skind = _stratum_kind(stratum)
    curves = []
    for _, _, _, (fine, coarse), fit_err in _table_union(kinds, skind)[1]:
        if fine <= 0.0 or not math.isfinite(fine):
            raise ConvergenceError(f"degenerate denominator integral: {float(fine)!r}")
        curves.append((float(fine), abs(float(fine - coarse)) + fit_err, [], []))
    for i in range(0, len(zetas), _ZETA_BLOCK):
        for (den, den_err, values, errors), (num, num_err) in zip(
                curves, _table_integrals(kinds, skind, zetas[i:i + _ZETA_BLOCK])):
            for n, n_err in zip(num.tolist(), num_err.tolist()):
                q = n / den
                values.append(min(max(q, 0.0), 1.0))
                errors.append(abs(q) * (n_err / n if n > 0.0 else 0.0) + abs(q) * den_err / den)
    return [(values, errors) for _, _, values, errors in curves]


def q_quadrature(request: IndicatorRequest) -> IndicatorResult:
    """Indicator by quadrature of the joint eigenvalue density.

    The value is the ratio of the classical-region integral to the full
    stratum integral.  Each is a sum of ray cumulatives G(t) of Chebyshev
    fits along rays of the chart (see ``_ray_fit``) of the weight that the
    sampler draws from, over the rows of one table per stratum
    (``_ray_table``): one row for the qubit and one per edge on the
    degenerate stratum; on the regular stratum the rays that carry mass,
    83 to 91 of 145, with a fixed tanh-sinh rule in the regular chart's q.
    Nothing is refined, so every cell has the same fixed accuracy.  The
    error estimate is the integrals' errors propagated through the ratio;
    a nonpositive denominator raises ``ConvergenceError``.  The cell is a grid of one of ``indicators``,
    which reads whole grids of angles and ensembles in one
    ``_quadrature_block`` with the same result per cell.
    """
    return _cell(request, Method.QUADRATURE)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _mc_chunk_hits(kind: EnsembleKind, stratum: StratumLabel, kernels, chunk: int, seed: int) -> list[int]:
    """Classical-state counts among ``chunk`` seeded draws, one per kernel row of ``kernels``.

    Every kernel is paired with each tile as the cell of that kernel alone
    pairs it, so each count is bit for bit that cell's, and the draws are
    made once for all of them.
    """
    hits = [0] * len(kernels)
    for columns in _stratum_sampler(kind, stratum, np.random.default_rng(seed))._tiles(chunk):
        # one kernel at a time: pairing a tile with k kernels at once, as a
        # (tile, k) array, runs numpy loops of length k and is ~6x slower
        hits = [h + int(np.count_nonzero(_is_classical(columns, kernel))) for h, kernel in zip(hits, kernels)]
    return hits


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_run(task) -> np.ndarray:
    """Hits per angle of one run of consecutive chunks, the work of one pool process.

    ``task`` is (kind, stratum, kernels, n, seed, first, stop): chunks
    ``first`` to ``stop - 1`` of a cell of ``n`` draws, chunk i covering
    draws i S to min((i + 1) S, n), S = ``SpectrumSampler._CHUNK``, seeded
    by ``worker_seed(seed, i)``.  Each chunk is seeded and counted as the
    run reaches it, so memory does not grow with the run's length.
    """
    kind, stratum, kernels, n, seed, first, stop = task
    chunk = SpectrumSampler._CHUNK
    return sum((_mc_chunk_hits(kind, stratum, kernels, min(chunk, n - i * chunk), worker_seed(seed, i))
                for i in range(first, stop)), np.zeros(len(kernels), int))


#: The Monte Carlo process pool as (size, executor), made by ``_mc_pool``.
_POOL = None


def _mc_pool(size: int):
    """A pool of at least ``size`` forked processes that maps ``_mc_run``, or None where the OS cannot fork.

    The pool is made on the first call that needs one, with all its
    processes started at once, and kept for the next; a call that needs
    more processes replaces it, so no pool has more processes than the
    call that made it asked for, at most min(``_usable_cpus()``,
    ``workers``).  ``_close_pool`` ends it at exit.
    """
    global _POOL
    if _POOL is not None and _POOL[0] >= size:
        return _POOL[1]
    _close_pool()
    # imported here, as in _mc_cells, so that importing the package and
    # counting one run of chunks per cell load no process or executor machinery
    import multiprocessing
    import warnings
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    # an explicit fork context: Python 3.14 made forkserver Linux's default
    pool = ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork"))
    with warnings.catch_warnings():
        # From Python 3.12 on, a fork of a process with more than one thread
        # warns that a lock held by another thread would stay held in the
        # child.  The other threads here are numpy's idle BLAS workers, and
        # the children run only ufuncs and the random generator, never BLAS.
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        pool.submit(int).result()  # forks every process now, under the filter
    _POOL = size, pool
    return pool


@atexit.register
def _close_pool() -> None:
    """Shut the Monte Carlo pool down, its queued runs cancelled, and drop it, before the interpreter tears its modules down."""
    global _POOL
    if _POOL is not None:
        (_, pool), _POOL = _POOL, None
        pool.shutdown(cancel_futures=True)


@contextlib.contextmanager
def _mc_cells(cells, workers: int):
    """Monte Carlo values and error estimates of cells (kind, stratum, zetas, samples, seed), drawn in one pass.

    A cell of n draws is cut into chunks of S = ``SpectrumSampler._CHUNK``
    draws, the last one short, chunk i seeded by ``worker_seed(seed, i)``,
    so a cell's values depend on its seed and n alone.  A cell's chunks
    form at most min(chunks, ``_usable_cpus()``, ``workers``) runs of
    consecutive chunks, and each run sums the hits of its chunks
    (``_mc_run``): ``workers`` caps the processes and changes no bit, and
    memory does not grow with ``samples``.  Each chunk's draws are counted
    against the kernel of every angle (``_mc_chunk_hits``); the draws do
    not depend on the angle, so each count is the one its cell has alone.

    Entering hands every run of every cell to ``_mc_pool`` in one ``map``,
    largest runs first (Graham's list scheduling), with as many processes
    as the cell with the most runs has; where no cell has two runs, each
    cell's one run is counted in this process.  The block gets
    ``collect``, which waits for the runs and returns each cell's values
    and errors, so the caller may work while the pool draws.  Hits are
    integers summed per cell, so the order in which runs finish changes no
    bit.  A run's error reaches ``collect``'s caller, and ``map`` cancels
    the pass's queued runs; a pool that loses a process raises
    ``BrokenExecutor`` and is dropped.  Leaving the block before
    ``collect`` shuts the pool down with its queued runs cancelled.
    """
    cpus, size, chunk = _usable_cpus(), 0, SpectrumSampler._CHUNK
    runs, shapes = [], []  # (draws, cell, task) per run; (angles, samples) per cell
    for cell, (kind, stratum, zetas, samples, seed) in enumerate(cells):
        kernels = [(sw_spectrum_qubit() if stratum.n == 2 else sw_spectrum_qutrit(z)).as_array() for z in zetas]
        n = int(samples)
        shapes.append((len(kernels), n))
        chunks = -(-n // chunk) if kernels else 0
        k = min(chunks, cpus, workers)
        size = max(size, k)
        for j in range(k):
            first, stop = j * chunks // k, (j + 1) * chunks // k
            runs.append((min(stop * chunk, n) - first * chunk, cell, (kind, stratum, kernels, n, seed, first, stop)))
    runs.sort(key=lambda run: run[0], reverse=True)  # stable: equal runs keep the cells' order
    pool = _mc_pool(size) if size > 1 else None
    hits = (map if pool is None else pool.map)(_mc_run, [task for _, _, task in runs])
    collected = False

    def collect() -> list[tuple[list[float], list[float]]]:
        nonlocal collected
        collected = True
        totals = [np.zeros(angles, int) for angles, _ in shapes]
        for (_, cell, _), h in zip(runs, hits):
            totals[cell] += h
        out = []
        for (_, n), total in zip(shapes, totals):
            values = [h / n for h in total.tolist()]
            # the rule of three where no classical state is seen
            out.append((values, [math.sqrt(q * (1.0 - q) / n) if q else 3.0 / n for q in values]))
        return out

    try:
        yield collect
    except BaseException as exc:
        if pool is not None:
            from concurrent.futures import BrokenExecutor

            if not collected or isinstance(exc, BrokenExecutor):
                _close_pool()
        raise


def q_monte_carlo(request: IndicatorRequest) -> IndicatorResult:
    """Indicator as the classical fraction of seeded ensemble draws.

    The cell is a grid of one of ``indicators``, drawn by ``_mc_cells`` in
    chunks of ``SpectrumSampler._CHUNK`` draws seeded by ``worker_seed``
    from the chunk's index; hit counts are integers, so the value depends
    on ``seed`` and ``samples`` alone, not on ``workers``, which caps the
    forked processes, or on the order in which chunks finish.  The error
    estimate is the binomial standard error ``sqrt(q (1 - q) / n)``; when
    no classical state is seen the estimate falls back to the one-sided
    95 percent bound 3/n (rule of three).

    The draws are those of ``stratum_spectra``: on the degenerate stratum
    one sampler over both edges, so each edge's share of the draws follows
    its own mass, not quadrature's.  Hits are counted on the sampler's
    accepted tiles, as columns, so no spectrum row is built.  The draws do
    not depend on zeta, so the cells of one seed share them (common random
    numbers): ``indicators`` counts a whole grid on one stream.
    """
    return _cell(request, Method.MONTE_CARLO)


# ---------------------------------------------------------------------------
# dispatch and moduli-space utilities
# ---------------------------------------------------------------------------

def _cell(request: IndicatorRequest, method: Method) -> IndicatorResult:
    """``request``, which must be of ``method``, as a grid of one cell of ``indicators``."""
    if request.method is not method:
        raise UnsupportedRequestError(f"{request.method!r} given where a {method.value} request is needed")
    ((q,), (err,)), = indicators((request.ensemble,), request.stratum, method, [request.zeta],
                                 samples=request.samples, seed=request.seed, workers=request.workers)
    return IndicatorResult(q=q, method=method, error_estimate=err, request=request)


def compute_indicator(request: IndicatorRequest) -> IndicatorResult:
    """Evaluate an indicator request with its selected method."""
    if request.method is Method.QUADRATURE:
        return q_quadrature(request)
    if request.method is Method.MONTE_CARLO:
        return q_monte_carlo(request)
    # a closed form, or a method that is not a ``Method``, which ``_validate`` rejects
    return _cell(request, request.method)


def indicators(ensembles, stratum: StratumLabel, method: Method,
               zetas, *, samples: int | None = None, seed: int | None = None,
               workers: int = 1) -> list[tuple[list[float], list[float]]]:
    """Indicators of each of ``ensembles`` on ``stratum`` at each angle of ``zetas``: values and errors per ensemble.

    Every value and error is bit for bit that of ``compute_indicator`` at
    its cell alone.  ``_validate`` checks the grid, each angle and each ensemble
    once, and raises the first error that the cells would raise one by
    one; an empty grid gets the checks that depend on no angle.  On a point
    stratum every state is classical, so every method answers each cell
    with Q = 1 and error 0 here, before any table is read or any chunk is
    seeded.  Quadrature reads the whole grid in one ``_quadrature_block``,
    whose ensembles share the ray weights of each block of angles.  Monte
    Carlo draws every ensemble in one pass of ``_mc_cells``, whose runs of
    chunks, those of all ensembles together, go to the pool at once,
    largest first; each ensemble counts every angle on the draws of one
    stream (common random numbers), so neighbouring cells of a curve are
    correlated.  A single ensemble is a one-tuple, and a qubit takes
    ``zetas = [None]``.
    """
    kinds, zetas = tuple(ensembles), list(zetas)
    _validate(kinds, stratum, method, zetas, samples, seed, workers)
    if len(stratum.degeneracy.multiplicities) == 1:  # every state of a point is classical
        return [([1.0] * len(zetas), [0.0] * len(zetas)) for _ in kinds]
    if method is Method.QUADRATURE:
        return _quadrature_block(kinds, stratum, zetas)
    if method is Method.MONTE_CARLO:
        with _mc_cells([(kind, stratum, zetas, samples, seed) for kind in kinds], workers) as collect:
            return collect()
    return [([_closed_form(kind, stratum, z) for z in zetas], [0.0] * len(zetas)) for kind in kinds]


def _chebyshev_series(values: list[float]) -> list[float]:
    """Chebyshev coefficients of the interpolant through ``values`` at x_j = -cos(pi j / n), by a DCT-I as in ``_ray_coefficients``."""
    n = len(values) - 1
    f = values[::-1]  # from x = 1 down
    c = (np.fft.rfft(f + f[n - 1:0:-1]).real / n).tolist()
    c[0] *= 0.5
    c[n] *= 0.5
    return c


def _chebyshev_derivative(c: list[float]) -> list[float]:
    """The Chebyshev series of the derivative of the series ``c``: d_(k-1) = d_(k+1) + 2 k c_k, d_0 halved."""
    d = [0.0] * (len(c) + 1)
    for k in range(len(c) - 1, 0, -1):
        d[k - 1] = d[k + 1] + 2.0 * k * c[k]
    d[0] *= 0.5
    return d[:len(c) - 1]


def _clenshaw(c: list[float], x: float) -> float:
    """The Chebyshev series ``c`` at x, by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


def _interpolant_minimum(values: list[float]) -> float:
    """The x in [-1, 1] where the interpolant of ``_chebyshev_series`` through ``values`` is least.

    Where its slope runs from negative at -1 to positive at 1, that is the
    slope's root, by Newton steps from 0 safeguarded by bisection down to a
    step of 1e-15; otherwise it is the end of the lower value.
    """
    slope = _chebyshev_derivative(_chebyshev_series(values))
    curvature = _chebyshev_derivative(slope)
    lo, hi = -1.0, 1.0
    if not _clenshaw(slope, lo) < 0.0 < _clenshaw(slope, hi):
        return lo if values[0] <= values[-1] else hi
    x, dx = 0.0, 1.0
    while dx > 1e-15:
        s, c = _clenshaw(slope, x), _clenshaw(curvature, x)
        lo, hi = (x, hi) if s < 0.0 else (lo, x)
        # a Newton step out of the bracket, or at a nonpositive curvature, bisects
        step = x - s / c if c > 0.0 else math.nan
        step = step if lo <= step <= hi else 0.5 * (lo + hi)
        x, dx = step, abs(step - x)
    return x


def _minima(kinds: tuple[EnsembleKind, ...], stratum: StratumLabel, method: Method) -> list[tuple[float, float, float]]:
    """(zeta_min, q_min, q(0) - q(pi/3)) of each of ``kinds`` on a qutrit ``stratum``, from three ``indicators`` calls.

    A ``MINIMIZER_GRID_POINTS`` scan over [0, pi/3] brackets each kind's
    grid minimum by its grid neighbours, and its ends (exactly 0 and pi/3)
    give the asymmetry.  One call reads every kind at its own
    ``_MINIMIZER_NODES`` Chebyshev-Lobatto angles of its bracket, where
    ``_interpolant_minimum`` finds zeta_min to rounding level: Q is
    analytic far beyond each bracket (its nearest singularity, at zeta = 0,
    lies 0.44 or more away).  A last call reads every q_min.  A cell's bits
    do not depend on its call, so every result is bit for bit that of the
    kind alone.  Monte Carlo fails validation: the scan takes no samples.
    """
    if stratum.n != 3:
        raise UnsupportedRequestError("moduli minimization applies to qutrit strata")

    def own_values(angles: list[list[float]]) -> list[list[float]]:
        """Each kind at its own list of ``angles``, all of one length, from one ``indicators`` call."""
        curves = indicators(kinds, stratum, method, [z for zs in angles for z in zs])
        return [values[k * len(zs):(k + 1) * len(zs)] for k, ((values, _), zs) in enumerate(zip(curves, angles))]

    grid = np.linspace(0.0, ZETA_MAX, MINIMIZER_GRID_POINTS).tolist()
    scans = [values for values, _ in indicators(kinds, stratum, method, grid)]
    brackets = [(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
                for i in (int(np.argmin(values)) for values in scans)]
    n = _MINIMIZER_NODES - 1
    nodes = [[a + (b - a) * math.sin(math.pi * j / (2 * n)) ** 2 for j in range(n + 1)] for a, b in brackets]
    zeta_min = [a + (b - a) * (0.5 + 0.5 * _interpolant_minimum(values))
                for (a, b), values in zip(brackets, own_values(nodes))]
    q_min = own_values([[z] for z in zeta_min])
    return [(z, q, values[0] - values[-1]) for z, (q,), values in zip(zeta_min, q_min, scans)]


def minimize_q_over_zeta(
    ensemble: EnsembleKind,
    stratum: StratumLabel,
    method: Method = Method.QUADRATURE,
) -> tuple[float, float]:
    """Minimize the indicator over the moduli angle: (zeta_min, q_min).

    The one-kind case of ``_minima``: a 13-point scan brackets the grid
    minimum, the least point of a Chebyshev interpolant on the bracket
    locates it to rounding level, and a Monte Carlo ``method`` fails
    validation (``UnsupportedRequestError``).
    """
    ((zeta_min, q_min, _),) = _minima((ensemble,), stratum, method)
    return zeta_min, q_min


def asymmetry(
    ensemble: EnsembleKind,
    stratum: StratumLabel,
    method: Method = Method.QUADRATURE,
) -> float:
    """Indicator difference between the moduli endpoints, q(0) - q(pi/3).

    Zero for the Hilbert-Schmidt ensemble (mirror symmetry about pi/6),
    strictly positive for the monotone ensembles.  A Monte Carlo
    ``method`` fails validation, as in ``minimize_q_over_zeta``.
    """
    if stratum.n != 3:
        raise UnsupportedRequestError("asymmetry applies to qutrit strata")
    (((q0, q1), _),) = indicators((ensemble,), stratum, method, (0.0, ZETA_MAX))
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
    classical than regular ones at the same kernel angle.  Where the
    regular indicator is 0, as in a Monte Carlo cell with no classical
    draw, the ratio is undefined and is returned as ``nan``.
    """
    return _degenerate_to_regular_ratios((ensemble,), [zeta], method, samples, seed, workers)[0][0]


def _degenerate_to_regular_ratios(ensembles, zetas, method: Method, samples: int | None,
                                  seed: int | None, workers: int) -> list[list[float]]:
    """``ratio_degenerate_to_regular`` of each of ``ensembles`` at each angle of ``zetas``, from one ``indicators`` call per stratum."""
    deg, reg = (indicators(ensembles, stratum, method, zetas, samples=samples, seed=seed, workers=workers)
                for stratum in (DEGENERATE_QUTRIT, REGULAR_QUTRIT))
    return [[d / r if r > 0.0 else math.nan for d, r in zip(d_values, r_values)]
            for (d_values, _), (r_values, _) in zip(deg, reg)]
