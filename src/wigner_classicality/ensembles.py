"""Joint eigenvalue densities and samplers for unitary-invariant ensembles.

Three ensembles are supported: Hilbert-Schmidt, and the two monotone-metric
ensembles (Bures and Bogoliubov-Kubo-Mori).  For each degeneracy type of
the qubit and the qutrit the module provides the unnormalized joint density
of the distinct eigenvalues on the constraint surface ``sum k_i r_i = 1``,
written once as two array kernels (``_density3_vec``, ``_density_pair_vec``),
and a seeded sampler whose output follows that density: vectorized rejection
sampling from a per-cell envelope table on every stratum.

Every density is a proportionality only.  Classicality indicators are ratios
of integrals of one fixed density, so normalization constants cancel; when a
normalized density is wanted (distribution tests), the constant comes from
quadrature.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

from .spectra import SQRT3, DegeneracyType, StratumLabel

#: Relative half-spread below which the BKM mean is evaluated by series.
BKM_SERIES_CUTOFF = 1e-4

#: Rejection sampling aborts below this acceptance rate.
MIN_ACCEPTANCE = 1e-6


class EnsembleKind(Enum):
    """The unitary-invariant ensembles handled by this package."""

    HILBERT_SCHMIDT = "hs"
    BURES = "bures"
    BKM = "bkm"

    @property
    def label(self) -> str:
        return self.value


class SamplerFailureError(RuntimeError):
    """Rejection sampling could not proceed (vanishing acceptance or bad envelope)."""


def worker_seed(master_seed: int, worker_index: int) -> int:
    """Derive the seed for one worker from a master seed.

    The seed is the first 64-bit word of ``np.random.SeedSequence`` with
    entropy ``master_seed`` and spawn key ``(worker_index,)``, so distinct
    (master, index) pairs give unrelated streams; in particular
    ``worker_seed(s + 1, i)`` and ``worker_seed(s, i + 1)`` differ.
    Deterministic.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(worker_index),))
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# vectorized density kernels used by quadrature and the rejection samplers
# ---------------------------------------------------------------------------

def _series_patch(gap, x, y, d, rows):
    """Write the BKM series into ``gap`` = log x - log y, in place, on those of ``rows`` where it applies.

    With d = x - y and e = d / (x + y), a row with ``|e| <= BKM_SERIES_CUTOFF``
    gets ``d (1 + e^2/3 + e^4/5) / ((x + y)/2)``.  ``rows`` holds the flat
    (C order) indices of the candidates, which ``_density3_vec`` and
    ``_density_pair_vec`` prove to hold every such row.
    """
    s = np.take(np.broadcast_to(x, gap.shape), rows) + np.take(np.broadcast_to(y, gap.shape), rows)
    dc = np.take(d, rows)
    e = dc / s
    near = (e <= BKM_SERIES_CUTOFF) & (e >= -BKM_SERIES_CUTOFF)
    if near.any():
        en = e[near] * e[near]
        np.put(gap, rows[near], dc[near] * (1.0 + en / 3.0 + en * en / 5.0) / (0.5 * s[near]))


def _density3_vec(kind: EnsembleKind, r1, r2, r3):
    """Density of three distinct eigenvalues: HS ``prod_{i<j} (r_i - r_j)^2``.

    A monotone ensemble multiplies by ``prod_{i<j} c_f(r_i, r_j)`` (the
    Morozova-Chentsov function) and ``(r1 r2 r3)^(-1/2)``, written as one
    product: Bures ``8 v^2 / (sqrt(r1 r2 r3) prod (r_i + r_j))`` and BKM
    ``v (prod (l_i - l_j)) / sqrt(r1 r2 r3)``, with v = prod d, d = r_i - r_j
    and l = log r, since c = 2 / (x + y) and (log x - log y) / (x - y).

    A BKM pair with e = d / (r_i + r_j), ``|e| <= c`` (``BKM_SERIES_CUTOFF``),
    takes the series ``d (1 + e^2/3 + e^4/5) / ((r_i + r_j)/2)`` for
    l_i - l_j.  The candidates of all three pairs come from one bound on v,
    which is formed anyway.  A row with a negative or NaN eigenvalue is NaN
    whatever its gaps (through an unpatched log difference, since a pair
    of opposite signs has |e| > 1, or through sqrt(r1 r2 r3)), so let the
    row's r be >= 0 and top the largest r of all three columns, floored at
    1e-100.  A series pair has |d| <= c |r_i + r_j| (1 + u), u = 2^-53,
    since fl(d / s) <= c puts d / s at most half an ulp above c, and
    r_i + r_j rounds to at most 2 top; the other two differences round to
    at most top.  So |v| <= 2 c top^3 (1 + u)^3, and
    fl(2 c top top top (1 + 1e-12)) lies above that: four roundings lose
    far less than the 1e-12, which also covers the 2^-1075 by which a
    product that underflows can be off, since top >= 1e-100.  The series
    is tried on the rows under that bound only.

    Products run left to right in place, so r1 and r2 span the broadcast
    shape; the monotone factors reuse the buffers of the differences and
    logs once these are spent.
    """
    d12, d13, d23 = r1 - r2, r1 - r3, r2 - r3
    v = d12 * d13
    v *= d23
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        v **= 2
        return v
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is EnsembleKind.BURES:
            v *= v
            v *= 8.0
        else:
            top = max(1e-100, *(np.fmax.reduce(r, axis=None, initial=0.0) for r in (r1, r2, r3)))
            bound = 2.0 * BKM_SERIES_CUTOFF * (top * top * top) * (1.0 + 1e-12)
            rows = np.flatnonzero((v <= bound) & (v >= -bound))  # a few rows of a tile
            l1, l2, l3 = (np.log(r) for r in (r1, r2, r3))
            gaps = (l1 - l2, np.subtract(l1, l3, out=l1), np.subtract(l2, l3, out=l2))
            for x, y, d, gap in zip((r1, r1, r2), (r2, r3, r3), (d12, d13, d23), gaps):
                if rows.size:
                    _series_patch(gap, x, y, d, rows)
                v *= gap
        den = np.multiply(r1, r2, out=d12)
        den *= r3
        np.sqrt(den, out=den)
        if kind is EnsembleKind.BURES:
            for x, y in ((r1, r2), (r1, r3), (r2, r3)):
                den *= np.add(x, y, out=d13)
        v /= den
        return v


def _density_pair_vec(kind: EnsembleKind, big, small, kk: int):
    """Density of two distinct eigenvalues of multiplicities k_1 k_2 = ``kk`` (1 or 2).

    HS ``d^(2 kk)``, d = big - small, as products; a monotone ensemble
    multiplies by ``c_f(big, small)^kk (big small)^(-1/2)``: Bures
    ``(2 / (big + small))^kk``, and BKM, with c = gap / d and
    gap = log big - log small, ``(d gap)^kk / sqrt(big small)``, the form
    of ``_density3_vec``, which is 0, not NaN, at d = 0.

    A BKM pair with e = d / (big + small), ``|e| <= c`` (``BKM_SERIES_CUTOFF``),
    takes gap's series (``_series_patch``).  Let top be the largest |r| of
    both columns (NaN skipped), floored at 1e-290.  big + small rounds to at
    most 2 top, and fl(d / s) <= c puts |d / s| at most half an ulp above
    c, so a series row has |d| <= 2 c top (1 + u), u = 2^-53, for any
    input; fl(2 c top (1 + 1e-12)) lies above that, since its two roundings
    lose far less than the 1e-12 and the floor keeps it a normal number.
    The series is tried on the rows under that bound only.
    """
    diff = big - small
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is not EnsembleKind.BKM:
            v = diff * diff
            if kk == 2:
                v *= v
            return v if kind is EnsembleKind.HILBERT_SCHMIDT else v * (2.0 / (big + small)) ** kk / np.sqrt(big * small)
        top = max(1e-290, *(np.fmax.reduce(np.abs(r), axis=None, initial=0.0) for r in (big, small)))
        bound = 2.0 * BKM_SERIES_CUTOFF * top * (1.0 + 1e-12)
        gap = np.log(big) - np.log(small)
        rows = np.flatnonzero((diff <= bound) & (diff >= -bound))
        if rows.size:
            _series_patch(gap, big, small, diff, rows)
        gap *= diff
        if kk == 2:
            gap *= gap
        return np.divide(gap, np.sqrt(big * small), out=gap)


#: One-coordinate pieces, parametrised by their smallest distinct eigenvalue y:
#: multiplicities -> (top of y, pair power k_i k_j, |dr/dy| of the polar radius).
#: The qubit's Bloch radius is 1 - 2y; a degenerate qutrit edge has constant
#: |dr/dy|, sqrt3/2 on the (2,1) edge and sqrt3 on the (1,2) edge.
_LINES = {(1, 1): (0.5, 1, 2.0), (2, 1): (1.0 / 3.0, 2, SQRT3 / 2.0), (1, 2): (1.0 / 3.0, 2, SQRT3)}

#: The degenerate qutrit stratum decomposes into these two edge pieces.
_EDGES = ((2, 1), (1, 2))

#: The strata that the samplers and quadrature cover, by name, and the pieces
#: each is drawn and integrated over, in order; a stratum of one eigenvalue is
#: a point and has none.
_STRATA = {"qubit": ((1, 1),), "regular": ((1, 1, 1),), "degenerate": _EDGES}


def _stratum_kind(stratum: StratumLabel) -> str:
    """The name in ``_STRATA`` of the stratum whose pieces hold ``stratum``'s degeneracy, or "point"."""
    mult = stratum.degeneracy.multiplicities
    if len(mult) == 1:
        return "point"
    for name, pieces in _STRATA.items():
        if mult in pieces:
            return name
    raise ValueError(f"unsupported stratum {mult}")


def _line_spectrum(mult: tuple, y, edge=None):
    """Spectrum columns of a one-coordinate piece whose smallest distinct eigenvalue is y.

    On the qubit the other eigenvalue is 1 - y.  On the degenerate qutrit
    edge ``_EDGES[e]`` the larger eigenvalue is (1 - (1 + e) y) / (2 - e),
    doubled on (2,1) (e = 0) and lone on (1,2) (e = 1).  With ``mult`` =
    ``_EDGES``, point i lies on the edge ``_EDGES[edge[i]]``; blends with
    weights 0 and 1 are exact, and faster than ``np.where`` on a random mask.
    """
    if mult == (1, 1):
        return (1.0 - y, y)
    e = edge if mult == _EDGES else _EDGES.index(mult)
    big = 1.0 + e
    big *= y
    np.subtract(1.0, big, out=big)
    big /= 2.0 - e
    mid = 1.0 - e
    mid *= big
    mid += y * e
    return (big, mid, y)


#: Envelope tables: cells per axis of the proposal box (32 x 32 on the regular
#: qutrit, 256 on an interval) and sub-grid intervals per cell and axis on
#: which each cell's weight maximum is scanned.
_TABLE_CELLS = {1: 256, 2: 32}
_TABLE_SUBGRID = {1: 16, 2: 8}

#: A cell's bound is this factor times its sub-grid maximum.
_ENVELOPE_MARGIN = 1.05

#: Buckets per envelope cell in the guide table of ``_cell_lookup``.
_GUIDE_PER_CELL = 4


def _regular_chart(t, q):
    """Spectrum columns and area element per dt dq of the regular qutrit stratum in (t, q).

    The chart covers [0,1] x [0,1].  In the polar chart (r, phi) of the
    simplex, q = tan(phi/3)/sqrt3 and r = R(phi) (1 - t^4), R the
    trisectrix boundary; on that ray the smallest eigenvalue is exactly
    t^4/3, which keeps the weight bounded for all three ensembles and
    avoids the cancellation of evaluating r3 near the boundary.  With
    s = 1 - t^4 the two larger eigenvalues are 1/3 + s/6 +- s q/2.  The
    area element r dr dphi is (1 + 3 q^2) s t^3 / 3 dt dphi, and
    dq/dphi = (1 + 3 q^2) / (3 sqrt3), so per dt dq it is sqrt3 s t^3: no
    trigonometry.  The rejection sampler draws in this chart, and
    quadrature reads it on rays of fixed q (``indicators._ray_table``).
    """
    # in place where the result has the step's shape (quadrature broadcasts t against q)
    t3 = t * t
    t3 *= t
    r3 = t3 * t
    r3 /= 3.0
    s = 3.0 * r3
    np.subtract(1.0, s, out=s)
    # 1/3 + s/6 +- s q/2 summed left to right, as written above
    a = s / 6.0
    a += 1.0 / 3.0
    b = s * q
    b /= 2.0
    area = SQRT3 * s
    area *= t3
    return (a + b, np.subtract(a, b, out=b), r3), area


def _regular_weight_qutrit(kind: EnsembleKind, t, q):
    """Rejection weight for the regular qutrit stratum in the chart ``_regular_chart``, and the chart's spectra.

    Proposals off the open ordered simplex get weight 0, so they are never
    accepted, and placeholder spectra, on which the density is finite.  The
    spectra sum to one only within rounding: the sampler renormalises the
    rows it accepts (``_renormalise``), and quadrature reads no spectrum.
    """
    (r1, r2, r3), area = _regular_chart(t, q)
    bad = (r1 <= r2) | (r2 <= r3) | (t <= 0.0)
    off = bad.any()  # a random tile seldom has such a row, a quadrature table always
    if off:  # r1 and r2 have the mask's shape; r3 has t's, which quadrature broadcasts
        np.copyto(r1, 0.5, where=bad)
        np.copyto(r2, 0.3, where=bad)
        r3 = np.where(bad, 0.2, r3)
    val = _density3_vec(kind, r1, r2, r3)
    val *= area
    if off:
        val[bad] = 0.0
    return val, (r1, r2, r3)


def _renormalise(columns) -> None:
    """Divide spectrum columns, in place, by their row sums."""
    r1, r2, r3 = columns
    total = r1 + r2 + r3
    r1 /= total
    r2 /= total
    r3 /= total


def _line_weight(kind: EnsembleKind, mult: tuple, t, edge=None):
    """Weight of a line piece in the chart y = top t^4, t in (0, 1), and the spectra.

    The line pieces are the qubit and the two degenerate qutrit edges, with
    the geometry of ``_LINES``; y is their smallest distinct eigenvalue, and
    on an edge the chart matches the regular chart's r3 = t^4 / 3.  The
    weight is the density times |dr/dy| times dy/dt = 4 top t^3; quadrature
    fits it and the samplers draw from it.  t^4 and t^3 are products, whose
    bits, unlike those of ``t ** 4``, do not follow numpy's SIMD dispatch.
    Points with y outside (0, top) get weight 0, so they are never
    accepted.  With ``mult`` = ``_EDGES``, point i lies on the edge
    ``_EDGES[edge[i]]``: the edges share top and pair power, so one pass
    weighs both.
    """
    top, kk, drdy = _LINES[mult[0] if mult == _EDGES else mult]
    if mult == _EDGES:  # |dr/dy| doubles on (1,2)
        drdy = drdy * (1.0 + edge)
    t2 = t * t
    y = t2 * t2
    y *= top
    bad = (y <= 0.0) | (y >= top)
    off = bad.any()  # a random tile seldom has such a row
    if off:
        y[bad] = top / 2.0
    spectra = _line_spectrum(mult, y, edge)
    jac = t2
    jac *= t
    jac *= drdy * 4.0 * top
    val = _density_pair_vec(kind, spectra[0], spectra[-1], kk)
    val *= jac
    if off:
        val[bad] = 0.0
    return val, spectra


def _proposal_weight(kind: EnsembleKind, pieces: tuple, coords):
    """Rejection weight at proposal coordinates, and the spectrum columns they map to.

    A sampler draws from one piece, or from both degenerate edges
    ``_EDGES``, whose coordinates end with each proposal's edge index;
    quadrature fits the same weight (``indicators._ray_table``).
    """
    if pieces == ((1, 1, 1),):
        return _regular_weight_qutrit(kind, *coords)
    return _line_weight(kind, pieces[0] if len(pieces) == 1 else pieces, *coords)


@lru_cache(maxsize=None)
def _envelope_table(kind: EnsembleKind, mult: tuple[int, ...]) -> np.ndarray:
    """Per-cell rejection bounds of a rejection route, flattened row-major (read-only).

    The proposal box, the unit cube of ``len(mult) - 1`` coordinates ((t, q)
    on the regular qutrit, t on a line piece), is split into equal cells;
    each cell's bound is ``_ENVELOPE_MARGIN`` times the weight maximum on a
    sub-grid of the cell, cell edges included.
    """
    dim = len(mult) - 1
    cells, sub = _TABLE_CELLS[dim], _TABLE_SUBGRID[dim]
    axes = [np.linspace(0.0, 1.0, cells * sub + 1)] * dim
    w = _proposal_weight(kind, (mult,), np.meshgrid(*axes, indexing="ij"))[0]
    for axis in range(dim):
        w = np.moveaxis(w, axis, 0)
        # each cell's sub intervals, then its far edge (shared with the next cell)
        w = np.maximum(w[:-1].reshape(cells, sub, *w.shape[1:]).max(axis=1), w[sub::sub])
        w = np.moveaxis(w, 0, axis)
    table = _ENVELOPE_MARGIN * w.ravel()
    table.flags.writeable = False
    return table


def _guide_table(cdf: np.ndarray) -> tuple:
    """The guide table of Chen and Asau (1974) for a nondecreasing ``cdf``, read by ``_cell_lookup``.

    It splits (0, cdf[-1]] into ``_GUIDE_PER_CELL`` equal buckets per entry,
    plus one bucket that only x = cdf[-1] can reach, and stores for bucket
    k the first entry not below its lower edge k / scale lowered by a
    relative 1e-12.  ``above`` is ``cdf`` then inf.
    """
    buckets = _GUIDE_PER_CELL * cdf.size
    scale = buckets / cdf[-1]
    edges = np.arange(buckets + 1) / scale
    edges *= 1.0 - 1e-12
    guide = np.searchsorted(cdf, edges)
    above = np.append(cdf, np.inf)  # above[i] = cdf[i]
    return guide, scale, above


def _cell_lookup(table: tuple, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, x)`` for ``table = _guide_table(cdf)`` and x in [0, cdf[-1]].

    No start lies above the answer: x in bucket k has fl(x scale) >= k, so
    x >= (k / scale) (1 - 2^-53), above bucket k's edge, which the 1e-12
    lowering keeps below k / scale whatever its own rounding; and search-left
    is monotone in x.  So each x starts at its bucket's entry and takes one
    step up if ``cdf[i] < x``.  The few x that a crowded bucket leaves
    further off get search-left's index from ``np.searchsorted(above, x)``,
    not from a step loop as long as the farthest of them.
    """
    guide, scale, above = table
    i = guide.take((x * scale).astype(np.intp))  # x * scale in [0, buckets + 1) truncates into the table
    i += above.take(i) < x
    rest = np.flatnonzero(above.take(i) < x)
    if rest.size:
        i[rest] = np.searchsorted(above, x.take(rest))
    return i


@lru_cache(maxsize=None)
def _cell_origins(shape: tuple[int, ...]) -> np.ndarray:
    """Row k: ``np.unravel_index(cells, shape)[k]`` for all cells, as exact floats (read-only)."""
    origins = np.array(np.unravel_index(np.arange(math.prod(shape)), shape), dtype=float)
    origins.flags.writeable = False
    return origins


class SpectrumSampler:
    """Seeded sampler of eigenvalue spectra for one (ensemble, degeneracy).

    One instance owns one random generator; Monte Carlo makes one instance
    per chunk, seeded by ``worker_seed`` from the chunk's index, in the
    process that counts the chunk.  Every non-point
    degeneracy draws its own piece by rejection from a piecewise-constant
    envelope; a point has no envelope and yields its one spectrum.  The
    proposal box, the unit square of (t, q) on the regular qutrit
    (``_regular_chart``, no trigonometry) and t of the line chart
    y = top t^4 elsewhere (``_line_weight``), is split into equal cells
    (32 x 32, or 256), each bounded by 5 percent over the weight maximum
    on a sub-grid of the cell.  A proposal picks a cell in
    proportion to its bound (looked up in a guide table, ``_cell_lookup``),
    a point uniformly inside it from the cell's origins (``_cell_origins``),
    and is accepted with probability weight / bound.  The table is built
    once per (ensemble, degeneracy) and process on first use, so each
    process of the Monte Carlo pool builds and keeps its own; each
    instance draws from its own copy, ``_envelope``, whose cdf and guide
    table each batch builds.
    Proposals come in batches of up to ``_CHUNK``: one generator call draws
    a batch's uniforms, and every other step runs on tiles of ``_TILE``
    rows.  The accepted spectra form one stream of tiles, ``_tiles``, as
    columns: ``sample`` writes them into its rows, and Monte Carlo counts
    hits on them without building a row.

    A stratum's sampler (``_stratum_sampler``, behind ``stratum_spectra``
    and Monte Carlo) covers the pieces that ``_STRATA`` gives the stratum
    (``_cover``).  On the degenerate qutrit that is both edges: the
    envelope is the two edges' tables end to end, so a proposal picks a
    cell of either edge in proportion to its bound, and each edge is drawn
    with its own mass.

    A proposal weight above its cell's bound, or an acceptance rate below
    ``MIN_ACCEPTANCE``, aborts with ``SamplerFailureError``.
    """

    _CHUNK = 1 << 18
    #: Rows per tile in ``_draw``: a tile holds 1-2 MB of temporaries at once
    #: (README, Sampling), where a whole batch would hold 16 times that.
    _TILE = 1 << 14

    def __init__(
        self,
        kind: EnsembleKind,
        deg: DegeneracyType,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if deg.n not in (2, 3):
            raise ValueError(f"samplers support N in {{2, 3}}, got N={deg.n}")
        self.kind = kind
        self.deg = deg
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self._proposed = 0
        self._accepted = 0

        mult = deg.multiplicities
        self._envelope: np.ndarray | None = None  # a point has none
        if len(mult) > 1:
            self._dim = len(mult) - 1  # the unit box's coordinates
            self._cover((mult,))

    def _cover(self, pieces: tuple) -> None:
        """Draw from the union of ``pieces``, which share the proposal box, with their tables end to end."""
        self._pieces = pieces
        self._regular = pieces == ((1, 1, 1),)
        self._envelope = np.concatenate([_envelope_table(self.kind, mult) for mult in pieces])

    @property
    def acceptance_rate(self) -> float:
        """Observed rejection-sampling acceptance rate so far (1.0 before any proposal)."""
        if self._proposed == 0:
            return 1.0
        return self._accepted / self._proposed

    def sample(self, n: int) -> np.ndarray:
        """Draw n spectra; rows are descending eigenvalues summing to one."""
        if n < 0:
            raise ValueError("sample count must be nonnegative")
        out = np.empty((n, self.deg.n))
        done = 0
        for columns in self._tiles(n):
            k = len(columns[0])
            for j, column in enumerate(columns):
                out[done : done + k, j] = column
            done += k
        return out

    # -- internals ---------------------------------------------------------

    def _tiles(self, n: int):
        """Yield each tile's accepted spectra as columns: exactly n rows in stream order.

        Rows come in blocks of ``_CHUNK``.  A block's proposals come in
        batches sized from the running acceptance, and the rows that its
        last batch accepts past the block's end are dropped.  A batch's
        tiles are yielded only after the whole batch has passed its checks,
        so a failing batch yields nothing.  Regular-stratum rows are
        renormalised as they are yielded (``_renormalise``), so only
        accepted rows are.
        """
        for done in range(0, n, self._CHUNK):
            m = min(self._CHUNK, n - done)
            if self._envelope is None:
                yield (np.full(m, 1.0 / self.deg.n),) * self.deg.n
                continue
            while m > 0:
                rate = self.acceptance_rate
                size = self._CHUNK
                if rate > 0.0:  # 2 percent over the expected need, so one batch usually suffices
                    size = min(size, math.ceil(1.02 * m / rate) + 16)
                tiles = self._draw(size)
                if self._proposed >= 1_000_000 and self.acceptance_rate < MIN_ACCEPTANCE:
                    raise SamplerFailureError(
                        f"acceptance rate {self.acceptance_rate:.2e} below {MIN_ACCEPTANCE} for "
                        f"({self.kind.label}, {self.deg.multiplicities}) after {self._proposed} proposals"
                    )
                for columns in tiles:
                    k = min(len(columns[0]), m)
                    if k:
                        columns = tuple(c[:k] for c in columns)
                        if self._regular:
                            _renormalise(columns)
                        yield columns
                    m -= k

    def _draw(self, m: int) -> list[tuple[np.ndarray, ...]]:
        """Propose m points from the envelope table; return each tile's accepted spectrum columns.

        One generator call draws the batch's uniforms, row by row in stream
        order: the cells (scaled in place), each coordinate, the acceptance.
        So the stream and every output bit do not depend on ``_TILE``.  All
        else, from the cell lookup to the accepted columns, runs tile by
        tile, so no other array spans the batch.  Every proposal's weight is
        checked against its cell's bound before anything is returned.
        """
        bound = self._envelope
        cdf = np.cumsum(bound)
        table = _guide_table(cdf)
        cells = _TABLE_CELLS[self._dim]
        # a union's table runs piece by piece; its proposals end with their piece
        lead = (len(self._pieces),) if len(self._pieces) > 1 else ()
        origins = _cell_origins(lead + (cells,) * self._dim)
        uniforms = self.rng.random((self._dim + 2, m))
        # (1 - U) * total lies in (0, total], so search-left skips empty cells
        np.subtract(1.0, uniforms[0], out=uniforms[0])
        uniforms[0] *= cdf[-1]
        tiles, worst = [], None
        for start in range(0, m, self._TILE):
            u = uniforms[:, start:start + self._TILE]
            cell = _cell_lookup(table, u[0])
            coords = [o.take(cell) for o in origins]
            for i, v in zip(coords[len(lead):], u[1:-1]):
                i += v  # (i + v) / cells, in the origin's own array
                i *= 1.0 / cells
            coords = coords[len(lead):] + coords[:len(lead)]
            w, spectra = _proposal_weight(self.kind, self._pieces, coords)
            b = bound.take(cell)
            over = w > b
            if over.any():  # the batch's worst offender is named, in whichever tile it lies
                ratio = np.where(over, w / b, 0.0)
                i = int(np.argmax(ratio))
                if worst is None or ratio[i] > worst[0]:
                    worst = (ratio[i], w[i], b[i])
            b *= u[-1]  # the acceptance threshold
            keep = np.flatnonzero(b < w)
            tiles.append(tuple(c.take(keep) for c in spectra))
        if worst is not None:
            raise SamplerFailureError(
                f"proposal weight {worst[1]:.3e} exceeded its envelope cell bound {worst[2]:.3e} for "
                f"({self.kind.label}, {self.deg.multiplicities}); envelope table too coarse"
            )
        self._proposed += m
        self._accepted += sum(len(columns[0]) for columns in tiles)
        return tiles


def _stratum_sampler(ensemble: EnsembleKind, stratum: StratumLabel,
                     rng: np.random.Generator) -> SpectrumSampler:
    """A stratum's sampler: one envelope over all the pieces that ``_STRATA`` gives the stratum (a point has none)."""
    sampler = SpectrumSampler(ensemble, stratum.degeneracy, rng=rng)
    pieces = _STRATA.get(_stratum_kind(stratum))
    if pieces is not None and pieces != sampler._pieces:
        sampler._cover(pieces)
    return sampler


def stratum_spectra(ensemble: EnsembleKind, stratum: StratumLabel, n: int,
                    rng: np.random.Generator):
    """Yield ``n`` spectra of a regular or degenerate stratum, in blocks.

    Blocks hold at most ``SpectrumSampler._CHUNK`` rows, so memory does not
    grow with ``n``; each is one ``sample`` call, which writes the sampler's
    accepted tiles into its rows.  The blocks follow those of ``_tiles``, so
    the spectra do not depend on the blocking.
    """
    sampler = _stratum_sampler(ensemble, stratum, rng)
    chunk = SpectrumSampler._CHUNK
    for done in range(0, n, chunk):
        yield sampler.sample(min(chunk, n - done))
