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

def _mc_vec(kind: EnsembleKind, x, y, diff, lx, ly):
    """Morozova-Chentsov function on arrays; ``diff`` is x - y, ``lx``, ``ly`` are ``np.log`` of x, y (BKM only).

    BKM takes its series where d = diff / (x + y) has ``|d| <= BKM_SERIES_CUTOFF``.
    Such a row has |diff| <= cutoff |x + y| (1 + 2^-53), and |x + y| rounds
    to at most the sum of the largest |x| and the largest |y| (NaN skipped),
    so the row is among the candidates |diff| <= cutoff (that sum)
    (1 + 1e-12), for any input; x + y and d are formed on the candidates only.
    """
    if kind is EnsembleKind.BURES:
        return 2.0 / (x + y)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(lx - ly)
        out /= diff
    diff = np.asarray(diff)
    top = sum(max(np.fmax.reduce(v, axis=None, initial=0.0), -np.fmin.reduce(v, axis=None, initial=0.0))
              for v in (x, y))
    cut = BKM_SERIES_CUTOFF * max(top, 1e-290) * (1.0 + 1e-12)  # the floor keeps cut's rounding relative
    cand = (diff <= cut) & (diff >= -cut)  # no float temporary
    if cand.any():
        s = np.broadcast_to(x, cand.shape)[cand] + np.broadcast_to(y, cand.shape)[cand]
        d = diff[cand] / s
        near = (d <= BKM_SERIES_CUTOFF) & (d >= -BKM_SERIES_CUTOFF)
        if near.any():
            dn = d[near]
            series = out[cand]
            series[near] = (1.0 + dn * dn / 3.0 + dn ** 4 / 5.0) / (0.5 * s[near])
            out[cand] = series
    return out


def _logs(kind: EnsembleKind, *r):
    """``np.log`` of each eigenvalue for BKM, once per eigenvalue; None otherwise."""
    if kind is EnsembleKind.BKM:
        return tuple(np.log(v) for v in r)
    return (None,) * len(r)


def _density3_vec(kind: EnsembleKind, r1, r2, r3):
    """Density of three distinct eigenvalues: HS ``prod_{i<j} (r_i - r_j)^2``.

    A monotone ensemble multiplies by ``prod_{i<j} c_f(r_i, r_j)`` (the
    Morozova-Chentsov function of ``_mc_vec``) and ``(r1 r2 r3)^(-1/2)``.
    Products run left to right in place, so r1 and r2 span the broadcast shape.
    """
    d12, d13, d23 = r1 - r2, r1 - r3, r2 - r3
    v = d12 * d13
    v *= d23
    v **= 2
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        return v
    with np.errstate(divide="ignore", invalid="ignore"):
        l1, l2, l3 = _logs(kind, r1, r2, r3)
        c = _mc_vec(kind, r1, r2, d12, l1, l2)
        c *= _mc_vec(kind, r1, r3, d13, l1, l3)
        c *= _mc_vec(kind, r2, r3, d23, l2, l3)
        v *= c
        c = r1 * r2
        c *= r3
        v /= np.sqrt(c)
        return v


def _density_pair_vec(kind: EnsembleKind, big, small, kk: int):
    """Density of two distinct eigenvalues of multiplicities k_1 k_2 = ``kk``.

    HS ``(big - small)^(2 kk)``, as products (kk is 1 or 2); a monotone
    ensemble multiplies by ``c_f(big, small)^kk (big small)^(-1/2)``.
    """
    diff = big - small
    v = diff * diff
    if kk == 2:
        v *= v
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        return v
    with np.errstate(divide="ignore", invalid="ignore"):
        lb, ls = _logs(kind, big, small)
        return v * _mc_vec(kind, big, small, diff, lb, ls) ** kk / np.sqrt(big * small)


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


def _regular_chart(t, phi):
    """Spectrum columns and area element of the regular qutrit stratum in (t, phi).

    The chart covers [0,1] x [0,pi] with the radius substitution
    r = R(phi) (1 - t^4) of the polar chart, R the trisectrix boundary; on
    that ray the smallest eigenvalue is exactly t^4/3, which keeps the
    weight bounded for all three ensembles and avoids the cancellation of
    evaluating r3 near the boundary.  With s = 1 - t^4 and
    q = tan(phi/3)/sqrt3 in [0, 1] the two larger eigenvalues are
    1/3 + s/6 +- s q/2, and the area element r dr dphi is
    (1 + 3 q^2) s t^3 / 3 dt dphi.  Quadrature and the rejection sampler
    share this chart.
    """
    # in place where the result has the step's shape (quadrature broadcasts t against phi)
    q = phi / 3.0
    np.tan(q, out=q)
    q /= SQRT3
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
    area = 3.0 * q
    area *= q
    area += 1.0
    area = area * s
    area *= t3
    area /= 3.0
    return (a + b, np.subtract(a, b, out=b), r3), area


def _regular_weight_qutrit(kind: EnsembleKind, t, phi):
    """Rejection weight for the regular qutrit stratum in the chart ``_regular_chart``, and the spectra.

    Proposals off the open ordered simplex get weight 0; the spectra are
    renormalised to sum to one.
    """
    (r1, r2, r3), area = _regular_chart(t, phi)
    bad = (r1 <= r2) | (r2 <= r3) | (t <= 0.0)
    off = bad.any()  # a random tile seldom has such a row
    spectra = [np.where(bad, fill, r) for fill, r in zip((0.5, 0.3, 0.2), (r1, r2, r3))] if off else (r1, r2, r3)
    val = _density3_vec(kind, *spectra)
    val *= area
    if off:
        val[bad] = 0.0
    total = r1 + r2 + r3
    r1 /= total
    r2 /= total
    return val, (r1, r2, r3 / total)


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


def _proposal_box(mult: tuple[int, ...]) -> tuple[float, ...]:
    """Widths of the proposal box of a rejection route, which starts at 0: (t, phi) on the regular qutrit, t on a line piece."""
    return (1.0, math.pi) if mult == (1, 1, 1) else (1.0,)


def _proposal_weight(kind: EnsembleKind, pieces: tuple, coords):
    """Rejection weight at proposal coordinates, and the spectrum columns they map to.

    A sampler draws from one piece, or from both degenerate edges
    ``_EDGES``, whose coordinates end with each proposal's edge index.
    """
    if pieces == ((1, 1, 1),):
        return _regular_weight_qutrit(kind, *coords)
    return _line_weight(kind, pieces[0] if len(pieces) == 1 else pieces, *coords)


@lru_cache(maxsize=None)
def _envelope_table(kind: EnsembleKind, mult: tuple[int, ...]) -> np.ndarray:
    """Per-cell rejection bounds of a rejection route, flattened row-major (read-only).

    The proposal box is split into equal cells; each cell's bound is
    ``_ENVELOPE_MARGIN`` times the weight maximum on a sub-grid of the cell,
    cell edges included.
    """
    box = _proposal_box(mult)
    cells, sub = _TABLE_CELLS[len(box)], _TABLE_SUBGRID[len(box)]
    axes = [np.linspace(0.0, width, cells * sub + 1) for width in box]
    w = _proposal_weight(kind, (mult,), np.meshgrid(*axes, indexing="ij"))[0]
    for axis in range(len(box)):
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

    One instance owns one random generator; create one instance per worker,
    with per-worker seeds derived by ``worker_seed``.  Every non-point
    degeneracy draws its own piece by rejection from a piecewise-constant
    envelope; a point has no envelope and yields its one spectrum.  The
    proposal box, (t, phi) on the regular qutrit and t of the line
    chart y = top t^4 elsewhere (``_line_weight``), is split into equal
    cells (32 x 32, or 256), each bounded by 5 percent over the weight
    maximum on a sub-grid of the cell.  A proposal picks a cell in
    proportion to its bound (looked up in a guide table, ``_cell_lookup``),
    a point uniformly inside it from the cell's origins (``_cell_origins``),
    and is accepted with probability weight / bound.  The table is built
    once per (ensemble, degeneracy) on first use; each instance draws from
    its own copy, ``_envelope``, whose cdf and guide table each batch builds.
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
            self._box = _proposal_box(mult)
            self._cover((mult,))

    def _cover(self, pieces: tuple) -> None:
        """Draw from the union of ``pieces``, which share the proposal box, with their tables end to end."""
        self._pieces = pieces
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
        so a failing batch yields nothing.
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
                        yield tuple(c[:k] for c in columns)
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
        cells = _TABLE_CELLS[len(self._box)]
        # a union's table runs piece by piece; its proposals end with their piece
        lead = (len(self._pieces),) if len(self._pieces) > 1 else ()
        origins = _cell_origins(lead + (cells,) * len(self._box))
        uniforms = self.rng.random((len(self._box) + 2, m))
        # (1 - U) * total lies in (0, total], so search-left skips empty cells
        np.subtract(1.0, uniforms[0], out=uniforms[0])
        uniforms[0] *= cdf[-1]
        tiles, worst = [], None
        for start in range(0, m, self._TILE):
            u = uniforms[:, start:start + self._TILE]
            cell = _cell_lookup(table, u[0])
            coords = [o.take(cell) for o in origins]
            for width, i, v in zip(self._box, coords[len(lead):], u[1:-1]):
                i += v  # (i + v) width / cells, in the origin's own array
                i *= width / cells
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
