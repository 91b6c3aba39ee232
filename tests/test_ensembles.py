"""Tests for the joint eigenvalue densities and the seeded samplers.

The distributional tests pin the samplers against the quadrature-normalized
densities (chi-square on a 50-bin marginal grid at the 0.001 level) and the
matrix models of ``matrix_models`` against the rejection route (two-sample KS).
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import chisquare, ks_2samp

from matrix_models import bures_spectra, ginibre_spectra
from scalar_density import joint_density, log_joint_density, mc_function

import wigner_classicality.ensembles as ensembles
import wigner_classicality.indicators as indicators
from wigner_classicality.spectra import SQRT3, DegeneracyType, StratumLabel
from wigner_classicality.wigner import (
    ZETA_MAX,
    _dual_pairing,
    _is_classical,
    sw_spectrum_qubit,
    sw_spectrum_qutrit,
)
from wigner_classicality.ensembles import (
    EnsembleKind,
    SamplerFailureError,
    SpectrumSampler,
    stratum_spectra,
    worker_seed,
    _EDGES,
    _TABLE_CELLS,
    _cell_lookup,
    _density3_vec,
    _density_pair_vec,
    _envelope_table,
    _guide_table,
    _proposal_weight,
    _stratum_kind,
    _stratum_sampler,
)
from wigner_classicality.indicators import (
    DEGENERATE_QUTRIT,
    QUBIT_STRATUM,
    REGULAR_QUTRIT,
    _mc_chunk_hits,
)

ALL_KINDS = (EnsembleKind.HILBERT_SCHMIDT, EnsembleKind.BURES, EnsembleKind.BKM)
ALL_MULTS = ((1, 1), (1, 1, 1), (2, 1), (1, 2))
SUB_POWER = {EnsembleKind.HILBERT_SCHMIDT: 1, EnsembleKind.BURES: 2, EnsembleKind.BKM: 4}


class TestMorozovaChentsov:
    def test_bures_normalization(self):
        assert mc_function(EnsembleKind.BURES, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_bures_value(self):
        assert mc_function(EnsembleKind.BURES, 0.5, 0.25) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_bkm_coincidence_limit(self):
        for x in (0.1, 0.37, 0.9):
            assert mc_function(EnsembleKind.BKM, x, x) == pytest.approx(1.0 / x, rel=1e-12)

    def test_bkm_series_matches_exact_at_cutoff(self):
        # both branches agree around the switch point
        x = 0.4
        for offset in (0.99e-4, 1.01e-4):
            y = x * (1 - offset) / (1 + offset)  # d = offset
            exact = (math.log(x) - math.log(y)) / (x - y)
            assert mc_function(EnsembleKind.BKM, x, y) == pytest.approx(exact, rel=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for kind in (EnsembleKind.BURES, EnsembleKind.BKM):
            for _ in range(200):
                x, y = rng.uniform(1e-6, 1.0, 2)
                assert mc_function(kind, x, y) == pytest.approx(mc_function(kind, y, x), rel=1e-12)

    def test_normalization_property(self):
        rng = np.random.default_rng(1)
        for kind in (EnsembleKind.BURES, EnsembleKind.BKM):
            for x in rng.uniform(1e-6, 1.0, 200):
                assert mc_function(kind, x, x) == pytest.approx(1.0 / x, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mc_function(EnsembleKind.BURES, -1.0, 0.5)
        with pytest.raises(ValueError):
            mc_function(EnsembleKind.BKM, 0.5, 0.0)
        with pytest.raises(ValueError):
            mc_function(EnsembleKind.HILBERT_SCHMIDT, 0.5, 0.5)


class TestJointDensity:
    def test_hs_regular_value(self):
        deg = DegeneracyType((1, 1, 1))
        val = joint_density(EnsembleKind.HILBERT_SCHMIDT, deg, (1 / 2, 1 / 3, 1 / 6))
        assert val == pytest.approx(1.0 / 11664.0, rel=1e-12, abs=0)

    def test_coincident_is_exact_zero(self):
        deg = DegeneracyType((1, 1, 1))
        r = 0.4
        assert joint_density(EnsembleKind.HILBERT_SCHMIDT, deg, (r, r, 1 - 2 * r)) == 0.0

    def test_bures_qubit_proportionality(self):
        # the radial qubit density of the Bures ensemble is r^2 / sqrt(1 - r^2)
        deg = DegeneracyType((1, 1))
        ratios = []
        for r in np.linspace(0.05, 0.95, 19):
            val = joint_density(EnsembleKind.BURES, deg, ((1 + r) / 2, (1 - r) / 2))
            ratios.append(val / (r * r / math.sqrt(1 - r * r)))
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_constraint_enforced(self):
        deg = DegeneracyType((2, 1))
        with pytest.raises(ValueError):
            joint_density(EnsembleKind.HILBERT_SCHMIDT, deg, (0.4, 0.3))

    def test_descending_enforced(self):
        deg = DegeneracyType((1, 1, 1))
        with pytest.raises(ValueError):
            joint_density(EnsembleKind.HILBERT_SCHMIDT, deg, (1 / 6, 1 / 3, 1 / 2))

    def test_permutation_symmetry(self):
        # one symmetric function restricted to relabeled pieces: swapping the
        # (multiplicity, eigenvalue) pairs together leaves the value unchanged
        rng = np.random.default_rng(2)
        for kind in ALL_KINDS:
            for _ in range(100):
                y = rng.uniform(0.01, 0.32)
                x = (1 - y) / 2
                a = log_joint_density(kind, DegeneracyType((2, 1)), (x, y), validate=False)
                b = log_joint_density(kind, DegeneracyType((1, 2)), (y, x), validate=False)
                assert a == pytest.approx(b, rel=1e-12)

    def test_no_overflow_near_boundary(self):
        deg = DegeneracyType((1, 1, 1))
        tiny = 1e-12
        r = (1.0 - 2 * tiny, tiny * 1.5, tiny * 0.5)
        for kind in ALL_KINDS:
            val = joint_density(kind, deg, r)
            assert math.isfinite(val) and val >= 0.0

    def test_matches_indicator_fast_paths(self):
        rng = np.random.default_rng(3)
        reg = DegeneracyType((1, 1, 1))
        for kind in ALL_KINDS:
            for _ in range(50):
                r2 = rng.uniform(0.05, 0.32)
                r1 = rng.uniform(max(r2, 1 - r2 - r2) + 1e-3, 1 - r2 - 1e-3)
                r3 = 1 - r1 - r2
                if not r1 > r2 > r3 > 0:
                    continue
                assert _density3_vec(kind, r1, r2, r3) == pytest.approx(
                    joint_density(kind, reg, (r1, r2, r3)), rel=1e-12)
            for comp in ((2, 1), (1, 2)):
                for _ in range(50):
                    y = rng.uniform(0.01, 0.32)
                    big = (1 - y) / 2 if comp == (2, 1) else 1 - 2 * y
                    assert _density_pair_vec(kind, big, y, 2) == pytest.approx(
                        joint_density(kind, DegeneracyType(comp), (big, y)), rel=1e-12
                    )


class TestSeeding:
    def test_worker_seed_deterministic(self):
        assert worker_seed(123, 4) == worker_seed(123, 4)
        seeds = {worker_seed(123, i) for i in range(64)}
        assert len(seeds) == 64

    def test_worker_seed_neighbours_differ(self):
        # an XOR of master and index made these two equal
        assert worker_seed(1235, 0) != worker_seed(1234, 1)
        seeds = {worker_seed(m, i) for m in range(1230, 1240) for i in range(8)}
        assert len(seeds) == 80

    def test_sampler_deterministic(self):
        for kind in ALL_KINDS:
            a = SpectrumSampler(kind, DegeneracyType((1, 1, 1)), seed=42).sample(500)
            b = SpectrumSampler(kind, DegeneracyType((1, 1, 1)), seed=42).sample(500)
            assert np.array_equal(a, b)


class TestSamplerStructure:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", [(1, 1), (1, 1, 1), (2, 1), (1, 2)])
    def test_rows_are_valid_spectra(self, kind, mult):
        eigs = SpectrumSampler(kind, DegeneracyType(mult), seed=9).sample(2000)
        assert eigs.shape == (2000, sum(mult))
        assert np.allclose(eigs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(eigs, axis=1) <= 1e-15)
        assert np.all(eigs >= -1e-15)

    def test_degenerate_structure(self):
        eigs = SpectrumSampler(EnsembleKind.BKM, DegeneracyType((2, 1)), seed=10).sample(1000)
        assert np.array_equal(eigs[:, 0], eigs[:, 1])
        assert np.all(eigs[:, 1] > eigs[:, 2])
        eigs = SpectrumSampler(EnsembleKind.BURES, DegeneracyType((1, 2)), seed=10).sample(1000)
        assert np.array_equal(eigs[:, 1], eigs[:, 2])

    def test_point_stratum(self):
        eigs = SpectrumSampler(EnsembleKind.BURES, DegeneracyType((3,)), seed=1).sample(10)
        assert np.allclose(eigs, 1.0 / 3.0)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            SpectrumSampler(EnsembleKind.BURES, DegeneracyType((1, 1, 1, 1)), seed=1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", ALL_MULTS)
    def test_each_degeneracy_draws_its_own_piece(self, kind, mult):
        sampler = SpectrumSampler(kind, DegeneracyType(mult), seed=1)
        assert sampler._pieces == (mult,)
        assert np.array_equal(sampler._envelope, _envelope_table(kind, mult))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("name,stratum", [
        ("qubit", QUBIT_STRATUM), ("regular", REGULAR_QUTRIT), ("degenerate", DEGENERATE_QUTRIT),
        ("degenerate", StratumLabel(DegeneracyType((1, 2)), DEGENERATE_QUTRIT.name)),
    ], ids=["qubit", "regular", "degenerate", "degenerate-by-hand"])
    def test_stratum_sampler_covers_the_table(self, kind, name, stratum):
        # the degenerate stratum draws both edge tables end to end, also from a
        # label built by hand on the (1,2) edge, as quadrature integrates both
        sampler = _stratum_sampler(kind, stratum, np.random.default_rng(1))
        pieces = ensembles._STRATA[name]
        assert sampler._pieces == pieces
        assert np.array_equal(sampler._envelope, np.concatenate([_envelope_table(kind, m) for m in pieces]))
        # _stratum_kind inverts the table, and a stratum of one eigenvalue is a point
        assert _stratum_kind(stratum) == name
        assert [_stratum_kind(StratumLabel.for_partition((n,))) for n in (2, 3)] == ["point", "point"]


class TestSamplerFailure:
    def test_vanishing_acceptance_raises(self):
        sampler = SpectrumSampler(EnsembleKind.BKM, DegeneracyType((1, 1, 1)), seed=5)
        sampler._envelope *= 1e12  # force acceptance below the failure threshold
        with pytest.raises(SamplerFailureError, match="acceptance rate"):
            sampler.sample(100)

    def test_envelope_overflow_raises(self):
        sampler = SpectrumSampler(EnsembleKind.BKM, DegeneracyType((1, 1, 1)), seed=5)
        sampler._envelope /= 1e6
        with pytest.raises(SamplerFailureError, match="envelope"):
            sampler.sample(100)

    def test_one_cell_below_its_weight_raises(self):
        sampler = SpectrumSampler(EnsembleKind.BURES, DegeneracyType((1, 1, 1)), seed=5)
        cell = int(np.argmax(sampler._envelope))
        sampler._envelope[cell] /= 2.0  # below the cell's sub-grid maximum
        with pytest.raises(SamplerFailureError, match="envelope cell bound"):
            sampler.sample(200_000)

    def test_envelope_table_is_not_shared(self):
        a = SpectrumSampler(EnsembleKind.BKM, DegeneracyType((2, 1)), seed=5)
        a._envelope /= 1e6
        b = SpectrumSampler(EnsembleKind.BKM, DegeneracyType((2, 1)), seed=5)
        assert b.sample(1000).shape == (1000, 3)


class _ReferenceSampler(SpectrumSampler):
    """The proposal loop of version 0.2.4: one binary search and one whole-batch weight, one tile."""

    def _draw(self, m: int) -> list[tuple[np.ndarray, ...]]:
        bound = self._envelope
        cdf = np.cumsum(bound)
        cell = np.searchsorted(cdf, (1.0 - self.rng.random(m)) * cdf[-1])
        cells = _TABLE_CELLS[len(self._box)]
        lead = (len(self._pieces),) if len(self._pieces) > 1 else ()
        index = np.unravel_index(cell, lead + (cells,) * len(self._box))
        coords = [lo + (i + self.rng.random(m)) * ((hi - lo) / cells)
                  for (lo, hi), i in zip(self._box, index[len(lead):])]
        coords += index[:len(lead)]
        w, spectra = _proposal_weight(self.kind, self._pieces, coords)
        b = bound[cell]
        over = w > b
        if over.any():
            i = int(np.argmax(np.where(over, w / b, 0.0)))
            raise SamplerFailureError(
                f"proposal weight {w[i]:.3e} exceeded its envelope cell bound {b[i]:.3e} for "
                f"({self.kind.label}, {self.deg.multiplicities}); envelope table too coarse"
            )
        keep = self.rng.random(m) * b < w
        self._proposed += m
        self._accepted += int(np.count_nonzero(keep))
        return [tuple(c[keep] for c in spectra)]


def _mc_vec_028(kind: EnsembleKind, x, y, lx, ly):
    """``ensembles._mc_vec`` of version 0.2.8."""
    if kind is EnsembleKind.BURES:
        return 2.0 / (x + y)
    s = np.asarray(x + y)
    d = np.asarray((x - y) / s)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((lx - ly) / (x - y))
    near = np.abs(d) <= ensembles.BKM_SERIES_CUTOFF
    if near.any():
        dn = d[near]
        out[near] = (1.0 + dn * dn / 3.0 + dn ** 4 / 5.0) / (0.5 * s[near])
    return out


def _density3_vec_028(kind: EnsembleKind, r1, r2, r3):
    """``ensembles._density3_vec`` of version 0.2.8."""
    v = ((r1 - r2) * (r1 - r3) * (r2 - r3)) ** 2
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        return v
    with np.errstate(divide="ignore", invalid="ignore"):
        l1, l2, l3 = ensembles._logs(kind, r1, r2, r3)
        c = _mc_vec_028(kind, r1, r2, l1, l2) * _mc_vec_028(kind, r1, r3, l1, l3) * _mc_vec_028(kind, r2, r3, l2, l3)
        return v * c / np.sqrt(r1 * r2 * r3)


def _density_pair_vec_028(kind: EnsembleKind, big, small, kk: int):
    """``ensembles._density_pair_vec`` of version 0.2.8."""
    v = (big - small) ** (2 * kk)
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        return v
    with np.errstate(divide="ignore", invalid="ignore"):
        lb, ls = ensembles._logs(kind, big, small)
        return v * _mc_vec_028(kind, big, small, lb, ls) ** kk / np.sqrt(big * small)


def _regular_chart_028(t, phi):
    """``ensembles._regular_chart`` of version 0.2.8."""
    q = np.tan(phi / 3.0) / SQRT3
    t3 = t * t * t
    r3 = t3 * t / 3.0
    s = 1.0 - 3.0 * r3
    r1 = 1.0 / 3.0 + s / 6.0 + s * q / 2.0
    r2 = 1.0 / 3.0 + s / 6.0 - s * q / 2.0
    return (r1, r2, r3), (1.0 + 3.0 * q * q) * s * t3 / 3.0


def _regular_weight_qutrit_032(kind: EnsembleKind, t, phi):
    """``ensembles._regular_weight_qutrit`` as 0.3.2 first shipped it (``np.where`` on every tile), on 0.2.8 kernels."""
    (r1, r2, r3), area = _regular_chart_028(t, phi)
    bad = (r1 <= r2) | (r2 <= r3) | (t <= 0.0)
    r1s = np.where(bad, 0.5, r1)
    r2s = np.where(bad, 0.3, r2)
    r3s = np.where(bad, 0.2, r3)
    val = _density3_vec_028(kind, r1s, r2s, r3s) * area
    total = r1 + r2 + r3
    return np.where(bad, 0.0, val), (r1 / total, r2 / total, r3 / total)


def _line_spectrum_032(mult: tuple, y, edge=None):
    """``ensembles._line_spectrum`` as 0.3.2 first shipped it."""
    if mult == (1, 1):
        return (1.0 - y, y)
    e = edge if mult == _EDGES else _EDGES.index(mult)
    big = (1.0 - (1.0 + e) * y) / (2.0 - e)
    return (big, big * (1.0 - e) + y * e, y)


def _line_weight_032(kind: EnsembleKind, mult: tuple, t, edge=None):
    """``ensembles._line_weight`` as 0.3.2 first shipped it (``np.where`` on every tile), on the 0.2.8 density."""
    top, kk, drdy = ensembles._LINES[mult[0] if mult == _EDGES else mult]
    if mult == _EDGES:
        drdy = drdy * (1.0 + edge)
    y = top * t ** 4
    bad = (y <= 0.0) | (y >= top)
    spectra = _line_spectrum_032(mult, np.where(bad, top / 2.0, y), edge)
    val = _density_pair_vec_028(kind, spectra[0], spectra[-1], kk) * (drdy * 4.0 * top * t ** 3)
    return np.where(bad, 0.0, val), spectra


def _sampler(cls, kind: EnsembleKind, mult: tuple, seed: int) -> SpectrumSampler:
    """A ``cls`` sampler of one piece, or with ``mult`` = ``_EDGES`` one over both edges."""
    if mult != _EDGES:
        return cls(kind, DegeneracyType(mult), seed=seed)
    sampler = cls(kind, DegeneracyType(_EDGES[0]), seed=seed)
    sampler._cover(_EDGES)
    return sampler


def _assert_lookup_exact(cdf: np.ndarray, x: np.ndarray) -> None:
    assert np.array_equal(_cell_lookup(_guide_table(cdf), x), np.searchsorted(cdf, x))


def _edge_points(cdf: np.ndarray) -> np.ndarray:
    """Every cdf entry, its two floating-point neighbours and the total."""
    return np.concatenate([cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf), cdf[-1:]])


class TestCellLookup:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", ALL_MULTS)
    def test_matches_binary_search_on_envelope_tables(self, kind, mult):
        cdf = np.cumsum(_envelope_table(kind, mult))
        x = (1.0 - np.random.default_rng(3).random(100_000)) * cdf[-1]
        _assert_lookup_exact(cdf, x)
        _assert_lookup_exact(cdf, _edge_points(cdf))

    def test_skips_runs_of_empty_cells(self):
        bound = np.random.default_rng(4).random(300)
        empty = np.zeros(300, dtype=bool)
        for lo, hi in ((0, 1), (10, 40), (41, 42), (100, 160), (290, 300)):
            empty[lo:hi] = True
        bound[empty] = 0.0
        cdf = np.cumsum(bound)
        x = (1.0 - np.random.default_rng(5).random(100_000)) * cdf[-1]
        _assert_lookup_exact(cdf, x)
        _assert_lookup_exact(cdf, _edge_points(cdf))
        inside = _edge_points(cdf)
        inside = inside[(inside > 0.0) & (inside <= cdf[-1])]
        assert not empty[_cell_lookup(_guide_table(cdf), np.concatenate([x, inside]))].any()

    def test_resolves_a_crowded_bucket(self):
        # 100 tiny positive bounds put 100 cells into one guide bucket, so a
        # proposal there can lie far more than one step from its bucket's entry
        bound = np.random.default_rng(6).random(300)
        bound[100:200] = 1e-9
        cdf = np.cumsum(bound)
        guide, scale = _guide_table(cdf)[:2]
        bucket = math.floor(cdf[100] * scale)
        assert math.floor(cdf[199] * scale) == bucket
        u = np.random.default_rng(7).random((2, SpectrumSampler._TILE // 2))
        x = np.concatenate([(bucket + u[0]) / scale, cdf[99] + u[1] * (cdf[199] - cdf[99])])
        expected = np.searchsorted(cdf, x)
        assert np.max(np.abs(expected - guide[bucket])) > 50
        _assert_lookup_exact(cdf, x)
        _assert_lookup_exact(cdf, _edge_points(cdf))


class TestWeightBits:
    """The chart and the densities keep the bits of 0.2.8.

    ``_ReferenceSampler`` shares the package's weight, so only this pins it.
    """

    @staticmethod
    def _box_points():
        """1e5 random points of the box, its edges, and points near t = 1 and phi = 0.

        Near t = 1 and phi = 0 the eigenvalues nearly coincide, where the
        BKM series branch of ``_mc_vec`` runs.
        """
        t, phi = np.random.default_rng(12).random((2, 100_000))
        phi *= math.pi
        edge_t, edge_phi = np.linspace(0.0, 1.0, 65), np.linspace(0.0, math.pi, 65)
        ones, near = np.ones(65), np.logspace(-9.0, -3.0, 65)
        t = np.concatenate([t, 0.0 * ones, ones, edge_t, edge_t, 1.0 - near, edge_t])
        phi = np.concatenate([phi, edge_phi, edge_phi, 0.0 * ones, math.pi * ones, edge_phi, near])
        return t, phi

    @staticmethod
    def _weights(kind: EnsembleKind, t, phi):
        spectra, area = ensembles._regular_chart(t, phi)
        out = [*spectra, area, ensembles._density3_vec(kind, *spectra)]
        w, spectra = ensembles._regular_weight_qutrit(kind, t, phi)
        out += [w, *spectra]
        for mult, (top, kk, _) in ensembles._LINES.items():
            big, *_, small = ensembles._line_spectrum(mult, top * t ** 4)
            out.append(ensembles._density_pair_vec(kind, big, small, kk))
        return out

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_weights_match_the_028_kernels(self, monkeypatch, kind):
        t, phi = self._box_points()
        new = self._weights(kind, t, phi)
        for name, kernel in (("_regular_chart", _regular_chart_028), ("_mc_vec", _mc_vec_028),
                             ("_density3_vec", _density3_vec_028), ("_density_pair_vec", _density_pair_vec_028)):
            monkeypatch.setattr(ensembles, name, kernel)
        old = self._weights(kind, t, phi)
        for a, b in zip(new, old, strict=True):
            assert np.array_equal(a, b, equal_nan=True)


class TestMaskedWeightBits:
    """Both weights keep the bits of the ``_032`` copies on their fast path (no off-simplex row) and their masked path.

    The interior points of ``TestWeightBits._box_points`` have no such row;
    its box edges and the chart ends t = 0 and t = 1 of a line piece do.
    """

    @staticmethod
    def _assert_same(new, old):
        (w, spectra), (w_old, spectra_old) = new, old
        for a, b in zip((w, *spectra), (w_old, *spectra_old), strict=True):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("part", ["interior", "edges"])
    def test_regular_weight_matches_032(self, kind, part):
        t, phi = TestWeightBits._box_points()
        cut = slice(None, 100_000) if part == "interior" else slice(100_000, None)
        t, phi = t[cut], phi[cut]
        (r1, r2, r3), _ = _regular_chart_028(t, phi)
        assert ((r1 <= r2) | (r2 <= r3) | (t <= 0.0)).any() == (part == "edges")
        self._assert_same(ensembles._regular_weight_qutrit(kind, t, phi), _regular_weight_qutrit_032(kind, t, phi))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", [(1, 1), (2, 1), (1, 2), _EDGES])
    @pytest.mark.parametrize("part", ["interior", "edges"])
    def test_line_weight_matches_032(self, kind, mult, part):
        rng = np.random.default_rng(13)
        t = rng.random(100_000) if part == "interior" else np.linspace(0.0, 1.0, 65)
        edge = (rng.random(t.size) < 0.5).astype(float) if mult == _EDGES else None
        assert ((t <= 0.0) | (t >= 1.0)).any() == (part == "edges")
        self._assert_same(ensembles._line_weight(kind, mult, t, edge), _line_weight_032(kind, mult, t, edge))


def _read_only(*arrays) -> list[np.ndarray]:
    """Read-only copies of ``arrays``."""
    copies = [np.array(a) for a in arrays]
    for a in copies:
        a.flags.writeable = False
    return copies


def _leaves(value) -> list:
    """The arrays of a kernel's output, nested tuples flattened in order."""
    if isinstance(value, (tuple, list)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


class TestKernelsKeepTheirInputs:
    """The tile kernels work in place on their own arrays only.

    Each runs on read-only inputs, where a write into an input raises, and
    must return the bits it returns on writeable copies: at a tile's 1-D
    shape and at quadrature's (145, 1) x (128,) broadcast of the chart.
    The line weight and the cell lookup take one 1-D axis in both uses.
    """

    @staticmethod
    def _calls(kind: EnsembleKind, shape: str):
        """(kernel, input arrays, call) for every tile kernel at one shape."""
        rng = np.random.default_rng(19)
        if shape == "tile":
            t, phi = rng.random((2, SpectrumSampler._TILE))
            phi *= math.pi
        else:
            t, phi = np.linspace(0.0, 1.0, 128) ** 4, math.pi * rng.random((145, 1))
        (r1, r2, r3), _ = ensembles._regular_chart(t, phi)
        logs = ensembles._logs(EnsembleKind.BKM, r1, r2)
        line_t = rng.random(SpectrumSampler._TILE) if shape == "tile" else indicators._RAY_X ** 4
        edge = (rng.random(line_t.size) < 0.5).astype(float)
        cdf = np.cumsum(_envelope_table(kind, (1, 1, 1)))
        guide, scale, above, below = _guide_table(cdf)
        x = (1.0 - rng.random(SpectrumSampler._TILE)) * cdf[-1]
        kernel = sw_spectrum_qutrit(0.3).as_array()
        return [
            ("_regular_chart", (t, phi), ensembles._regular_chart),
            ("_regular_weight_qutrit", (t, phi), lambda *a: ensembles._regular_weight_qutrit(kind, *a)),
            ("_line_weight", (line_t, edge), lambda t, e: ensembles._line_weight(kind, _EDGES, t, e)),
            ("_line_weight", (line_t,), lambda t: ensembles._line_weight(kind, (1, 1), t)),
            ("_density3_vec", (r1, r2, r3), lambda *a: _density3_vec(kind, *a)),
            ("_density_pair_vec", (r1, r3), lambda *a: _density_pair_vec(kind, *a, 2)),
            ("_mc_vec", (r1, r2, r1 - r2, *logs), lambda *a: ensembles._mc_vec(kind, *a)),
            ("_cell_lookup", (guide, above, below, x), lambda g, a, b, x: _cell_lookup((g, scale, a, b), x)),
            ("_dual_pairing", (r1, r2, r3, kernel), lambda *a: _dual_pairing(a[:3], a[3])),
        ]

    @pytest.mark.parametrize("shape", ["tile", "quadrature"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_read_only_inputs_give_the_same_bits(self, kind, shape):
        for name, args, call in self._calls(kind, shape):
            expected = _leaves(call(*[np.array(a) for a in args]))
            got = _leaves(call(*_read_only(*args)))
            assert len(got) == len(expected), name
            for a, b in zip(got, expected):
                assert np.array_equal(a, b, equal_nan=True), name


class TestProposalLoop:
    """The guide-table lookup and the weight tiles leave every output bit of 0.2.4."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", ALL_MULTS + (_EDGES,))
    def test_same_stream_as_whole_batch_loop(self, kind, mult):
        new = _sampler(SpectrumSampler, kind, mult, seed=17)
        old = _sampler(_ReferenceSampler, kind, mult, seed=17)
        assert np.array_equal(new.sample(300_000), old.sample(300_000))
        assert (new._proposed, new._accepted) == (old._proposed, old._accepted)

    @pytest.mark.parametrize("tile", [1, 7, 1 << 18])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", ALL_MULTS + (_EDGES,))
    def test_tile_size_does_not_change_output(self, monkeypatch, tile, kind, mult):
        expected = _sampler(_ReferenceSampler, kind, mult, seed=23).sample(5000)
        monkeypatch.setattr(SpectrumSampler, "_TILE", tile)
        assert np.array_equal(_sampler(SpectrumSampler, kind, mult, seed=23).sample(5000), expected)

    def test_overflow_names_the_batch_worst_offender(self, monkeypatch):
        messages = []
        monkeypatch.setattr(SpectrumSampler, "_TILE", 1000)
        for cls in (SpectrumSampler, _ReferenceSampler):
            sampler = cls(EnsembleKind.BURES, DegeneracyType((1, 1, 1)), seed=5)
            sampler._envelope *= np.random.default_rng(6).uniform(0.93, 0.95, sampler._envelope.size)
            with pytest.raises(SamplerFailureError, match="envelope cell bound") as err:
                sampler.sample(200_000)
            assert sampler._proposed == 0
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        # the same batch fails a Monte Carlo hit count before any of its tiles is paired
        table = ensembles._envelope_table
        scale = np.random.default_rng(6).uniform(0.93, 0.95, table(EnsembleKind.BURES, (1, 1, 1)).size)
        monkeypatch.setattr(ensembles, "_envelope_table", lambda kind, mult: table(kind, mult) * scale)
        paired = []
        monkeypatch.setattr(indicators, "_is_classical", lambda columns, kernel: paired.append(columns))
        with pytest.raises(SamplerFailureError, match="envelope cell bound") as err:
            _mc_chunk_hits(EnsembleKind.BURES, REGULAR_QUTRIT, _kernels(REGULAR_QUTRIT, 1), 200_000, 5)
        assert str(err.value) == messages[0]
        assert paired == []

    def test_lookup_follows_the_current_envelope(self):
        # hs qubit: cell i of 256 covers t in [i, i + 1] / 256 of the chart
        # y = t^4 / 2, and the smaller eigenvalue is y itself
        sampler = SpectrumSampler(EnsembleKind.HILBERT_SCHMIDT, DegeneracyType((1, 1)), seed=8)

        def y_at(i):
            return 0.5 * (i / 256) ** 4

        sampler._envelope[100:150] = 0.0
        y = sampler.sample(50_000)[:, 1]
        assert not np.any((y > y_at(100) + 1e-12) & (y < y_at(150) - 1e-12))
        assert np.any((y > y_at(90)) & (y < y_at(100)))
        assert np.any((y > y_at(150)) & (y < y_at(160)))


def _nbytes(tiles) -> int:
    """Bytes of the accepted spectrum columns of a batch, as ``_draw`` returns them."""
    return sum(column.nbytes for columns in tiles for column in columns)


def _traced_peak(call) -> int:
    """The ``tracemalloc`` peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDrawMemory:
    """A batch holds its uniforms and its accepted columns; every other array spans one tile."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", [(1, 1, 1), (1, 1), _EDGES], ids=["regular", "qubit", "edges"])
    def test_batch_peak_is_uniforms_and_rows(self, kind, mult):
        sampler = _sampler(SpectrumSampler, kind, mult, seed=31)
        m = 1 << 18
        tiles = []
        peak = _traced_peak(lambda: tiles.extend(sampler._draw(m)))
        uniforms = (len(sampler._box) + 2) * 8 * m
        assert peak < uniforms + 2 * _nbytes(tiles) + (4 << 20)

    @pytest.mark.parametrize("angles", [1, 61])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", [(1, 1, 1), (1, 1), _EDGES], ids=["regular", "qubit", "edges"])
    def test_chunk_hit_count_holds_one_batch(self, kind, mult, angles):
        m = 1 << 18
        # a chunk's first batch proposes m points, since no acceptance is known yet
        sampler = _sampler(SpectrumSampler, kind, mult, seed=31)
        accepted = _nbytes(sampler._draw(m))
        stratum = _STRATA[mult]
        kernels = _kernels(stratum, angles)
        # the kernels of a whole curve pair with each tile in turn, so none adds a batch
        peak = _traced_peak(lambda: _mc_chunk_hits(kind, stratum, kernels, m, 31))
        uniforms = (len(sampler._box) + 2) * 8 * m
        assert peak < uniforms + accepted + (4 << 20)


#: The stratum whose Monte Carlo cells draw from each ``_sampler`` route.
_STRATA = {(1, 1): QUBIT_STRATUM, (1, 1, 1): REGULAR_QUTRIT, _EDGES: DEGENERATE_QUTRIT}


def _kernels(stratum, angles: int) -> np.ndarray:
    """Kernel rows of ``angles`` Monte Carlo cells, from zeta = 0 on a qutrit stratum, where the classical share is largest."""
    if stratum.n == 2:
        return np.tile(sw_spectrum_qubit().as_array(), (angles, 1))
    return np.array([sw_spectrum_qutrit(z).values for z in np.linspace(0.0, ZETA_MAX, angles)])


class TestTileStream:
    """Monte Carlo counts hits on the accepted tiles that ``sample`` and ``stratum_spectra`` write as rows."""

    @pytest.mark.parametrize("tile,chunk", [(None, None), (1, 256), (7, 256)])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", [(1, 1), (1, 1, 1), _EDGES], ids=["qubit", "regular", "edges"])
    def test_hit_count_matches_rows(self, monkeypatch, tile, chunk, kind, mult):
        # a tile of 1 or 7 rows runs each batch in many Python steps, so it
        # runs with a smaller block to keep every count below
        if tile is not None:
            monkeypatch.setattr(SpectrumSampler, "_TILE", tile)
            monkeypatch.setattr(SpectrumSampler, "_CHUNK", chunk)
        samplers = []
        tiles = SpectrumSampler._tiles

        def spy(self, n):
            samplers.append(self)
            return tiles(self, n)

        monkeypatch.setattr(SpectrumSampler, "_tiles", spy)
        stratum = _STRATA[mult]
        kernel = (sw_spectrum_qubit() if stratum.n == 2 else sw_spectrum_qutrit(0.0)).as_array()
        t, c = SpectrumSampler._TILE, SpectrumSampler._CHUNK
        for n in (0, 1, t - 1, t + 1, c + 1, 2 * c + 7):
            samplers.clear()
            hits = _mc_chunk_hits(kind, stratum, _kernels(stratum, 1), n, 43)
            rows = np.concatenate([np.empty((0, stratum.n))]
                                  + list(stratum_spectra(kind, stratum, n, np.random.default_rng(43))))
            reference = _sampler(_ReferenceSampler, kind, mult, seed=43)
            assert np.array_equal(rows, reference.sample(n))
            assert hits == [np.count_nonzero(_is_classical(rows.T, kernel))]
            # the hit count's sampler comes first, then those of the rows
            assert samplers[0] not in samplers[1:]
            assert {(s._proposed, s._accepted) for s in samplers} == {(reference._proposed, reference._accepted)}


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mult", [(1, 1), (1, 1, 1), (2, 1), (1, 2)])
def test_rejection_acceptance(kind, mult):
    sampler = SpectrumSampler(kind, DegeneracyType(mult), seed=41)
    sampler.sample(1_000_000)
    assert sampler._proposed >= 1_000_000
    assert sampler.acceptance_rate >= 0.7


class TestQubitRadialMoment:
    def test_hs_mean_bloch_radius(self):
        # the radial density r^2 on [0, 1] has mean 3/4
        eigs = SpectrumSampler(EnsembleKind.HILBERT_SCHMIDT, DegeneracyType((1, 1)), seed=123).sample(1_000_000)
        r = eigs[:, 0] - eigs[:, 1]
        std = math.sqrt(3.0 / 5.0 - 9.0 / 16.0)
        assert abs(r.mean() - 0.75) <= 3.0 * std / math.sqrt(r.size)


# ---------------------------------------------------------------------------
# distributional agreement: sampler versus quadrature-normalized density
# ---------------------------------------------------------------------------

def _merged_pvalue(counts: np.ndarray, probs: np.ndarray) -> float:
    """Chi-square p-value after merging bins with expectation below 10."""
    n = counts.sum()
    expected = probs / probs.sum() * n
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 10.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    obs_m = np.asarray(obs_m)
    exp_m = np.asarray(exp_m) * (obs_m.sum() / np.sum(exp_m))
    return chisquare(obs_m, exp_m).pvalue


def _density(kind: EnsembleKind, mult: tuple, r: tuple) -> float:
    """Scalar joint density, zero where a monotone density leaves the simplex."""
    if kind is not EnsembleKind.HILBERT_SCHMIDT and min(r) <= 0.0:
        return 0.0
    return joint_density(kind, DegeneracyType(mult), r, validate=False)


def _qubit_bin_probs(kind: EnsembleKind, edges: np.ndarray) -> np.ndarray:
    """Bloch-radius bin masses, integrated in the substituted variable."""
    k = SUB_POWER[kind]

    def integrand(u):
        small = u ** k
        jac = 2.0 * k * u ** (k - 1) if k > 1 else 2.0
        return _density(kind, (1, 1), (1.0 - small, small)) * jac

    def u_of(r):
        return ((1.0 - r) / 2.0) ** (1.0 / k)

    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        val = quad(integrand, u_of(b), u_of(a), epsabs=1e-14, epsrel=1e-10, limit=200)[0]
        out.append(val)
    return np.asarray(out)


def _regular3_bin_probs(kind: EnsembleKind, edges: np.ndarray) -> np.ndarray:
    """Largest-eigenvalue marginal bin masses for the regular qutrit stratum."""
    def f3(r1, r2, r3):
        return _density(kind, (1, 1, 1), (r1, r2, r3))

    def f(r1, r2):
        return f3(r1, r2, 1.0 - r1 - r2)

    k = SUB_POWER[kind]

    def strip(r1):
        lo = (1.0 - r1) / 2.0
        if r1 <= 0.5:
            return quad(lambda r2: f(r1, r2), lo, r1, epsabs=1e-14, epsrel=1e-8, limit=200)[0]
        hi = 1.0 - r1
        if hi <= lo:
            return 0.0
        if kind is EnsembleKind.HILBERT_SCHMIDT:
            return quad(lambda r2: f(r1, r2), lo, hi, epsabs=1e-14, epsrel=1e-8, limit=200)[0]
        tmax = (hi - lo) ** (1.0 / k)
        return quad(lambda t: f3(r1, hi - t ** k, t ** k) * k * t ** (k - 1), 0.0, tmax,
                    epsabs=1e-13, epsrel=1e-8, limit=300)[0]

    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        pieces = []
        if a < 0.5 < b:
            pieces = [(a, 0.5), (0.5, b)]
        else:
            pieces = [(a, b)]
        total = 0.0
        for lo, hi in pieces:
            total += quad(strip, lo, hi, epsabs=1e-14, epsrel=1e-7, limit=200)[0]
        out.append(total)
    return np.asarray(out)


def _edge_bin_probs(kind: EnsembleKind, comp: tuple[int, int], edges: np.ndarray) -> np.ndarray:
    """Small-eigenvalue bin masses on a degenerate edge."""
    k = SUB_POWER[kind]

    def big_of(y):
        return (1.0 - y) / 2.0 if comp == (2, 1) else 1.0 - 2.0 * y

    def integrand(u):
        y = u ** k
        jac = k * u ** (k - 1) if k > 1 else 1.0
        return _density(kind, comp, (big_of(y), y)) * jac

    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        val = quad(integrand, a ** (1.0 / k), b ** (1.0 / k), epsabs=1e-14, epsrel=1e-10, limit=200)[0]
        out.append(val)
    return np.asarray(out)


N_CHI = 1_000_000
N_BINS = 50
ALPHA = 1e-3


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_chisquare_qubit(kind):
    eigs = SpectrumSampler(kind, DegeneracyType((1, 1)), seed=2024).sample(N_CHI)
    r = eigs[:, 0] - eigs[:, 1]
    edges = np.linspace(0.0, 1.0, N_BINS + 1)
    counts, _ = np.histogram(r, bins=edges)
    probs = _qubit_bin_probs(kind, edges)
    assert _merged_pvalue(counts, probs) >= ALPHA


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_chisquare_regular_qutrit(kind):
    eigs = SpectrumSampler(kind, DegeneracyType((1, 1, 1)), seed=2025).sample(N_CHI)
    edges = np.linspace(1.0 / 3.0, 1.0, N_BINS + 1)
    counts, _ = np.histogram(eigs[:, 0], bins=edges)
    probs = _regular3_bin_probs(kind, edges)
    assert _merged_pvalue(counts, probs) >= ALPHA


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("comp", [(2, 1), (1, 2)])
def test_chisquare_degenerate_edges(kind, comp):
    eigs = SpectrumSampler(kind, DegeneracyType(comp), seed=2026).sample(N_CHI)
    y = eigs[:, 2]
    edges = np.linspace(0.0, 1.0 / 3.0, N_BINS + 1)
    counts, _ = np.histogram(y, bins=edges)
    probs = _edge_bin_probs(kind, comp, edges)
    assert _merged_pvalue(counts, probs) >= ALPHA


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("comp", [(2, 1), (1, 2)])
def test_chisquare_degenerate_union(kind, comp):
    # the degenerate stratum's one sampler over both edges, conditioned on each edge
    eigs = np.concatenate(list(stratum_spectra(kind, DEGENERATE_QUTRIT, N_CHI, np.random.default_rng(2026))))
    doubled = (0, 1) if comp == (2, 1) else (1, 2)
    y = eigs[eigs[:, doubled[0]] == eigs[:, doubled[1]], 2]
    edges = np.linspace(0.0, 1.0 / 3.0, N_BINS + 1)
    counts, _ = np.histogram(y, bins=edges)
    probs = _edge_bin_probs(kind, comp, edges)
    assert _merged_pvalue(counts, probs) >= ALPHA


class TestConstructionVersusRejection:
    def test_hs_ginibre_matches_rejection(self):
        n = 100_000
        a = ginibre_spectra(np.random.default_rng(31), n)
        b = SpectrumSampler(
            EnsembleKind.HILBERT_SCHMIDT, DegeneracyType((1, 1, 1)), seed=32
        ).sample(n)
        assert ks_2samp(a[:, 0], b[:, 0]).pvalue >= ALPHA

    def test_bures_construction_matches_rejection(self):
        n = 100_000
        a = bures_spectra(np.random.default_rng(33), n)
        b = SpectrumSampler(
            EnsembleKind.BURES, DegeneracyType((1, 1, 1)), seed=34
        ).sample(n)
        assert ks_2samp(a[:, 0], b[:, 0]).pvalue >= ALPHA


def test_hs_qutrit_classical_fraction_large_sample():
    # classical fraction at the symmetric kernel angle, 1e7 draws
    from wigner_classicality.wigner import sw_spectrum_qutrit

    sampler = SpectrumSampler(EnsembleKind.HILBERT_SCHMIDT, DegeneracyType((1, 1, 1)), seed=77)
    kernel = sw_spectrum_qutrit(math.pi / 6.0).as_array()[::-1]
    n = 10_000_000
    hits = 0
    done = 0
    while done < n:
        m = min(1_000_000, n - done)
        eigs = sampler.sample(m)
        hits += int(np.count_nonzero(eigs @ kernel >= 0.0))
        done += m
    q_ref = 21.0 / 31104.0
    sigma = math.sqrt(q_ref * (1.0 - q_ref) / n)
    assert abs(hits / n - q_ref) <= 3.0 * sigma
