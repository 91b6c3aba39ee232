"""Tests for the joint eigenvalue densities and the seeded samplers.

The distributional tests pin the samplers against the quadrature-normalized
densities (chi-square on a 50-bin marginal grid at the 0.001 level) and the
matrix models of ``matrix_models`` against the rejection route (two-sample KS).
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import chisquare, ks_2samp

from kernel_copies import (
    _density3_vec_028,
    _density3_vec_034,
    _density_pair_vec_033,
    _density_pair_vec_037,
    _line_spectrum_032,
    _line_weight_033,
    _logs,
    _mc_vec_028,
    _regular_chart_028,
    _regular_chart_034,
)
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
        # the array kernels take arrays only: each point is a 1-element array
        rng = np.random.default_rng(3)
        reg = DegeneracyType((1, 1, 1))
        for kind in ALL_KINDS:
            for _ in range(50):
                r2 = rng.uniform(0.05, 0.32)
                r1 = rng.uniform(max(r2, 1 - r2 - r2) + 1e-3, 1 - r2 - 1e-3)
                r3 = 1 - r1 - r2
                if not r1 > r2 > r3 > 0:
                    continue
                assert _density3_vec(kind, *(np.array([r]) for r in (r1, r2, r3)))[0] == pytest.approx(
                    joint_density(kind, reg, (r1, r2, r3)), rel=1e-12)
            for comp in ((2, 1), (1, 2)):
                for _ in range(50):
                    y = rng.uniform(0.01, 0.32)
                    big = (1 - y) / 2 if comp == (2, 1) else 1 - 2 * y
                    assert _density_pair_vec(kind, np.array([big]), np.array([y]), 2)[0] == pytest.approx(
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
        cells = _TABLE_CELLS[self._dim]
        lead = (len(self._pieces),) if len(self._pieces) > 1 else ()
        index = np.unravel_index(cell, lead + (cells,) * self._dim)
        coords = [(i + self.rng.random(m)) * (1.0 / cells) for i in index[len(lead):]]
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


def _density_pair_vec_028(kind: EnsembleKind, big, small, kk: int):
    """``ensembles._density_pair_vec`` of version 0.2.8."""
    v = (big - small) ** (2 * kk)
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        return v
    with np.errstate(divide="ignore", invalid="ignore"):
        lb, ls = _logs(kind, big, small)
        return v * _mc_vec_028(kind, big, small, lb, ls) ** kk / np.sqrt(big * small)


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


def _regular_weight_qutrit_034(kind: EnsembleKind, t, q):
    """``ensembles._regular_weight_qutrit`` of version 0.3.4 (``np.where`` on every tile), in (t, q)."""
    (r1, r2, r3), area = _regular_chart_034(t, q)
    bad = (r1 <= r2) | (r2 <= r3) | (t <= 0.0)
    r1s = np.where(bad, 0.5, r1)
    r2s = np.where(bad, 0.3, r2)
    r3s = np.where(bad, 0.2, r3)
    val = _density3_vec_034(kind, r1s, r2s, r3s) * area
    total = r1 + r2 + r3
    return np.where(bad, 0.0, val), (r1 / total, r2 / total, r3 / total)


def _accepted_rows(weight, t, q, renormalise=True):
    """A regular weight's (weight, spectra), with the spectra of the points that the sampler can accept.

    Those are the points on the open simplex, and ``_tiles`` renormalises
    their rows (``ensembles._renormalise``); the other points have weight 0
    and placeholder spectra.  A copy that renormalised every point takes
    ``renormalise=False``.
    """
    w, spectra = weight
    (r1, r2, r3), _ = ensembles._regular_chart(t, q)
    inside = ~((r1 <= r2) | (r2 <= r3) | (t <= 0.0))
    rows = tuple(c[inside] for c in spectra)
    if renormalise:
        ensembles._renormalise(rows)
    return w, rows


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


def _bucket_edges(cdf: np.ndarray) -> np.ndarray:
    """Every guide bucket's lower edge fl(k / scale) and its two floating-point neighbours in [0, total], and the total."""
    guide, scale = _guide_table(cdf)[:2]
    edges = np.arange(guide.size) / scale
    x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), cdf[-1:]])
    return x[(x >= 0.0) & (x <= cdf[-1])]


class TestGuideBucketEdges:
    """At the bucket edges, where a start is decided, the lookup is search-left's and no start lies above it."""

    @staticmethod
    def _tables():
        for kind in ALL_KINDS:
            for mult in ALL_MULTS:
                yield np.cumsum(_envelope_table(kind, mult))
            yield np.cumsum(np.concatenate([_envelope_table(kind, mult) for mult in _EDGES]))

    @staticmethod
    def _assert_starts_not_above(cdf: np.ndarray) -> None:
        guide, scale, _ = table = _guide_table(cdf)
        x = _bucket_edges(cdf)
        expected = np.searchsorted(cdf, x)
        assert np.array_equal(_cell_lookup(table, x), expected)
        assert np.all(guide[(x * scale).astype(np.intp)] <= expected)

    def test_every_envelope_table(self):
        for cdf in self._tables():
            self._assert_starts_not_above(cdf)

    def test_entries_just_below_the_bucket_edges(self):
        # x = nextafter(k / scale, 0) with fl(x scale) = k lies in bucket k but
        # below its edge; with an entry at such an x, an unlowered edge's
        # search-left start would lie one above the answer
        n = 100
        buckets = ensembles._GUIDE_PER_CELL * n
        k = np.arange(1, buckets)
        low = np.nextafter(k / float(buckets), 0.0)
        low = low[(low * buckets).astype(np.intp) == k]
        assert 10 <= low.size < n
        cdf = np.sort(np.concatenate([low, np.linspace(0.0, 1.0, n - low.size + 1)[1:]]))
        assert cdf[-1] == 1.0 and _guide_table(cdf)[1] == buckets
        self._assert_starts_not_above(cdf)


class TestWeightBits:
    """The chart and the densities keep the bits of their 0.3.4 copies, the pair density those of 0.3.7.

    ``_ReferenceSampler`` shares the package's weight, so only this pins
    it.  The regular chart and density also stay within a few ulp of 0.2.8's
    in (t, phi), the chart of every version up to 0.3.3.
    """

    @staticmethod
    def _box_points():
        """1e5 random points of the (t, q) box, its edges, and points near t = 1 and q = 0.

        Near t = 1 and q = 0 the eigenvalues nearly coincide, where the
        BKM series branch runs.
        """
        t, q = np.random.default_rng(12).random((2, 100_000))
        edge = np.linspace(0.0, 1.0, 65)
        ones, near = np.ones(65), np.logspace(-9.0, -3.0, 65)
        t = np.concatenate([t, 0.0 * ones, ones, edge, edge, 1.0 - near, edge])
        q = np.concatenate([q, edge, edge, 0.0 * ones, ones, edge, near])
        return t, q

    @staticmethod
    def _weights(kind: EnsembleKind, t, q):
        spectra, area = ensembles._regular_chart(t, q)
        out = [*spectra, area, ensembles._density3_vec(kind, *spectra)]
        w, spectra = ensembles._regular_weight_qutrit(kind, t, q)
        out += [w, *spectra]
        for mult, (top, kk, _) in ensembles._LINES.items():
            big, *_, small = ensembles._line_spectrum(mult, top * t ** 4)
            out.append(ensembles._density_pair_vec(kind, big, small, kk))
        return out

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_weights_match_the_034_kernels(self, monkeypatch, kind):
        t, q = self._box_points()
        new = self._weights(kind, t, q)
        for name, kernel in (("_regular_chart", _regular_chart_034), ("_density3_vec", _density3_vec_034),
                             ("_density_pair_vec", _density_pair_vec_037)):
            monkeypatch.setattr(ensembles, name, kernel)
        old = self._weights(kind, t, q)
        for a, b in zip(new, old, strict=True):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_regular_weight_near_the_028_kernels(self, kind):
        """At q = tan(phi/3)/sqrt3 the spectra are 0.2.8's bit for bit; area, density and weight lie within 3e-15.

        The area element per dt dq times dq/dphi = (1 + 3 q^2) / (3 sqrt3)
        is 0.2.8's per dt dphi, and so is the weight.  Measured: 5.6e-16,
        7.8e-16 and 1.2e-15 relative at most.
        """
        t, q = self._box_points()
        phi = 3.0 * np.arctan(SQRT3 * q)
        q = np.tan(phi / 3.0) / SQRT3  # as 0.2.8's chart formed it
        dq_dphi = (1.0 + 3.0 * q * q) / (3.0 * SQRT3)
        spectra, area = ensembles._regular_chart(t, q)
        spectra_old, area_old = _regular_chart_028(t, phi)
        for a, b in zip(spectra, spectra_old, strict=True):
            assert np.array_equal(a, b)
        np.testing.assert_allclose(area * dq_dphi, area_old, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(_density3_vec(kind, *spectra), _density3_vec_028(kind, *spectra),
                                   rtol=2e-15, atol=0.0)
        (w, spectra), (w_old, spectra_old) = (_accepted_rows(ensembles._regular_weight_qutrit(kind, t, q), t, q),
                                              _accepted_rows(_regular_weight_qutrit_032(kind, t, phi), t, q,
                                                             renormalise=False))
        np.testing.assert_allclose(w * dq_dphi, w_old, rtol=3e-15, atol=0.0)
        for a, b in zip(spectra, spectra_old, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pair_density_within_4_ulp_of_028(self, kind):
        # (big - small)^4 as a product of squares, against 0.2.8's ``** 4``
        t, _ = self._box_points()
        for mult, (top, kk, _) in ensembles._LINES.items():
            big, *_, small = ensembles._line_spectrum(mult, top * t ** 4)
            np.testing.assert_allclose(_density_pair_vec(kind, big, small, kk),
                                       _density_pair_vec_028(kind, big, small, kk), rtol=1e-15, atol=0.0)


class TestMaskedWeightBits:
    """Both weights keep the bits of their ``np.where`` copies on their fast path (no off-simplex row) and their masked path.

    The regular weight keeps those of ``_regular_weight_qutrit_034``, its
    spectra on the rows the sampler can accept (``_accepted_rows``), the
    line weight those of ``_line_weight_033`` on the pair density of 0.3.7,
    whose HS and Bures bits are 0.3.3's.  The interior points of
    ``TestWeightBits._box_points`` have no such row; its box edges and the
    chart ends t = 0 and t = 1 of a line piece do.
    """

    @staticmethod
    def _line_points(mult, part):
        """Chart points of a line piece, and with ``mult`` = ``_EDGES`` each point's edge."""
        rng = np.random.default_rng(13)
        t = rng.random(100_000) if part == "interior" else np.linspace(0.0, 1.0, 65)
        edge = (rng.random(t.size) < 0.5).astype(float) if mult == _EDGES else None
        assert ((t <= 0.0) | (t >= 1.0)).any() == (part == "edges")
        return t, edge

    @staticmethod
    def _assert_same(new, old):
        (w, spectra), (w_old, spectra_old) = new, old
        for a, b in zip((w, *spectra), (w_old, *spectra_old), strict=True):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("part", ["interior", "edges"])
    def test_regular_weight_matches_034(self, kind, part):
        t, q = TestWeightBits._box_points()
        cut = slice(None, 100_000) if part == "interior" else slice(100_000, None)
        t, q = t[cut], q[cut]
        (r1, r2, r3), _ = _regular_chart_034(t, q)
        assert ((r1 <= r2) | (r2 <= r3) | (t <= 0.0)).any() == (part == "edges")
        self._assert_same(_accepted_rows(ensembles._regular_weight_qutrit(kind, t, q), t, q),
                          _accepted_rows(_regular_weight_qutrit_034(kind, t, q), t, q, renormalise=False))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", [(1, 1), (2, 1), (1, 2), _EDGES])
    @pytest.mark.parametrize("part", ["interior", "edges"])
    def test_line_weight_matches_033(self, kind, mult, part):
        t, edge = self._line_points(mult, part)
        self._assert_same(ensembles._line_weight(kind, mult, t, edge),
                          _line_weight_033(kind, mult, t, edge, pair=_density_pair_vec_037))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mult", [(1, 1), (2, 1), (1, 2), _EDGES])
    @pytest.mark.parametrize("part", ["interior", "edges"])
    def test_line_weight_matches_032(self, kind, mult, part):
        """Within 4 ulp (relative 1e-15) of 0.3.2's ``** 4`` and ``** 3``: the spectra, and the weight where y agrees.

        Where the products move y = top t^4, by an ulp or two, the weight at
        the same t moves by what that does to (big - small)^(2 kk), which
        cancels near the top of the chart: up to 2.6e-12 relative at the
        interior points.  So the weight is held to 1e-15 where
        ``t ** 4 == (t * t) * (t * t)``, about half of the interior points.
        """
        t, edge = self._line_points(mult, part)
        w, spectra = ensembles._line_weight(kind, mult, t, edge)
        w_old, spectra_old = _line_weight_032(kind, mult, t, edge)
        for a, b in zip(spectra, spectra_old, strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)
        same_y = t ** 4 == (t * t) * (t * t)
        assert same_y.mean() > 0.3
        np.testing.assert_allclose(w[same_y], w_old[same_y], rtol=1e-15, atol=0.0)


class TestSeriesCutoff:
    """The BKM pair density takes the series exactly where its plain 0.3.7 copy does, a few ulp either side of the cutoff.

    The copy takes the series on every row with |e| = |x - y| / (x + y)
    <= ``BKM_SERIES_CUTOFF``, as 0.2.8's ``_mc_vec`` did; the kernel tries
    it on the candidate rows of its bound only.  Both pair powers and both
    signs of x - y are checked.
    """

    @staticmethod
    def _pairs():
        """Pairs with x + y over (0, 1], both signs of x - y and |d| near ``BKM_SERIES_CUTOFF``, and their d."""
        rng = np.random.default_rng(29)
        n = 1_000_000
        s = (1.0 - rng.random(n)) ** 3
        d0 = ensembles.BKM_SERIES_CUTOFF * (1.0 + rng.uniform(-4e-12, 4e-12, n))
        d0 *= np.where(rng.random(n) < 0.5, -1.0, 1.0)
        x, y = s * (1.0 + d0) / 2.0, s * (1.0 - d0) / 2.0
        return x, y, (x - y) / (x + y)

    @pytest.mark.parametrize("kk", [1, 2])
    def test_matches_the_plain_copy_around_the_cutoff(self, kk):
        x, y, d = self._pairs()
        cutoff = ensembles.BKM_SERIES_CUTOFF
        # d within 8 ulp of the cutoff, on both sides of it and with both signs
        lo, hi = cutoff - 8 * math.ulp(cutoff), cutoff + 8 * math.ulp(cutoff)
        close = (np.abs(d) >= lo) & (np.abs(d) <= hi)
        for side in (np.abs(d) <= cutoff, np.abs(d) > cutoff):
            for sign in (d > 0.0, d < 0.0):
                assert np.count_nonzero(close & side & sign) >= 10
        for cut in (slice(None), close):
            new = _density_pair_vec(EnsembleKind.BKM, x[cut], y[cut], kk)
            assert np.array_equal(new, _density_pair_vec_037(EnsembleKind.BKM, x[cut], y[cut], kk))
            # 0.2.8 divided log x - log y by x - y: 9.9e-16 relative at most
            np.testing.assert_allclose(new, _density_pair_vec_028(EnsembleKind.BKM, x[cut], y[cut], kk),
                                       rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("kk", [1, 2])
    @pytest.mark.parametrize("scale", [-1.0, 4.0])
    def test_matches_the_plain_copy_off_the_simplex(self, scale, kk):
        # the candidate bound holds for any finite input: x + y negative, or above 1
        x, y, _ = self._pairs()
        x, y = scale * x, scale * y
        new = _density_pair_vec(EnsembleKind.BKM, x, y, kk)
        assert np.array_equal(new, _density_pair_vec_037(EnsembleKind.BKM, x, y, kk), equal_nan=True)

    @pytest.mark.parametrize("kk", [1, 2])
    def test_equal_eigenvalues_give_zero(self, kk):
        # d gap is 0 where d = 0; a gap / d form gives 0 / 0 = NaN there
        x = np.linspace(0.01, 0.99, 99)
        assert np.array_equal(_density_pair_vec(EnsembleKind.BKM, x, x.copy(), kk), np.zeros(x.size))


class TestDensitySeriesCutoff:
    """``_density3_vec`` takes the BKM series exactly where its plain 0.3.4 copy does, a few ulp either side of the cutoff.

    Each pair of ``TestSeriesCutoff`` sits at one position of a triple
    whose third eigenvalue z is 0.05 to 0.45 of the pair's sum, so the
    pair holds the largest r: where x + y nears its largest value and z
    nears 0.05 of it, |v| = |prod d| reaches 0.8 of the candidate bound
    2 c top^3, and a bound half as large misses series rows.  Scaled by 4,
    off the simplex, the triples reach it too; scaled by -1 every density
    is NaN (a log or square root of a negative), so there the test checks
    only that no row turns finite.
    """

    @staticmethod
    def _triples(pair: tuple[int, int], scale: float):
        x, y, d = TestSeriesCutoff._pairs()
        z = (x + y) * np.random.default_rng(31).uniform(0.05, 0.45, x.size)
        columns = {(0, 1): (x, y, z), (0, 2): (x, z, y), (1, 2): (z, x, y)}[pair]
        return [scale * c for c in columns], d

    @pytest.mark.parametrize("scale", [1.0, -1.0, 4.0])
    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    def test_matches_the_plain_copies(self, pair, scale):
        columns, d = self._triples(pair, scale)
        cutoff = ensembles.BKM_SERIES_CUTOFF
        # d within 8 ulp of the cutoff, on both sides of it and with both signs
        lo, hi = cutoff - 8 * math.ulp(cutoff), cutoff + 8 * math.ulp(cutoff)
        close = (np.abs(d) >= lo) & (np.abs(d) <= hi)
        for side in (np.abs(d) <= cutoff, np.abs(d) > cutoff):
            for sign in (d > 0.0, d < 0.0):
                assert np.count_nonzero(close & side & sign) >= 10
        for cut in (slice(None), close):
            rows = [c[cut] for c in columns]
            with np.errstate(invalid="ignore"):
                new = _density3_vec(EnsembleKind.BKM, *rows)
                assert np.array_equal(new, _density3_vec_034(EnsembleKind.BKM, *rows), equal_nan=True)
                np.testing.assert_allclose(new, _density3_vec_028(EnsembleKind.BKM, *rows), rtol=1e-15, atol=0.0)
            assert np.isnan(new).all() == (scale < 0.0)


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
            t, q = rng.random((2, SpectrumSampler._TILE))
        else:
            t, q = np.linspace(0.0, 1.0, 128) ** 4, rng.random((145, 1))
        (r1, r2, r3), _ = ensembles._regular_chart(t, q)
        line_t = rng.random(SpectrumSampler._TILE) if shape == "tile" else indicators._RAY_X ** 4
        edge = (rng.random(line_t.size) < 0.5).astype(float)
        cdf = np.cumsum(_envelope_table(kind, (1, 1, 1)))
        guide, scale, above = _guide_table(cdf)
        x = (1.0 - rng.random(SpectrumSampler._TILE)) * cdf[-1]
        kernel = sw_spectrum_qutrit(0.3).as_array()
        return [
            ("_regular_chart", (t, q), ensembles._regular_chart),
            ("_regular_weight_qutrit", (t, q), lambda *a: ensembles._regular_weight_qutrit(kind, *a)),
            ("_line_weight", (line_t, edge), lambda t, e: ensembles._line_weight(kind, _EDGES, t, e)),
            ("_line_weight", (line_t,), lambda t: ensembles._line_weight(kind, (1, 1), t)),
            ("_density3_vec", (r1, r2, r3), lambda *a: _density3_vec(kind, *a)),
            ("_density_pair_vec", (r1, r3), lambda *a: _density_pair_vec(kind, *a, 2)),
            ("_density_pair_vec", (r1, r2), lambda *a: _density_pair_vec(kind, *a, 1)),
            ("_cell_lookup", (guide, above, x), lambda g, a, x: _cell_lookup((g, scale, a), x)),
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
        uniforms = (sampler._dim + 2) * 8 * m
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
        uniforms = (sampler._dim + 2) * 8 * m
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
    @pytest.mark.parametrize("mult", [(1, 1), (1, 1, 1), _EDGES], ids=["qubit", "regular", "edges"])
    def test_only_accepted_regular_rows_are_renormalised(self, monkeypatch, kind, mult):
        # _draw returns the chart's spectra on the accepted rows, and _tiles
        # divides regular rows by their sums as 0.3.7's weight did on every
        # proposal (r / (r1 + r2 + r3), the same bits); line rows pass as drawn
        drawn, draw = [], SpectrumSampler._draw

        def spy(self, m):
            tiles = draw(self, m)
            drawn.extend(tuple(c.copy() for c in columns) for columns in tiles)
            return tiles

        monkeypatch.setattr(SpectrumSampler, "_draw", spy)
        rows = _sampler(SpectrumSampler, kind, mult, seed=29).sample(40_000)
        columns = tuple(np.concatenate(c) for c in zip(*drawn))
        if mult == (1, 1, 1):
            total = columns[0] + columns[1] + columns[2]
            columns = tuple(c / total for c in columns)
        assert np.array_equal(rows, np.column_stack(columns)[:len(rows)])


#: The CPU features that CI's avx512-off job disables (``NPY_DISABLE_CPU_FEATURES``).
_AVX512 = "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"


def _dispatch_digests() -> dict[str, str]:
    """SHA-256 of the sample streams of every ensemble and stratum, and of the HS and Bures weights and quadrature.

    The weights are those of every piece; the quadrature values and error
    estimates those of every stratum over both figure grids (61 angles,
    then 60 half a step off), built in this process.
    """
    out = {}
    for kind in ALL_KINDS:
        for stratum in (QUBIT_STRATUM, REGULAR_QUTRIT, DEGENERATE_QUTRIT):
            h = hashlib.sha256()
            for block in stratum_spectra(kind, stratum, 100_000, np.random.default_rng(37)):
                h.update(block.tobytes())
            out[f"stream {kind.value} {_stratum_kind(stratum)}"] = h.hexdigest()
    rng = np.random.default_rng(41)
    t = np.concatenate([rng.random(100_000), np.linspace(0.0, 1.0, 65)])
    q = np.concatenate([rng.random(100_000), np.linspace(0.0, 1.0, 65)])
    edge = (rng.random(t.size) < 0.5).astype(float)
    for kind in (EnsembleKind.HILBERT_SCHMIDT, EnsembleKind.BURES):
        weights = {mult: ensembles._line_weight(kind, mult, t, edge if mult == _EDGES else None)
                   for mult in ((1, 1), (2, 1), (1, 2), _EDGES)}
        weights[(1, 1, 1)] = ensembles._regular_weight_qutrit(kind, t, q)
        for mult, (w, spectra) in weights.items():
            out[f"weight {kind.value} {mult}"] = hashlib.sha256(b"".join(a.tobytes() for a in (w, *spectra))).hexdigest()
    grid = np.concatenate([np.linspace(0.0, ZETA_MAX, 61),
                           np.linspace(math.pi / 360.0, ZETA_MAX - math.pi / 360.0, 60)]).tolist()
    kinds = (EnsembleKind.HILBERT_SCHMIDT, EnsembleKind.BURES)
    for stratum in (QUBIT_STRATUM, REGULAR_QUTRIT, DEGENERATE_QUTRIT):
        curves = indicators.indicators(kinds, stratum, indicators.Method.QUADRATURE,
                                       [None] if stratum.n == 2 else grid)
        for kind, curve in zip(kinds, curves):
            out[f"quadrature {kind.value} {_stratum_kind(stratum)}"] = hashlib.sha256(np.array(curve).tobytes()).hexdigest()
    return out


def test_streams_do_not_follow_dispatch():
    """Every stratum's sample stream, and HS and Bures quadrature, give the same bits with numpy's AVX-512 dispatch on and off.

    This process's digests are compared with those of a subprocess that
    runs with CI's avx512-off feature list.  On a CPU without AVX-512, or
    in CI's avx512-off job, both sides run the same loops, so the test
    cannot fail there; CI's log shows which extensions each job found.
    The weights are products, sums, quotients and ``np.sqrt``, whose bits
    do not follow the dispatch; the regular chart takes no trigonometry,
    quadrature's chart points t = x^4 are products and its tanh-sinh nodes
    come from ``math``.  BKM weights also take ``np.log``, whose last bits
    do follow it, so only their streams are compared: an ulp of weight
    flips an acceptance with odds of about 1e-16 per proposal.  BKM
    quadrature on the regular stratum follows the dispatch in its last
    bits, so BKM quadrature is left out.
    """
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(ensembles.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_AVX512,
               PYTHONPATH=os.pathsep.join(filter(None, (tests, src, os.environ.get("PYTHONPATH")))))
    script = "import json, test_ensembles; print(json.dumps(test_ensembles._dispatch_digests()))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == _dispatch_digests()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mult", [(1, 1), (1, 1, 1), (2, 1), (1, 2)])
def test_rejection_acceptance(kind, mult):
    sampler = SpectrumSampler(kind, DegeneracyType(mult), seed=41)
    sampler.sample(1_000_000)
    assert sampler._proposed >= 1_000_000
    # the (t, q) chart's regular envelope accepts 0.83-0.84; the (t, phi) one accepted 0.81
    assert sampler.acceptance_rate >= (0.82 if mult == (1, 1, 1) else 0.7)


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
