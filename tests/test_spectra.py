"""Tests for the spectral domain types and the qutrit polar chart."""

import math

import numpy as np
import pytest

from wigner_classicality.spectra import (
    POLAR_RADIUS_MAX,
    SQRT3,
    DegeneracyType,
    OrderedSpectrum,
    PolarPoint,
    StratumLabel,
    polar_to_spectrum,
    spectrum_to_polar,
    trisectrix_boundary,
)


class TestOrderedSpectrum:
    def test_accepts_valid(self):
        s = OrderedSpectrum((0.5, 0.3, 0.2))
        assert s.n == 3
        assert math.fsum(s.values) == pytest.approx(1.0, abs=1e-15)

    def test_renormalizes_small_drift(self):
        s = OrderedSpectrum((0.5 + 3e-10, 0.3, 0.2))
        assert abs(math.fsum(s.values) - 1.0) <= 1e-12

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            OrderedSpectrum((0.5, 0.3, 0.21))

    def test_rejects_ascending(self):
        with pytest.raises(ValueError):
            OrderedSpectrum((0.3, 0.5, 0.2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            OrderedSpectrum((0.6, 0.5, -0.1))

    def test_clamps_float_noise_at_zero(self):
        s = OrderedSpectrum((0.6, 0.4 + 1e-13, -1e-13))
        assert s.values[-1] == 0.0

    @pytest.mark.parametrize("values,message", [
        ((0.3, 0.5, 0.2), "spectrum not descending: (0.3, 0.5, 0.2)"),
        ((0.6, 0.5, -0.1), "negative eigenvalue in spectrum: (0.6, 0.5, -0.1)"),
        # negative beyond ORDER_TOL
        ((0.6, 0.4 + 1e-9, -1e-9), "negative eigenvalue in spectrum: (0.6, 0.40000000100000005, -1e-09)"),
        ((0.5, 0.3, 0.21), "eigenvalues sum to 1.01, expected 1 within 1e-09"),
        ((0.5, math.nan, 0.2), "spectrum entries must be finite, got (0.5, nan, 0.2)"),
    ], ids=["ascending", "negative", "negative-beyond-tol", "sum-off", "not-finite"])
    def test_rejects_with_message(self, values, message):
        with pytest.raises(ValueError) as err:
            OrderedSpectrum(values)
        assert str(err.value) == message

    @pytest.mark.parametrize("values,stored", [
        ((0.6, 0.4 + 1e-13, -1e-13), (0.6, 0.4 + 1e-13, 0.0)),  # float noise, clamped
        ((0.5 + 3e-10, 0.3, 0.2), tuple(v / (1.0 + 3e-10) for v in (0.5 + 3e-10, 0.3, 0.2))),  # renormalised
    ], ids=["clamped", "renormalised"])
    def test_stores_clamped_and_renormalised_values(self, values, stored):
        assert OrderedSpectrum(values).values == stored


class TestDegeneracyType:
    def test_composition_order_is_kept(self):
        assert DegeneracyType((1, 2)).multiplicities == (1, 2)
        assert DegeneracyType((1, 2)).partition() == (2, 1)

    def test_counts(self):
        d = DegeneracyType((2, 1))
        assert d.n == 3 and not d.is_regular
        assert DegeneracyType((1, 1, 1)).is_regular

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DegeneracyType((2, 0))
        with pytest.raises(ValueError):
            DegeneracyType(())


class TestStratumLabel:
    def test_qubit(self):
        strata = [StratumLabel.for_partition(p) for p in ((1, 1), (2,))]
        assert [s.degeneracy.multiplicities for s in strata] == [(1, 1), (2,)]
        assert strata[0].name == "[T²]"
        assert strata[1].name == "[SU(2)]"

    def test_qutrit_names(self):
        strata = [StratumLabel.for_partition(p) for p in ((1, 1, 1), (1, 2), (3,))]
        assert [s.degeneracy.multiplicities for s in strata] == [(1, 1, 1), (2, 1), (3,)]
        assert [s.name for s in strata] == ["[T³]", "[S(U(2)×U(1))]", "[SU(3)]"]


class TestPolarChart:
    def test_center(self):
        s = polar_to_spectrum(PolarPoint(0.0, 0.7))
        assert s.values == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_phi0_corner(self):
        s = polar_to_spectrum(PolarPoint(1.0 / (2.0 * SQRT3), 0.0))
        assert s.values == pytest.approx((0.5, 0.5, 0.0), abs=1e-15)

    def test_phipi_corner(self):
        s = polar_to_spectrum(PolarPoint(1.0 / SQRT3, math.pi))
        assert s.values == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_point_outside_region_rejected(self):
        with pytest.raises(ValueError):
            PolarPoint(0.5, 0.0)

    def test_trisectrix_values(self):
        assert trisectrix_boundary(0.0) == pytest.approx(1.0 / (2.0 * SQRT3), rel=1e-15)
        assert trisectrix_boundary(math.pi) == pytest.approx(1.0 / SQRT3, rel=1e-15)
        assert trisectrix_boundary(math.pi / 2) == pytest.approx(
            1.0 / (2.0 * SQRT3 * math.cos(math.pi / 6)), rel=1e-15
        )

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, -1e-11, math.pi + 1e-11])
    def test_trisectrix_rejects_what_polar_point_rejects(self, phi):
        with pytest.raises(ValueError):
            PolarPoint(0.0, phi)
        with pytest.raises(ValueError):
            trisectrix_boundary(phi)

    @pytest.mark.parametrize("phi,end", [(-1e-13, 0.0), (math.pi + 1e-13, math.pi)])
    def test_trisectrix_clamps_what_polar_point_clamps(self, phi, end):
        # an angle within ORDER_TOL outside [0, pi] is the end of the range
        assert PolarPoint(0.0, phi).phi == end
        assert trisectrix_boundary(phi) == trisectrix_boundary(end)

    def test_boundary_maps_to_zero_eigenvalue(self):
        rng = np.random.default_rng(3)
        for phi in rng.uniform(0.0, math.pi, 200):
            s = polar_to_spectrum(PolarPoint(trisectrix_boundary(phi), phi))
            assert s.values[2] == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_edges(self):
        # phi=0 carries the doubled-larger-eigenvalue states, phi=pi the
        # doubled-smaller ones; this pins the edge labeling convention.
        rng = np.random.default_rng(4)
        for r in rng.uniform(0.0, 1.0 / (2.0 * SQRT3), 100):
            s = polar_to_spectrum(PolarPoint(r, 0.0))
            assert s.values[0] == pytest.approx(s.values[1], abs=1e-14)
        for r in rng.uniform(0.0, 1.0 / SQRT3, 100):
            s = polar_to_spectrum(PolarPoint(r, math.pi))
            assert s.values[1] == pytest.approx(s.values[2], abs=1e-14)

    def test_outputs_satisfy_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            phi = rng.uniform(0.0, math.pi)
            r = rng.uniform(0.0, trisectrix_boundary(phi))
            s = polar_to_spectrum(PolarPoint(r, phi))
            assert s.values[0] >= s.values[1] >= s.values[2] >= 0.0
            assert math.fsum(s.values) == pytest.approx(1.0, abs=1e-12)


class TestSpectrumToPolar:
    def test_center_maps_to_origin(self):
        p = spectrum_to_polar(OrderedSpectrum((1 / 3, 1 / 3, 1 / 3)))
        assert p.r == 0.0

    def test_pure_state(self):
        p = spectrum_to_polar(OrderedSpectrum((1.0, 0.0, 0.0)))
        assert p.r == pytest.approx(POLAR_RADIUS_MAX, rel=1e-14)
        assert p.phi == pytest.approx(math.pi, rel=1e-14)

    def test_half_half(self):
        p = spectrum_to_polar(OrderedSpectrum((0.5, 0.5, 0.0)))
        assert p.r == pytest.approx(1.0 / (2.0 * SQRT3), rel=1e-14)
        assert p.phi == pytest.approx(0.0, abs=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            phi = rng.uniform(0.0, math.pi)
            r = rng.uniform(0.0, trisectrix_boundary(phi))
            point = PolarPoint(r, phi)
            back = spectrum_to_polar(polar_to_spectrum(point))
            assert back.r == pytest.approx(point.r, abs=1e-10)
            assert back.phi == pytest.approx(point.phi, abs=1e-10)

    def test_requires_qutrit(self):
        with pytest.raises(ValueError):
            spectrum_to_polar(OrderedSpectrum((0.7, 0.3)))


def test_stratum_label_for_partition_sorts():
    label = StratumLabel.for_partition((1, 2))
    assert label.degeneracy.multiplicities == (2, 1)
    assert label.n == 3
