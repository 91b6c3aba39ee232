"""Tests for the kernel spectra and the spectral classicality test."""

import math

import numpy as np
import pytest

from wigner_classicality.spectra import (
    SQRT3,
    OrderedSpectrum,
    PolarPoint,
    polar_to_spectrum,
    trisectrix_boundary,
)
from wigner_classicality.wigner import (
    ModuliParameter,
    SWKernelSpectrum,
    classical_cone_regular_qutrit,
    classical_edge_bound_qutrit,
    dual_pairing,
    is_classical,
    sw_spectrum_qubit,
    sw_spectrum_qutrit,
)

ZETA_MAX = math.pi / 3.0


class TestKernelSpectra:
    def test_qubit_values(self):
        k = sw_spectrum_qubit()
        assert k.values == pytest.approx(((1 + SQRT3) / 2, (1 - SQRT3) / 2), rel=1e-15)
        assert k.values[0] == pytest.approx(1.36603, abs=5e-6)
        assert math.fsum(k.values) == pytest.approx(1.0, abs=1e-15)
        assert math.fsum(v * v for v in k.values) == pytest.approx(2.0, abs=1e-12)

    def test_qutrit_endpoint_zero(self):
        k = sw_spectrum_qutrit(0.0)
        assert k.values == pytest.approx((1.0, 1.0, -1.0), abs=1e-14)

    def test_qutrit_midpoint(self):
        k = sw_spectrum_qutrit(math.pi / 6)
        expected = (1 / 3 + 2 / SQRT3, 1 / 3, 1 / 3 - 2 / SQRT3)
        assert k.values == pytest.approx(expected, abs=1e-14)

    def test_constraints_hold_across_moduli(self):
        rng = np.random.default_rng(0)
        for z in rng.uniform(0.0, ZETA_MAX, 1000):
            k = sw_spectrum_qutrit(float(z))
            assert math.fsum(k.values) == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(v * v for v in k.values) == pytest.approx(3.0, abs=1e-10)
            assert k.values[0] >= k.values[1] >= k.values[2]

    def test_moduli_range_enforced(self):
        with pytest.raises(ValueError):
            sw_spectrum_qutrit(-0.01)
        with pytest.raises(ValueError):
            sw_spectrum_qutrit(ZETA_MAX + 0.01)
        with pytest.raises(ValueError):
            ModuliParameter(4.0)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            SWKernelSpectrum((0.9, 0.1))  # trace-square constraint broken

    @pytest.mark.parametrize("values,message", [
        ((0.9, 0.1), "kernel trace-square must be 2, got 0.8200000000000001"),
        ((1.0 + 1e-5, 1.0 - 1e-5, -1.0), "kernel trace-square must be 3, got 3.0000000002"),  # off by 2e-10
        ((1.0, 1.0 + 1e-9, -1.0), "kernel spectrum not descending: (1.0, 1.000000001, -1.0)"),
        ((1.0, 1.0, -0.9), "kernel trace must be 1, got 1.1"),
        ((2.0,), "kernel spectrum needs at least two eigenvalues"),
    ], ids=["trace-square", "trace-square-2e-10", "not-descending", "trace", "too-short"])
    def test_kernel_checks_give_message(self, values, message):
        with pytest.raises(ValueError) as err:
            SWKernelSpectrum(values)
        assert str(err.value) == message


class TestClassicalityTest:
    def test_maximally_mixed_is_classical(self):
        mixed = OrderedSpectrum((1 / 3, 1 / 3, 1 / 3))
        for z in np.linspace(0.0, ZETA_MAX, 7):
            assert is_classical(mixed, sw_spectrum_qutrit(float(z)))

    def test_pure_state_never_classical(self):
        pure = OrderedSpectrum((1.0, 0.0, 0.0))
        for z in np.linspace(0.0, ZETA_MAX, 7):
            k = sw_spectrum_qutrit(float(z))
            assert dual_pairing(pure, k) == pytest.approx(k.values[2], abs=1e-14)
            assert not is_classical(pure, k)

    def test_qubit_boundary_pairing(self):
        r = 1.0 / SQRT3
        s = OrderedSpectrum(((1 + r) / 2, (1 - r) / 2))
        assert dual_pairing(s, sw_spectrum_qubit()) == pytest.approx(0.0, abs=1e-15)

    def test_qubit_ball(self):
        rng = np.random.default_rng(1)
        k = sw_spectrum_qubit()
        for r in rng.uniform(0.0, 1.0, 2000):
            s = OrderedSpectrum(((1 + r) / 2, (1 - r) / 2))
            pairing = dual_pairing(s, k)
            if abs(pairing) < 1e-12:
                continue
            assert is_classical(s, k) == (r <= 1.0 / SQRT3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dual_pairing(OrderedSpectrum((0.7, 0.3)), sw_spectrum_qutrit(0.1))


class TestConeOracle:
    def test_matches_spectral_pairing(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(100_000):
            phi = float(rng.uniform(0.0, math.pi))
            r = float(rng.uniform(0.0, trisectrix_boundary(phi)))
            zeta = float(rng.uniform(0.0, ZETA_MAX))
            point = PolarPoint(r, phi)
            kernel = sw_spectrum_qutrit(zeta)
            spectrum = polar_to_spectrum(point)
            if abs(dual_pairing(spectrum, kernel)) < 1e-12:
                continue
            assert classical_cone_regular_qutrit(zeta, point) == is_classical(spectrum, kernel)
            checked += 1
        assert checked > 99_000

    def test_center_always_classical(self):
        assert classical_cone_regular_qutrit(0.3, PolarPoint(0.0, 1.0))

    def test_boundary_equality_counts_classical(self):
        # at zeta=pi/6, phi=pi/2 the cone angle is zero, so the boundary
        # radius is exactly 1/(4 sqrt3) and the non-strict test includes it
        r = 1.0 / (4.0 * SQRT3)
        assert classical_cone_regular_qutrit(math.pi / 6, PolarPoint(r, math.pi / 2))
        assert not classical_cone_regular_qutrit(math.pi / 6, PolarPoint(r * 1.0001, math.pi / 2))

    def test_monotone_in_radius(self):
        # classicality is a cone property: classical at r implies classical below
        rng = np.random.default_rng(3)
        for _ in range(2000):
            phi = float(rng.uniform(0.0, math.pi))
            zeta = float(rng.uniform(0.0, ZETA_MAX))
            r_hi = float(rng.uniform(0.0, trisectrix_boundary(phi)))
            r_lo = float(rng.uniform(0.0, r_hi))
            if classical_cone_regular_qutrit(zeta, PolarPoint(r_hi, phi)):
                assert classical_cone_regular_qutrit(zeta, PolarPoint(r_lo, phi))


class TestEdgeBounds:
    def test_extreme_angles(self):
        assert classical_edge_bound_qutrit(ZETA_MAX, 0.0) == pytest.approx(1 / (4 * SQRT3), rel=1e-15)
        assert classical_edge_bound_qutrit(0.0, math.pi) == pytest.approx(1 / (4 * SQRT3), rel=1e-15)

    def test_symmetric_at_midpoint(self):
        b0 = classical_edge_bound_qutrit(math.pi / 6, 0.0)
        bp = classical_edge_bound_qutrit(math.pi / 6, math.pi)
        expected = 1.0 / (4.0 * SQRT3 * math.cos(math.pi / 6))
        assert b0 == pytest.approx(expected, rel=1e-15)
        assert bp == pytest.approx(expected, rel=1e-15)

    def test_cap_at_zero_angle(self):
        # at zeta=0 the whole phi=0 edge is classical, up to its last bit
        assert classical_edge_bound_qutrit(0.0, 0.0) == 1 / (2 * SQRT3)

    def test_bound_matches_pairing_on_edges(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            zeta = float(rng.uniform(0.0, ZETA_MAX))
            kernel = sw_spectrum_qutrit(zeta)
            for phi, r_cap in ((0.0, 1 / (2 * SQRT3)), (math.pi, 1 / SQRT3)):
                bound = classical_edge_bound_qutrit(zeta, phi)
                r = float(rng.uniform(0.0, r_cap))
                spectrum = polar_to_spectrum(PolarPoint(r, phi))
                pairing = dual_pairing(spectrum, kernel)
                if abs(pairing) < 1e-12:
                    continue
                assert (pairing >= 0.0) == (r <= bound)

    def test_bad_edge(self):
        with pytest.raises(ValueError):
            classical_edge_bound_qutrit(0.1, 1.0)
