"""Property tests: the array twins of the spectra/wigner layer against the scalar API.

Each twin takes arrays of polar points and moduli angles and must give, row
by row, what the validating scalar functions give one point at a time, and
must reject what they reject with the same message.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from wigner_classicality.spectra import (  # noqa: E402
    OrderedSpectrum,
    PolarPoint,
    _ordered_spectra,
    _polar_to_spectrum,
    polar_to_spectrum,
    spectrum_to_polar,
    trisectrix_boundary,
)
from wigner_classicality.wigner import (  # noqa: E402
    ZETA_MAX,
    ModuliParameter,
    SWKernelSpectrum,
    _classical_cone_regular_qutrit,
    _dual_pairing,
    _is_classical,
    _kernel_spectra,
    _sw_spectrum_qutrit,
    classical_cone_regular_qutrit,
    dual_pairing,
    is_classical,
    sw_spectrum_qutrit,
)

#: Angles, radius fractions of the trisectrix boundary and moduli angles,
#: each mixing the ends and midpoints of its range into random values.
ANGLES = st.one_of(st.sampled_from([0.0, math.pi / 2.0, math.pi]), st.floats(0.0, math.pi))
FRACTIONS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
ZETAS = st.one_of(st.sampled_from([0.0, math.pi / 6.0, ZETA_MAX]), st.floats(0.0, ZETA_MAX))


@st.composite
def _point(draw):
    phi = draw(ANGLES)
    return trisectrix_boundary(phi) * draw(FRACTIONS), phi, draw(ZETAS)


#: Batches of (r, phi, zeta) on the regular stratum's polar chart.
BATCHES = st.lists(_point(), min_size=1, max_size=40)


def _reals(low, high):
    """Floats in [low, high], and the three non-finite ones."""
    return st.one_of(st.floats(low, high), st.sampled_from([math.nan, math.inf, -math.inf]))


def _columns(batch):
    return tuple(np.array(column) for column in zip(*batch))


def _error(call):
    """The message of the ValueError that ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@given(BATCHES)
def test_twins_match_scalar_api(batch):
    r, phi, zeta = _columns(batch)
    spectra = _polar_to_spectrum(r, phi)
    kernels = _sw_spectrum_qutrit(zeta)
    pairings = _dual_pairing(spectra, kernels)
    classical = _is_classical(spectra, kernels)
    cone = _classical_cone_regular_qutrit(zeta, r, phi)
    for i, (ri, phii, zi) in enumerate(batch):
        point = PolarPoint(ri, phii)
        spectrum = polar_to_spectrum(point)
        kernel = sw_spectrum_qutrit(zi)
        assert spectra[i].tolist() == list(spectrum.values)
        assert kernels[i].tolist() == list(kernel.values)
        # the scalar pairing is correctly rounded, the twin's a left-to-right
        # sum of three terms: they differ by at most a few ulps of 1
        pairing = dual_pairing(spectrum, kernel)
        assert pairings[i] == pytest.approx(pairing, rel=0.0, abs=1e-15)
        if abs(pairing) >= 1e-12:
            assert bool(classical[i]) is is_classical(spectrum, kernel)
        assert bool(cone[i]) is classical_cone_regular_qutrit(zi, point)


@given(BATCHES, ZETAS)
def test_one_kernel_pairs_as_monte_carlo_does(batch, zeta):
    r, phi, _ = _columns(batch)
    spectra = _polar_to_spectrum(r, phi)
    kernel = sw_spectrum_qutrit(zeta).as_array()
    k1, k2, k3 = kernel.tolist()
    # Monte Carlo's hit counts rest on this arithmetic, summed from the left
    expected = [(s1 * k3 + s2 * k2) + s3 * k1 for s1, s2, s3 in spectra.tolist()]
    assert _dual_pairing(spectra, kernel).tolist() == expected
    assert _dual_pairing(tuple(np.ascontiguousarray(spectra.T)), kernel).tolist() == expected
    assert _is_classical(spectra, kernel).tolist() == [p >= 0.0 for p in expected]
    rows = _dual_pairing(spectra, np.broadcast_to(kernel, spectra.shape))
    assert rows.tolist() == expected


@given(BATCHES)
def test_polar_round_trip(batch):
    r, phi, _ = _columns(batch)
    spectra = _polar_to_spectrum(r, phi)
    for i, row in enumerate(spectra):
        back = spectrum_to_polar(OrderedSpectrum(tuple(row)))
        assert back.r == pytest.approx(r[i], rel=0.0, abs=1e-14)
        if r[i] > 1e-6:  # the angle is undefined at the center
            assert back.phi == pytest.approx(phi[i], rel=0.0, abs=1e-8)
        again = _polar_to_spectrum(back.r, back.phi)[0]
        assert np.allclose(again, row, rtol=0.0, atol=1e-14)


@given(st.lists(ZETAS, min_size=1, max_size=40))
def test_kernel_invariants(zetas):
    for row in _sw_spectrum_qutrit(np.array(zetas)):
        assert math.fsum(row) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        assert math.fsum(v * v for v in row) == pytest.approx(3.0, rel=0.0, abs=1e-10)
        assert row[0] >= row[1] >= row[2]


@given(BATCHES)
def test_cone_agrees_with_pairing(batch):
    r, phi, zeta = _columns(batch)
    pairing = _dual_pairing(_polar_to_spectrum(r, phi), _sw_spectrum_qutrit(zeta))
    off_boundary = np.abs(pairing) >= 1e-12
    cone = _classical_cone_regular_qutrit(zeta, r, phi)
    assert np.array_equal(cone[off_boundary], (pairing >= 0.0)[off_boundary])


@given(_reals(-0.1, 0.7), _reals(-0.1, 3.3))
def test_point_checks_match_polar_point(r, phi):
    # the point second in its batch, behind a valid one
    rs, phis = np.array([0.1, r]), np.array([1.0, phi])
    assert (_error(lambda: _classical_cone_regular_qutrit(0.3, rs, phis))
            == _error(lambda: PolarPoint(r, phi)))
    assert (_error(lambda: _polar_to_spectrum(rs, phis))
            == _error(lambda: polar_to_spectrum(PolarPoint(r, phi))))


@given(_reals(-0.1, 1.2))
def test_angle_checks_match_moduli_parameter(zeta):
    scalar = _error(lambda: ModuliParameter(zeta))
    zetas = np.array([0.2, zeta])
    assert _error(lambda: _sw_spectrum_qutrit(zetas)) == scalar
    assert _error(lambda: _classical_cone_regular_qutrit(zetas, 0.1, 1.0)) == scalar


@pytest.mark.parametrize("values", [
    (0.3, 0.5, 0.2),             # ascending
    (0.6, 0.5, -0.1),            # negative
    (0.6, 0.4 + 1e-9, -1e-9),    # negative beyond ORDER_TOL
    (0.5, 0.3, 0.21),            # sum off by more than RENORM_TOL
    (0.5, math.nan, 0.2),        # not finite
    (0.6, 0.4 + 1e-13, -1e-13),  # float noise, clamped
    (0.5 + 3e-10, 0.3, 0.2),     # small drift, renormalised
])
def test_spectrum_checks_match_ordered_spectrum(values):
    scalar = _error(lambda: OrderedSpectrum(values))
    assert _error(lambda: _ordered_spectra([(0.5, 0.3, 0.2), values])) == scalar
    if scalar is None:
        assert _ordered_spectra(values)[0].tolist() == list(OrderedSpectrum(values).values)


@pytest.mark.parametrize("values", [
    (0.9, 0.1),                      # trace-square broken
    (1.0 + 1e-5, 1.0 - 1e-5, -1.0),  # trace-square off by 2e-10
    (1.0, 1.0 + 1e-9, -1.0),         # not descending
    (1.0, 1.0, -0.9),                # trace broken
    (2.0,),                          # too short
])
def test_kernel_checks_match_sw_kernel_spectrum(values):
    scalar = _error(lambda: SWKernelSpectrum(values))
    assert scalar is not None
    assert _error(lambda: _kernel_spectra(values)) == scalar
