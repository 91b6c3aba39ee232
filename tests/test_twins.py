"""Property tests: the shared formulas of the spectra/wigner layer on arrays against the scalar API.

``_polar_columns``, ``_kernel_columns`` and ``_cone_classical`` evaluated
with ``numpy`` on arrays of polar points and moduli angles must give, point
by point, what the validating scalar functions give one point at a time.
Only the dataclasses check inputs, so these tests draw valid points alone.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from wigner_classicality.spectra import (  # noqa: E402
    OrderedSpectrum,
    PolarPoint,
    _polar_columns,
    polar_to_spectrum,
    spectrum_to_polar,
    trisectrix_boundary,
)
from wigner_classicality.wigner import (  # noqa: E402
    ZETA_MAX,
    _cone_classical,
    _dual_pairing,
    _is_classical,
    _kernel_columns,
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


def _columns(batch):
    return tuple(np.array(column) for column in zip(*batch))


@given(BATCHES)
def test_twins_match_scalar_api(batch):
    r, phi, zeta = _columns(batch)
    # on the boundary (radius fraction 1) the raw least eigenvalue comes out
    # as -1.7e-16 at most angles, which OrderedSpectrum clamps to 0; compare
    # the clamped columns, as the scalar API stores them
    spectra = tuple(np.maximum(column, 0.0) for column in _polar_columns(r, phi, np))
    kernels = _kernel_columns(zeta, np)
    pairings = _dual_pairing(spectra, kernels)
    classical = _is_classical(spectra, kernels)
    cone = _cone_classical(zeta, r, phi, np)
    for i, (ri, phii, zi) in enumerate(batch):
        point = PolarPoint(ri, phii)
        spectrum = polar_to_spectrum(point)
        kernel = sw_spectrum_qutrit(zi)
        assert [float(column[i]) for column in spectra] == list(spectrum.values)
        assert [float(column[i]) for column in kernels] == list(kernel.values)
        # the scalar pairing is correctly rounded, the array one a left-to-right
        # sum of three terms: they differ by at most a few ulps of 1
        pairing = dual_pairing(spectrum, kernel)
        assert pairings[i] == pytest.approx(pairing, rel=0.0, abs=1e-15)
        if abs(pairing) >= 1e-12:
            assert bool(classical[i]) is is_classical(spectrum, kernel)
        assert bool(cone[i]) is classical_cone_regular_qutrit(zi, point)


@given(BATCHES, ZETAS)
def test_one_kernel_pairs_as_monte_carlo_does(batch, zeta):
    r, phi, _ = _columns(batch)
    columns = _polar_columns(r, phi, np)
    kernel = sw_spectrum_qutrit(zeta).as_array()
    k1, k2, k3 = kernel.tolist()
    # Monte Carlo's hit counts rest on this arithmetic, summed from the left
    expected = [(s1 * k3 + s2 * k2) + s3 * k1 for s1, s2, s3 in zip(*(c.tolist() for c in columns))]
    assert _dual_pairing(columns, kernel).tolist() == expected
    rows = np.stack(columns, axis=1)
    assert _dual_pairing(rows.T, kernel).tolist() == expected
    assert _is_classical(columns, kernel).tolist() == [p >= 0.0 for p in expected]
    assert _dual_pairing(columns, np.broadcast_to(kernel[:, None], rows.T.shape)).tolist() == expected


@given(BATCHES)
def test_polar_round_trip(batch):
    r, phi, _ = _columns(batch)
    for i, row in enumerate(zip(*_polar_columns(r, phi, np))):
        back = spectrum_to_polar(OrderedSpectrum(row))
        assert back.r == pytest.approx(r[i], rel=0.0, abs=1e-14)
        if r[i] > 1e-6:  # the angle is undefined at the center
            assert back.phi == pytest.approx(phi[i], rel=0.0, abs=1e-8)
        again = _polar_columns(back.r, back.phi, np)
        assert np.allclose(again, row, rtol=0.0, atol=1e-14)


@given(st.lists(ZETAS, min_size=1, max_size=40))
def test_kernel_invariants(zetas):
    for row in zip(*_kernel_columns(np.array(zetas), np)):
        assert math.fsum(row) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        assert math.fsum(v * v for v in row) == pytest.approx(3.0, rel=0.0, abs=1e-10)
        assert row[0] >= row[1] >= row[2]


@given(BATCHES)
def test_cone_agrees_with_pairing(batch):
    # the raw columns, unclamped, as verify's cone check pairs them
    r, phi, zeta = _columns(batch)
    pairing = _dual_pairing(_polar_columns(r, phi, np), _kernel_columns(zeta, np))
    off_boundary = np.abs(pairing) >= 1e-12
    cone = _cone_classical(zeta, r, phi, np)
    assert np.array_equal(cone[off_boundary], (pairing >= 0.0)[off_boundary])
