"""Tests for the indicator computations and moduli-space utilities."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wigner_classicality
import wigner_classicality.indicators as ind
from wigner_classicality.ensembles import (
    _EDGES,
    _LINES,
    EnsembleKind,
    SpectrumSampler,
    _density3_vec,
    _line_weight,
    _regular_chart,
    stratum_spectra,
    worker_seed,
)
from wigner_classicality.indicators import (
    DEGENERATE_QUTRIT,
    QUBIT_STRATUM,
    REGULAR_QUTRIT,
    IndicatorRequest,
    IndicatorResult,
    Method,
    UnsupportedRequestError,
    asymmetry,
    compute_indicator,
    minimize_q_over_zeta,
    q_hs_qutrit_degenerate_closed_form,
    q_hs_qutrit_regular_closed_form,
    q_monte_carlo,
    q_quadrature,
    q_qubit_closed_form,
    ratio_degenerate_to_regular,
)
from wigner_classicality.spectra import (
    DegeneracyType,
    OrderedSpectrum,
    PolarPoint,
    StratumLabel,
    trisectrix_boundary,
)
from wigner_classicality.wigner import (
    _is_classical,
    classical_cone_regular_qutrit,
    classical_edge_bound_qutrit,
    dual_pairing,
    sw_spectrum_qubit,
    sw_spectrum_qutrit,
)

ZETA_MAX = math.pi / 3.0
ALL_KINDS = (EnsembleKind.HILBERT_SCHMIDT, EnsembleKind.BURES, EnsembleKind.BKM)

QUBIT_REFERENCE = {
    EnsembleKind.HILBERT_SCHMIDT: 0.19245008972987526,  # 1/(3 sqrt3)
    EnsembleKind.BURES: 0.09172111331157198,
    EnsembleKind.BKM: 0.049550598833371,
}

#: Bures and BKM regular-stratum indicators from mpmath, with no package code.
#: In the polar chart of the eigenvalue simplex (angle phi in [0, pi], face
#: r3 = 0 at radius R = 1/(2 sqrt3 cos(phi/3))), put r = R (1 - s).  Then
#: r3 = s/3, r2 = r3 + 2 r sin((pi - phi)/3) and r1 = r2 + 2 r sin(phi/3),
#: so no eigenvalue or gap cancels, and the area element is r R ds dphi.  The
#: density is (r1 r2 r3)^(-1/2) prod_{i<j} c(r_i, r_j) (r_i - r_j)^2, with
#: c = 2/(x + y) (Bures) or log1p(d/y)/d at x = y + d (BKM).  With the kernel
#: spectrum pi_1 = 1/3 + (2/sqrt3) sin zeta + (2/3) cos zeta,
#: pi_3 = 1/3 - (4/3) cos zeta and pi_2 = 1 - pi_1 - pi_3, a state is
#: classical where r1 pi_3 + r2 pi_2 + r3 pi_1 >= 0, which is affine in r on a
#: ray and so cuts each ray at one s.  Each ray integral runs over s = u^2,
#: which absorbs the s^(-1/2) of the face, inside an integral over phi, both
#: by mpmath's tanh-sinh quad.  Runs at 30 digits, and at 40 digits with the
#: phi range split at pi/2, agree to 2e-30 relative at every angle, and the
#: same code gives the Hilbert-Schmidt closed form to 1e-30.
REGULAR_REFERENCE = {
    (EnsembleKind.BURES, 0.2): 1.7390616382848302e-4,
    (EnsembleKind.BURES, 0.525096): 8.9102377996797031e-5,
    (EnsembleKind.BURES, 0.9): 2.1851221940524324e-4,
    (EnsembleKind.BKM, 0.2): 2.4839314666674178e-5,
    (EnsembleKind.BKM, 0.527798): 1.2160539801856648e-5,
    (EnsembleKind.BKM, 0.9): 3.0389162498175306e-5,
}


def quad_request(ensemble, stratum, zeta=None):
    return IndicatorRequest(ensemble=ensemble, stratum=stratum, method=Method.QUADRATURE, zeta=zeta)


class TestClosedForms:
    @pytest.mark.parametrize("ensemble,expected", [
        (EnsembleKind.HILBERT_SCHMIDT, 0.19245),
        (EnsembleKind.BURES, 0.0917211),
        (EnsembleKind.BKM, 0.0495506),
    ])
    def test_qubit_published_digits(self, ensemble, expected):
        assert q_qubit_closed_form(ensemble).q == pytest.approx(expected, abs=5e-6)

    def test_qubit_hs_exact(self):
        assert q_qubit_closed_form(EnsembleKind.HILBERT_SCHMIDT).q == pytest.approx(
            1.0 / (3.0 * math.sqrt(3.0)), rel=1e-15, abs=0.0
        )

    def test_regular_values(self):
        assert q_hs_qutrit_regular_closed_form(math.pi / 6).q == pytest.approx(21.0 / 31104.0, rel=1e-14, abs=0.0)
        assert q_hs_qutrit_regular_closed_form(0.0).q == pytest.approx(1.0 / 256.0, rel=1e-13, abs=0.0)
        assert q_hs_qutrit_regular_closed_form(ZETA_MAX).q == pytest.approx(1.0 / 256.0, rel=1e-13, abs=0.0)

    def test_degenerate_values(self):
        assert q_hs_qutrit_degenerate_closed_form(0.0).q == pytest.approx(1.0 / 32.0, rel=1e-13, abs=0.0)
        expected_mid = 2.0 * (2.0 / math.sqrt(3.0)) ** 5 / 1056.0
        assert q_hs_qutrit_degenerate_closed_form(math.pi / 6).q == pytest.approx(expected_mid, rel=1e-13, abs=0.0)

    def test_degenerate_mirror_symmetry(self):
        for delta in (0.05, 0.1, 0.15, math.pi / 6):
            a = q_hs_qutrit_degenerate_closed_form(math.pi / 6 + delta).q
            b = q_hs_qutrit_degenerate_closed_form(math.pi / 6 - delta).q
            assert a == pytest.approx(b, rel=5e-15, abs=0.0)

    def test_regular_mirror_symmetry(self):
        for delta in (0.05, 0.1, 0.15, math.pi / 6):
            a = q_hs_qutrit_regular_closed_form(math.pi / 6 + delta).q
            b = q_hs_qutrit_regular_closed_form(math.pi / 6 - delta).q
            assert a == pytest.approx(b, rel=5e-15, abs=0.0)

    def test_range_check(self):
        # the public closed forms are compute_indicator's, bit for bit, and
        # share its range check
        closed = Method.CLOSED_FORM
        for kind in ALL_KINDS:
            res = q_qubit_closed_form(kind)
            assert res == compute_indicator(IndicatorRequest(ensemble=kind, stratum=QUBIT_STRATUM, method=closed))
            assert res.error_estimate == 0.0
        hs = EnsembleKind.HILBERT_SCHMIDT
        for stratum, form in ((REGULAR_QUTRIT, q_hs_qutrit_regular_closed_form),
                              (DEGENERATE_QUTRIT, q_hs_qutrit_degenerate_closed_form)):
            for zeta in (0.0, 0.3, math.pi / 6, ZETA_MAX):
                res = form(zeta)
                alone = compute_indicator(IndicatorRequest(ensemble=hs, stratum=stratum, method=closed, zeta=zeta))
                assert (res.q.hex(), res.error_estimate, res.request) == (alone.q.hex(), 0.0, alone.request)
            for zeta in (-0.1, 1.2, math.nan):
                with pytest.raises(UnsupportedRequestError):
                    form(zeta)
        assert issubclass(UnsupportedRequestError, ValueError)


class TestQuadrature:
    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_qubit_matches_closed(self, ensemble):
        res = q_quadrature(quad_request(ensemble, QUBIT_STRATUM))
        ref = q_qubit_closed_form(ensemble).q
        assert res.q == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert res.error_estimate >= abs(res.q - ref)

    @pytest.mark.parametrize("zeta", np.linspace(0.0, ZETA_MAX, 7))
    def test_hs_regular_matches_closed(self, zeta):
        res = q_quadrature(quad_request(EnsembleKind.HILBERT_SCHMIDT, REGULAR_QUTRIT, float(zeta)))
        assert res.q == pytest.approx(q_hs_qutrit_regular_closed_form(float(zeta)).q, rel=1e-8)

    @pytest.mark.parametrize("zeta", np.linspace(0.0, ZETA_MAX, 7))
    def test_hs_degenerate_matches_closed(self, zeta):
        res = q_quadrature(quad_request(EnsembleKind.HILBERT_SCHMIDT, DEGENERATE_QUTRIT, float(zeta)))
        assert res.q == pytest.approx(q_hs_qutrit_degenerate_closed_form(float(zeta)).q, rel=1e-8)

    def test_point_stratum(self):
        stratum = StratumLabel.for_partition((3,))
        res = q_quadrature(quad_request(EnsembleKind.BURES, stratum, 0.2))
        assert res.q == 1.0

    def test_error_estimate_positive_and_small(self):
        res = q_quadrature(quad_request(EnsembleKind.BURES, REGULAR_QUTRIT, 0.4))
        assert 0.0 <= res.error_estimate <= 1e-3 * res.q

    def test_regular_cell_does_not_depend_on_the_cache(self):
        # a cell reads one fixed ray table, built now or cached, so the
        # cache changes neither its value nor its error estimate
        request = quad_request(EnsembleKind.BKM, REGULAR_QUTRIT, 0.4)
        ind._regular_table.cache_clear()
        ind._table_union.cache_clear()  # which holds the tables' rows
        cold = q_quadrature(request)
        assert ind._regular_table.cache_info().currsize == 1
        warm = q_quadrature(request)
        assert (warm.q, warm.error_estimate) == (cold.q, cold.error_estimate)

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_degenerate_cell_does_not_depend_on_the_cache(self, ensemble):
        # a line cell reads one fixed fit per edge, built now or cached
        def cell():
            res = q_quadrature(quad_request(ensemble, DEGENERATE_QUTRIT, 0.4))
            return res.q, res.error_estimate

        first = cell()
        ind._line_table.cache_clear()
        ind._table_union.cache_clear()  # which holds the fits' rows
        assert cell() == first  # fits built again
        assert cell() == first  # fits from the cache

    @pytest.mark.parametrize("ensemble", [EnsembleKind.BURES, EnsembleKind.BKM])
    @pytest.mark.parametrize("zeta", [1e-3, 0.0, 0.4, math.pi / 6, ZETA_MAX])
    def test_monotone_regular_polar_oracle(self, ensemble, zeta):
        # independent route: the polar chart turns the 2D simplex integrals
        # into iterated integrals over (radius, angle) with jacobian
        # proportional to the radius; the classical region is radially cut at
        # 1/(4 sqrt3 cos(phi/3 + zeta - pi/3)) and the full region at the
        # trisectrix, with the boundary singularity flattened by radius
        # substitution r = R (1 - t^k); at zeta = 1e-3 the classical cut
        # reaches t_c < 0.3 near phi = 0, where BKM's t log^2 t face sits
        from scipy.integrate import quad as scipy_quad
        from scalar_density import joint_density
        from wigner_classicality.spectra import DegeneracyType

        sqrt3 = math.sqrt(3.0)
        deg = DegeneracyType((1, 1, 1))
        k = 4 if ensemble is EnsembleKind.BKM else 2

        def eigs(r, phi):
            f = 2.0 * r / sqrt3
            return (1 / 3 - f * math.cos((phi + 2 * math.pi) / 3),
                    1 / 3 - f * math.cos((phi + 4 * math.pi) / 3),
                    1 / 3 - f * math.cos(phi / 3))

        def radial_classical(phi):
            rho = 1.0 / (4.0 * sqrt3 * math.cos(phi / 3 + zeta - math.pi / 3))
            return scipy_quad(
                lambda r: joint_density(ensemble, deg, eigs(r, phi), validate=False) * r,
                0.0, rho, epsabs=1e-16, epsrel=1e-9, limit=200,
            )[0]

        def radial_full(phi):
            R = 1.0 / (2.0 * sqrt3 * math.cos(phi / 3))

            def g(t):
                r = R * (1.0 - t ** k)
                r1, r2, _ = eigs(r, phi)
                r3 = t ** k / 3.0
                return joint_density(ensemble, deg, (r1, r2, r3), validate=False) * r * k * R * t ** (k - 1)

            return scipy_quad(g, 0.0, 1.0, epsabs=1e-16, epsrel=1e-9, limit=200)[0]

        num = scipy_quad(radial_classical, 0.0, math.pi, epsabs=1e-18, epsrel=1e-8, limit=200)[0]
        den = scipy_quad(radial_full, 0.0, math.pi, epsabs=1e-18, epsrel=1e-8, limit=200)[0]
        res = q_quadrature(quad_request(ensemble, REGULAR_QUTRIT, zeta))
        assert res.q == pytest.approx(num / den, rel=1e-6)

    def test_degenerate_edge_mixture_weight_hs(self):
        # both edges carry density proportional to r^4, so the (2,1) edge mass
        # relative to the whole stratum is (1/2)^5 / (1 + (1/2)^5) = 1/33
        assert _quadrature_edge_split(EnsembleKind.HILBERT_SCHMIDT) == pytest.approx(1.0 / 33.0, rel=1e-9)

    @pytest.mark.parametrize("ensemble", [EnsembleKind.BURES, EnsembleKind.BKM])
    def test_degenerate_edge_mixture_weight_monotone(self, ensemble):
        assert _quadrature_edge_split(ensemble) == pytest.approx(_monotone_edge_share(ensemble), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_degenerate_draws_split_by_edge_mass(self, ensemble):
        # one sampler over both edges draws each edge with its own mass, read
        # from no partition function: the (2,1) share of 1e6 draws (rows with
        # r1 == r2) matches the references above to 4 sigma (sigma <= 3.4e-4)
        n = 1_000_000
        blocks = stratum_spectra(ensemble, DEGENERATE_QUTRIT, n, np.random.default_rng(2026))
        eigs = np.concatenate(list(blocks))
        share = np.count_nonzero(eigs[:, 0] == eigs[:, 1]) / n
        expected = (1.0 / 33.0 if ensemble is EnsembleKind.HILBERT_SCHMIDT
                    else _monotone_edge_share(ensemble))
        assert abs(share - expected) <= 4.0 * math.sqrt(expected * (1.0 - expected) / n)


def _quadrature_edge_split(ensemble: EnsembleKind) -> float:
    """The (2,1) edge's share of the degenerate stratum in quadrature, G0_21 / (G0_21 + G0_12)."""
    g21, g12 = ind._line_table(ensemble, _EDGES)[2][:, 0]
    return g21 / (g21 + g12)


def _monotone_edge_share(ensemble: EnsembleKind) -> float:
    """The (2,1) edge's share of the degenerate stratum's mass, in mpmath.

    The documented edge densities written out by hand, with no package
    code: an edge is parametrised by its lone eigenvalue y in [0, 1/3],
    with spectrum (b, b, y), b = (1 - y)/2 and |d spectrum/dy| = sqrt(3/2)
    on the (2,1) edge, and (b, y, y), b = 1 - 2y and sqrt(6) on the (1,2)
    edge; both have pair power 2, so the density is
    (b - y)^4 c(b, y)^2 / sqrt(b y) with c = 2/(b + y) (Bures) or
    (ln b - ln y)/(b - y) (BKM); y = u^2 removes the 1/sqrt(y).
    """
    import mpmath as mp

    def c(b, y):
        if ensemble is EnsembleKind.BURES:
            return 2 / (b + y)
        return (mp.log(b) - mp.log(y)) / (b - y)

    def mass(big, jac):
        def f(u):
            y = u * u
            b = big(y)
            return (b - y) ** 4 * c(b, y) ** 2 / mp.sqrt(b * y) * jac * 2 * u
        return mp.quad(f, [0, mp.sqrt(mp.mpf(1) / 3)])

    with mp.workdps(30):
        z21 = mass(lambda y: (1 - y) / 2, mp.sqrt(mp.mpf(3) / 2))
        z12 = mass(lambda y: 1 - 2 * y, mp.sqrt(6))
        return float(z21 / (z21 + z12))


class TestDegenerateEdgeCutoff:
    # Degenerate-stratum indicators at zeta = 0: the documented edge densities
    # written out by hand and integrated in mpmath after the substitution
    # y = u^2; 30- and 40-digit runs agree in every digit shown.
    REFERENCE_ZETA0 = {
        EnsembleKind.BURES: 0.133066103629419521,
        EnsembleKind.BKM: 0.118741099662442279,
    }

    @pytest.mark.parametrize("ensemble", (EnsembleKind.BURES, EnsembleKind.BKM))
    def test_zeta0_matches_high_precision_reference(self, ensemble):
        ref = self.REFERENCE_ZETA0[ensemble]
        res = q_quadrature(quad_request(ensemble, DEGENERATE_QUTRIT, 0.0))
        assert res.q == pytest.approx(ref, rel=1e-9)
        assert res.error_estimate >= abs(res.q - ref)

    def test_phi0_edge_wholly_classical_at_zeta0(self):
        assert ind._edge_classical_cutoff((2, 1), 0.0) == 0.0

    @pytest.mark.parametrize("comp,phi", [((2, 1), 0.0), ((1, 2), math.pi)])
    def test_cutoff_matches_edge_bound(self, comp, phi):
        # y = 1/3 - (2 or 1) r / sqrt3 on the two edges
        per_radius = 2.0 if comp == (2, 1) else 1.0
        for zeta in np.linspace(0.0, ZETA_MAX, 13):
            radius = classical_edge_bound_qutrit(float(zeta), phi)
            expected = 1.0 / 3.0 - per_radius * radius / math.sqrt(3.0)
            assert ind._edge_classical_cutoff(comp, float(zeta)) == pytest.approx(expected, abs=1e-15)


def _series_cumulative(b, t) -> float:
    """sum_k b_k sin^2(k theta / 2) at 2 t^(1/4) - 1 = cos(theta), in 30-digit mpmath.

    sin^2(k theta / 2) = (1 - T_k(y)) / 2 with y = cos(theta), and the
    Chebyshev polynomials T_k come from their three-term recurrence.
    """
    import mpmath as mp

    with mp.workdps(30):
        y = 2 * mp.sqrt(mp.sqrt(mp.mpf(float(t)))) - 1
        prev, cur, total = mp.mpf(1), y, mp.mpf(0)
        for bk in b:
            total += mp.mpf(float(bk)) * (1 - cur)
            prev, cur = cur, 2 * y * cur - prev
        return total / 2


class TestRayFitRounding:
    # Each ray's G as read by _ray_read against an mpmath sum of the
    # same ray's own series: the difference is the read's rounding alone,
    # and must lie within the rounding term eps sum_k |b_k| times the
    # Lebesgue bound 1 + (2/pi) ln(n + 2) of the n + 2 Chebyshev points.
    ZETAS = (0.0, 0.3, math.pi / 6, 0.8, ZETA_MAX)

    @staticmethod
    def rounding_terms(b):
        lebesgue = 1.0 + 2.0 / math.pi * math.log(ind._RAY_DEGREE + 2)
        return np.finfo(float).eps * lebesgue * np.abs(b).sum(axis=1)

    def assert_within_rounding(self, h, b, t):
        got = ind._ray_read(ind._ray_weights(t), h)
        bound = self.rounding_terms(b)
        for row, (value, limit) in enumerate(zip(got, bound)):
            error = abs(float(value - _series_cumulative(b[row], t[row])))
            assert error <= limit, (row, float(t[row]), error / limit)

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_regular_rays(self, ensemble):
        u, _, h, _, _ = ind._regular_table(ensemble)
        x = ind._RAY_X
        spectra, area = _regular_chart(x ** 4, math.pi * u[:, None])
        rows = _density3_vec(ensemble, *spectra) * (area * 4.0 * x ** 3)
        b, _ = ind._ray_coefficients(rows)
        assert np.array_equal(ind._ray_fit(rows)[0], h)  # the table's own rays
        for zeta in self.ZETAS:
            self.assert_within_rounding(h, b, ind._regular_classical_cutoff(math.pi * u, zeta))

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_line_pieces(self, ensemble):
        x = ind._RAY_X
        qubit_cut = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0
        for pieces, cuts in [(((1, 1),), [[qubit_cut]]),
                             (_EDGES, [[ind._edge_classical_cutoff(comp, zeta) for comp in _EDGES]
                                       for zeta in self.ZETAS])]:
            h = ind._line_table(ensemble, pieces)[2]
            rows = np.array([_line_weight(ensemble, mult, x ** 4)[0] for mult in pieces]) * (4.0 * x ** 3)
            b, _ = ind._ray_coefficients(rows)
            assert np.array_equal(ind._ray_fit(rows)[0], h)
            for y_c in cuts:
                self.assert_within_rounding(h, b, (np.array(y_c) / _LINES[pieces[0]][0]) ** 0.25)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRayCumulativeNodes:
    # x = t^(1/4) on a Chebyshev point divides by zero in the barycentric
    # formula unless the point's value is read instead

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_ends_read_exact_values(self, ensemble):
        h = ind._regular_table(ensemble)[2]
        rows = np.ones(len(h))
        assert np.array_equal(ind._ray_read(ind._ray_weights(0.0 * rows), h), h[:, 0])  # G(0)
        assert np.array_equal(ind._ray_read(ind._ray_weights(rows), h), np.zeros(len(h)))

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_one_ulp_off_a_point_is_continuous(self, ensemble):
        # t next to x_j^4 puts x within a few ulps of x_j, where G moves by
        # the weight times that distance: far below 1e-12 of the largest h
        h = ind._regular_table(ensemble)[2]
        scale = np.abs(h).max()
        for j, xj in enumerate(ind._RAY_NODES):
            on_point = xj ** 4
            for t in (np.nextafter(on_point, 0.0), on_point, min(np.nextafter(on_point, 2.0), 1.0)):
                got = ind._ray_read(ind._ray_weights(np.full(len(h), t)), h)
                assert np.all(np.isfinite(got))
                assert np.allclose(got, (1.0 - xj) * h[:, j], rtol=0.0, atol=1e-12 * scale), (j, t)

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_degenerate_zeta0_cell_reads_the_x0_point(self, ensemble):
        # at zeta = 0 the (2,1) edge is wholly classical: y_c = 0, so its
        # t = 0 reads G(0) exactly from the x = 0 point (the cell's value is
        # checked against its reference in TestQuadratureAccuracy)
        _, _, h, den, _ = ind._line_table(ensemble, _EDGES)
        ((num,), _), = ind._table_integrals((ensemble,), "degenerate", [0.0])
        t_12 = (ind._edge_classical_cutoff((1, 2), 0.0) / _LINES[(1, 2)][0]) ** 0.25
        edges = ind._ray_read(ind._ray_weights(np.array([0.0, t_12])), h)
        assert edges[0] == h[0, 0]
        assert num == float(edges.sum()) and den[0] == float(h[:, 0].sum())


class TestRegularClassicalCutoff:
    @pytest.mark.parametrize("zeta", [0.0, 0.2, math.pi / 6, 0.8, ZETA_MAX])
    def test_cutoff_is_the_cone_boundary(self, zeta):
        # chart points a relative 1e-9 above t_c are classical and those
        # below are not, by the analytic cone and by the spectral pairing;
        # t_c = 0 only at phi = zeta = 0, which has no point below
        phis = np.linspace(0.0, math.pi, 25)
        t_c = ind._regular_classical_cutoff(phis, zeta)
        assert np.count_nonzero(t_c > 0.0) == (24 if zeta == 0.0 else 25)
        kernel = sw_spectrum_qutrit(zeta)
        for factor, classical in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
            ts = t_c * factor
            spectra, _ = _regular_chart(ts, phis)
            for phi, t, row in zip(phis, ts, np.column_stack(spectra)):
                if t == 0.0:
                    continue
                point = PolarPoint(trisectrix_boundary(phi) * (1.0 - t ** 4), phi)
                assert classical_cone_regular_qutrit(zeta, point) is classical
                assert (dual_pairing(OrderedSpectrum(tuple(row)), kernel) >= 0.0) is classical

def _ray_cumulative_028(h, t):
    """G(t) of ``_ray_fit``'s rows as version 0.2.8 read it (one t per row)."""
    x = np.sqrt(np.sqrt(t))
    d = np.subtract.outer(x, ind._RAY_NODES)
    on = ind._RAY_NODES[np.searchsorted(ind._RAY_NODES[:-1], x)] == x
    if on.any():
        d[on] = np.where(d[on] == 0.0, 1.0, np.inf)
    q = np.divide(ind._RAY_WEIGHTS, d, out=d)
    return (1.0 - x) * np.einsum("ij,ij->i", q, h) / q.sum(axis=1)


def _regular_classical_cutoff_028(phi, zeta):
    """``indicators._regular_classical_cutoff`` of version 0.2.8 (one zeta)."""
    a = phi / 3.0
    half = math.sin(zeta / 2.0)
    gap = (np.cos(a) * (math.sqrt(3.0) * math.sin(zeta) - 2.0 * half * half)
           + 2.0 * np.sin(a) * math.sin(math.pi / 3.0 - zeta))
    return np.sqrt(np.sqrt(gap / (2.0 * np.cos(a + zeta - math.pi / 3.0))))


@functools.lru_cache(maxsize=None)
def _regular_table_028(kind: EnsembleKind):
    """``indicators._regular_table`` of version 0.2.8: all 145 rays."""
    t = np.arange(-ind._TS_NODES, ind._TS_NODES + 1) * ind._TS_STEP
    s = math.pi * np.sinh(t)
    u = 1.0 / (1.0 + np.exp(-s))
    v = 1.0 / (1.0 + np.exp(s))
    w = math.pi * np.cosh(t) * u * v
    rules = np.zeros((2, t.size))
    rules[0] = w * (math.pi * ind._TS_STEP)
    rules[1, ::2] = w[::2] * (2.0 * math.pi * ind._TS_STEP)
    x = ind._RAY_X
    spectra, area = _regular_chart(x ** 4, math.pi * u[:, None])
    h, err = ind._ray_fit(_density3_vec(kind, *spectra) * (area * 4.0 * x ** 3))
    return u, rules, h, rules @ h[:, 0], float(rules[0] @ err)


def _regular_integrals_028(kind: EnsembleKind, zeta: float):
    """``indicators._regular_integrals`` of version 0.2.8 (one zeta)."""
    u, rules, h, den, fit_err = _regular_table_028(kind)
    num = rules @ _ray_cumulative_028(h, _regular_classical_cutoff_028(math.pi * u, zeta))
    return tuple((float(fine), abs(float(fine - coarse)) + fit_err) for fine, coarse in (num, den))


def _regular_cell_028(kind: EnsembleKind, zeta: float) -> tuple[float, float]:
    """``q_quadrature``'s value and error estimate of version 0.2.8 on the regular stratum."""
    (num, num_err), (den, den_err) = _regular_integrals_028(kind, zeta)
    q = num / den
    err = abs(q) * (num_err / num if num > 0.0 else 0.0) + abs(q) * den_err / den
    return min(max(q, 0.0), 1.0), err


def _quadrature_block_028(kinds, stratum, zetas):
    """``indicators._quadrature_block`` on the regular stratum from ``_regular_cell_028``."""
    assert stratum is REGULAR_QUTRIT
    return [tuple(map(list, zip(*(_regular_cell_028(kind, zeta) for zeta in zetas)))) for kind in kinds]


#: The benchmark's cold and warm curve grids: 61 angles, then 60 half a step off.
FIGURE_GRIDS = (np.linspace(0.0, ZETA_MAX, 61),
                np.linspace(math.pi / 360.0, ZETA_MAX - math.pi / 360.0, 60))


class TestPrunedTableBits:
    """The pruned ray table keeps every q bit of 0.2.8's 145 rays, and no error estimate shrinks.

    0.2.8's table and integrals are copied above, as ``test_ensembles``
    copies the 0.2.8 kernels.
    """

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_figure_grids(self, ensemble):
        # read through one call for all three ensembles, as the figures read them
        grid = np.concatenate(FIGURE_GRIDS)
        values, errors = ind.indicators(ALL_KINDS, REGULAR_QUTRIT, Method.QUADRATURE, grid)[ALL_KINDS.index(ensemble)]
        for zeta, q, err in zip(grid, values, errors):
            old_q, old_err = _regular_cell_028(ensemble, zeta)
            assert q.hex() == old_q.hex(), zeta
            # the dropped rays' mass is added to the error term
            assert err >= old_err, zeta
            assert err <= old_err * (1.0 + 1e-10)

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_minima(self, monkeypatch, ensemble):
        new = minimize_q_over_zeta(ensemble, REGULAR_QUTRIT, Method.QUADRATURE)
        monkeypatch.setattr(ind, "_quadrature_block", _quadrature_block_028)
        old = minimize_q_over_zeta(ensemble, REGULAR_QUTRIT, Method.QUADRATURE)
        assert [v.hex() for v in new] == [v.hex() for v in old]

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_kept_rays(self, ensemble):
        # every dropped ray weighs at most 1e-26 of the denominator, every kept one more
        u, rules, h, den, fit_err = ind._regular_table(ensemble)
        u_all, rules_all, h_all, den_all, fit_err_all = _regular_table_028(ensemble)
        kept = np.isin(u_all, u)
        assert np.count_nonzero(kept) == {EnsembleKind.HILBERT_SCHMIDT: 84, EnsembleKind.BURES: 89,
                                          EnsembleKind.BKM: 90}[ensemble]
        assert np.array_equal(h, h_all[kept]) and np.array_equal(rules, rules_all[:, kept])
        mass = rules_all[0] * h_all[:, 0] / den_all[0]
        assert mass[~kept].max() <= ind._ROW_MASS_FLOOR < mass[kept].min()
        assert np.array_equal(den, den_all)
        dropped = rules_all.sum(axis=0)[~kept] @ h_all[~kept, 0]
        assert fit_err == fit_err_all + dropped and dropped < 2e-26 * den[0]


class TestQuadratureBlocks:
    """A cell of a grid is bit for bit the cell alone: a block shares tables, weights and array calls, no arithmetic."""

    STEP = ZETA_MAX / 60

    @pytest.mark.parametrize("grid", [
        [0.0], [ZETA_MAX], *(np.linspace(0.0, ZETA_MAX, n) for n in (7, 8, 9, 61)),
        np.linspace(STEP / 2, ZETA_MAX - STEP / 2, 60),
    ], ids=["zero", "top", "7", "8", "9", "61", "shifted60"])
    @pytest.mark.parametrize("stratum", [REGULAR_QUTRIT, DEGENERATE_QUTRIT], ids=["regular", "degenerate"])
    @pytest.mark.parametrize("ensembles", [
        *((kind,) for kind in ALL_KINDS), (EnsembleKind.BURES, EnsembleKind.BKM), ALL_KINDS,
    ], ids=lambda kinds: "+".join(map(str, kinds)))
    def test_cell_does_not_depend_on_its_block(self, ensembles, stratum, grid):
        curves = ind.indicators(ensembles, stratum, Method.QUADRATURE, grid)
        assert len(curves) == len(ensembles)
        for ensemble, (values, errors) in zip(ensembles, curves):
            assert len(values) == len(errors) == len(grid)
            for zeta, q, err in zip(grid, values, errors):
                alone = q_quadrature(quad_request(ensemble, stratum, float(zeta)))
                assert (q.hex(), err.hex()) == (alone.q.hex(), alone.error_estimate.hex())

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_qubit_is_a_block_of_one(self, ensemble):
        (((q,), (err,)),) = ind.indicators((ensemble,), QUBIT_STRATUM, Method.QUADRATURE, [None])
        alone = q_quadrature(quad_request(ensemble, QUBIT_STRATUM))
        assert (q, err) == (alone.q, alone.error_estimate)

    def test_qubit_ensembles_share_one_read(self):
        curves = ind.indicators(ALL_KINDS, QUBIT_STRATUM, Method.QUADRATURE, [None])
        assert curves == [([alone.q], [alone.error_estimate])
                          for alone in (q_quadrature(quad_request(kind, QUBIT_STRATUM)) for kind in ALL_KINDS)]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("stratum", [QUBIT_STRATUM, REGULAR_QUTRIT, DEGENERATE_QUTRIT],
                             ids=["qubit", "regular", "degenerate"])
    def test_other_methods_run_in_blocks(self, monkeypatch, stratum, workers):
        grid = np.linspace(0.0, ZETA_MAX, 5)
        ((closed, errors),) = ind.indicators((EnsembleKind.HILBERT_SCHMIDT,), DEGENERATE_QUTRIT,
                                             Method.CLOSED_FORM, grid)
        assert closed == [q_hs_qutrit_degenerate_closed_form(float(z)).q for z in grid]
        assert errors == [0.0] * len(grid)
        # a Monte Carlo grid counts every angle on the draws of one stream,
        # 11 angles (not a multiple of _ZETA_BLOCK), each cell as it is alone
        samplers = []
        build = ind._stratum_sampler
        monkeypatch.setattr(ind, "_stratum_sampler", lambda *args: samplers.append(args) or build(*args))
        grid = [None] * 11 if stratum.n == 2 else [float(z) for z in np.linspace(0.0, ZETA_MAX, 11)]
        options = dict(samples=2000, seed=5, workers=workers)
        curves = ind.indicators(ALL_KINDS, stratum, Method.MONTE_CARLO, grid, **options)
        assert len(samplers) == len(ALL_KINDS) * workers
        for kind, curve in zip(ALL_KINDS, curves):
            cells = [q_monte_carlo(IndicatorRequest(ensemble=kind, stratum=stratum, method=Method.MONTE_CARLO,
                                                    zeta=z, **options)) for z in grid]
            assert curve == ([r.q for r in cells], [r.error_estimate for r in cells])
        samplers.clear()
        assert ind.indicators(ALL_KINDS, stratum, Method.MONTE_CARLO, [], **options) == [([], [])] * 3
        assert samplers == []

    @pytest.mark.parametrize("stratum,zetas,blocks", [
        (REGULAR_QUTRIT, np.linspace(0.0, ZETA_MAX, 61), 8),
        (DEGENERATE_QUTRIT, np.linspace(0.0, ZETA_MAX, 61), 8),
        (QUBIT_STRATUM, [None], 1),
    ], ids=["regular", "degenerate", "qubit"])
    def test_ensembles_share_the_weights_of_a_block(self, monkeypatch, stratum, zetas, blocks):
        # a 61-angle grid is 8 blocks and the qubit one, and each block builds
        # one set of barycentric weights for all three ensembles, not one per
        # ensemble, over the union of their rows: 91 rays, 2 edges or 1 piece
        calls = []
        weights = ind._ray_weights
        monkeypatch.setattr(ind, "_ray_weights", lambda t: calls.append(np.shape(t)) or weights(t))
        ind.indicators(ALL_KINDS, stratum, Method.QUADRATURE, zetas)
        assert len(calls) == blocks
        rows = {REGULAR_QUTRIT: 91, DEGENERATE_QUTRIT: 2, QUBIT_STRATUM: 1}[stratum]
        assert calls[0] == (min(len(zetas), 8), rows)
        assert rows == len(ind._table_union(ALL_KINDS, ind._stratum_kind(stratum))[0])

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        # a 61-angle curve holds one block's (angle, ray, point) weight array
        # at a time, 0.76 MB, which all three ensembles share; one such array
        # per ensemble at once would take 2.3 MB, and the whole grid at once
        # holds 5.8 MB arrays: both fail
        grid = np.linspace(0.0, ZETA_MAX, 61)

        def peak(kinds, zetas):
            tracemalloc.start()
            try:
                ind.indicators(kinds, REGULAR_QUTRIT, Method.QUADRATURE, zetas)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # tables built outside the compared peaks
        ind.indicators(ALL_KINDS, REGULAR_QUTRIT, Method.QUADRATURE, grid[:1])
        ind.indicators((EnsembleKind.BKM,), REGULAR_QUTRIT, Method.QUADRATURE, grid[:1])
        single = peak((EnsembleKind.BKM,), grid[:1])
        assert peak((EnsembleKind.BKM,), grid) - single < 2 << 20
        assert peak(ALL_KINDS, grid) - single < 2 << 20
        monkeypatch.setattr(ind, "_ZETA_BLOCK", len(grid))
        assert peak((EnsembleKind.BKM,), grid) - single > 2 << 20


class TestQuadratureAccuracy:
    @pytest.mark.parametrize("ensemble,zeta,reference", [
        # the table1 minima: REGULAR_REFERENCE to 11 digits
        (EnsembleKind.BURES, 0.525096, 8.9102377997e-5),
        (EnsembleKind.BKM, 0.527798, 1.2160539802e-5),
    ])
    def test_regular_minimum_matches_high_precision_reference(self, ensemble, zeta, reference):
        res = q_quadrature(quad_request(ensemble, REGULAR_QUTRIT, zeta))
        assert res.q == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("grid", FIGURE_GRIDS, ids=["cold61", "warm60"])
    @pytest.mark.parametrize("stratum,closed", [
        (REGULAR_QUTRIT, q_hs_qutrit_regular_closed_form),
        (DEGENERATE_QUTRIT, q_hs_qutrit_degenerate_closed_form),
    ], ids=["regular", "degenerate"])
    def test_hs_matches_closed_form(self, stratum, closed, grid):
        # the numerator is a thin sliver near t = 1, summed from one series
        # per ray that is anchored at t = 1
        for zeta in grid:
            res = q_quadrature(quad_request(EnsembleKind.HILBERT_SCHMIDT, stratum, float(zeta)))
            ref = closed(float(zeta)).q
            assert res.q == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert res.error_estimate >= abs(res.q - ref)

    @pytest.mark.parametrize("ensemble,stratum,zeta,reference", [
        *[(kind, QUBIT_STRATUM, None, q_qubit_closed_form(kind).q) for kind in ALL_KINDS],
        *[(EnsembleKind.HILBERT_SCHMIDT, stratum, zeta, closed(zeta).q)
          for stratum, closed in ((REGULAR_QUTRIT, q_hs_qutrit_regular_closed_form),
                                  (DEGENERATE_QUTRIT, q_hs_qutrit_degenerate_closed_form))
          for zeta in (0.0, 0.4, ZETA_MAX)],
        *[(kind, DEGENERATE_QUTRIT, 0.0, ref)
          for kind, ref in TestDegenerateEdgeCutoff.REFERENCE_ZETA0.items()],
        *[(kind, REGULAR_QUTRIT, zeta, ref) for (kind, zeta), ref in REGULAR_REFERENCE.items()],
    ])
    def test_error_estimate_covers_independent_reference(self, ensemble, stratum, zeta, reference):
        # closed forms and high-precision integrals, none computed by quadrature;
        # abs=0.0 drops approx's default absolute 1e-12, which is 1e-7 of Q near 1e-5
        res = q_quadrature(quad_request(ensemble, stratum, zeta))
        assert res.q == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert res.error_estimate >= abs(res.q - reference)

    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_error_estimate_is_not_inflated(self, ensemble):
        # the estimate follows the fixed rule's accuracy, not a tolerance
        for zeta in np.linspace(0.0, ZETA_MAX, 61):
            res = q_quadrature(quad_request(ensemble, REGULAR_QUTRIT, float(zeta)))
            assert res.error_estimate <= 1e-9 * res.q

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(wigner_classicality.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = ("import sys, wigner_classicality, wigner_classicality.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"


class TestRequestValidation:
    def test_closed_form_unavailable_for_monotone_qutrit(self):
        req = IndicatorRequest(ensemble=EnsembleKind.BURES, stratum=REGULAR_QUTRIT,
                               method=Method.CLOSED_FORM, zeta=0.1)
        with pytest.raises(UnsupportedRequestError):
            compute_indicator(req)

    def test_zeta_required_for_qutrit(self):
        req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=REGULAR_QUTRIT,
                               method=Method.QUADRATURE)
        with pytest.raises(UnsupportedRequestError):
            compute_indicator(req)

    def test_zeta_forbidden_for_qubit(self):
        req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=QUBIT_STRATUM,
                               method=Method.QUADRATURE, zeta=0.1)
        with pytest.raises(UnsupportedRequestError):
            compute_indicator(req)

    def test_zeta_range(self):
        req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=REGULAR_QUTRIT,
                               method=Method.QUADRATURE, zeta=2.0)
        with pytest.raises(UnsupportedRequestError):
            compute_indicator(req)

    def test_mc_needs_samples_and_seed(self):
        req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=REGULAR_QUTRIT,
                               method=Method.MONTE_CARLO, zeta=0.1, samples=1000)
        with pytest.raises(UnsupportedRequestError):
            compute_indicator(req)
        req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=REGULAR_QUTRIT,
                               method=Method.MONTE_CARLO, zeta=0.1, seed=1)
        with pytest.raises(UnsupportedRequestError):
            compute_indicator(req)
        # counts that are not integers: 10.5 samples would draw 10 and divide by 10
        for counts in ({"samples": 10.5, "seed": 1}, {"samples": 100.0, "seed": 1},
                       {"samples": 100, "seed": 1.5}, {"samples": 100, "seed": 1, "workers": 2.0},
                       {"samples": "100", "seed": 1}):
            req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=REGULAR_QUTRIT,
                                   method=Method.MONTE_CARLO, zeta=0.1, **counts)
            with pytest.raises(UnsupportedRequestError):
                compute_indicator(req)
        # integers of any integral type are counts
        req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=QUBIT_STRATUM,
                               method=Method.MONTE_CARLO, samples=np.int64(100), seed=np.uint64(1),
                               workers=np.int32(2))
        assert compute_indicator(req) == compute_indicator(IndicatorRequest(
            ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=QUBIT_STRATUM, method=Method.MONTE_CARLO,
            samples=100, seed=1, workers=2))

    @pytest.mark.parametrize("method,kinds,zetas,options", [
        *((method, ALL_KINDS, [0.0, 0.5, 2.0, 0.7, ZETA_MAX], {"samples": 100, "seed": 1}) for method in Method),
        (Method.CLOSED_FORM, ALL_KINDS, [0.0, 0.5, ZETA_MAX], {}),
        (Method.MONTE_CARLO, ALL_KINDS, [0.0, 0.5, ZETA_MAX], {"seed": 1}),
        (Method.QUADRATURE, (EnsembleKind.HILBERT_SCHMIDT, "bures"), [0.0, 0.5], {}),
        (Method.MONTE_CARLO, ALL_KINDS, [0.0, "0.5"], {"samples": 100, "seed": 1}),
    ], ids=["zeta-closed", "zeta-quad", "zeta-mc", "bures-closed", "mc-no-samples", "kind-str", "zeta-str"])
    def test_one_bad_cell_fails_the_grid(self, method, kinds, zetas, options):
        # the grid raises the first error that its cells would raise one by one
        def first_error(call):
            with pytest.raises(UnsupportedRequestError) as err:
                call()
            return str(err.value)

        def cell_by_cell():
            for kind in kinds:
                for zeta in zetas:
                    IndicatorRequest(ensemble=kind, stratum=REGULAR_QUTRIT, method=method, zeta=zeta,
                                     **options).validate()

        grid = first_error(lambda: ind.indicators(kinds, REGULAR_QUTRIT, method, zetas, **options))
        assert grid == first_error(cell_by_cell)

    @pytest.mark.parametrize("fields,message", [
        ({"ensemble": "hs"}, "unknown ensemble 'hs'"),
        ({"ensemble": "hs", "method": Method.CLOSED_FORM}, "unknown ensemble 'hs'"),
        ({"ensemble": "hs", "method": Method.MONTE_CARLO, "samples": 100, "seed": 1}, "unknown ensemble 'hs'"),
        ({"zeta": "0.3"}, "zeta must be a real number, got '0.3'"),
        ({"method": Method.MONTE_CARLO, "samples": 100, "seed": 1, "workers": None}, "worker count must be positive"),
        ({"method": "quad"}, "unknown method 'quad'"),
    ], ids=["ensemble-quad", "ensemble-closed", "ensemble-mc", "zeta-str", "workers-none", "method-str"])
    def test_wrong_typed_field_is_unsupported(self, fields, message):
        # a field of the wrong type fails validation, not with a TypeError or
        # AttributeError from deep in the computation
        req = IndicatorRequest(**{"ensemble": EnsembleKind.HILBERT_SCHMIDT, "stratum": REGULAR_QUTRIT,
                                  "method": Method.QUADRATURE, "zeta": 0.3, **fields})
        for call in (IndicatorRequest.validate, compute_indicator):
            with pytest.raises(UnsupportedRequestError) as err:
                call(req)
            assert str(err.value) == message

    def test_unsupported_dimension(self):
        stratum = StratumLabel.for_partition((1, 1, 1, 1))
        req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=stratum,
                               method=Method.QUADRATURE, zeta=None)
        with pytest.raises(UnsupportedRequestError):
            compute_indicator(req)

    @pytest.mark.parametrize("stratum,method,angle,options,message", [
        (REGULAR_QUTRIT, Method.CLOSED_FORM, 0.1, {}, "no closed form for (bures, N=3); use quadrature"),
        (StratumLabel.for_partition((1, 1, 1, 1)), Method.QUADRATURE, None, {}, "unsupported dimension N=4"),
        (REGULAR_QUTRIT, Method.MONTE_CARLO, 0.1, {"seed": 1}, "Monte Carlo requests need a positive sample count"),
    ], ids=["bures-closed", "dimension-4", "mc-no-samples"])
    def test_empty_grid_is_checked(self, stratum, method, angle, options, message):
        # a grid with no angle gets every check that depends on no angle, so
        # it raises what the grid of one angle raises
        for zetas in ([angle], []):
            with pytest.raises(UnsupportedRequestError) as err:
                ind.indicators((EnsembleKind.BURES,), stratum, method, zetas, **options)
            assert str(err.value) == message

    def test_no_request_is_built_to_validate(self, monkeypatch):
        cells = {method: IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=REGULAR_QUTRIT,
                                          method=method, zeta=0.3, **options)
                 for method, options in ((Method.CLOSED_FORM, {}), (Method.QUADRATURE, {}),
                                         (Method.MONTE_CARLO, {"samples": 100, "seed": 1}))}
        built = []

        class Counting(IndicatorRequest):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ind, "IndicatorRequest", Counting)
        grid = np.linspace(0.0, ZETA_MAX, 61)
        # every ensemble has a closed form on the point stratum
        for stratum, method, options in ((StratumLabel.for_partition((3,)), Method.CLOSED_FORM, {}),
                                         (REGULAR_QUTRIT, Method.QUADRATURE, {}),
                                         (REGULAR_QUTRIT, Method.MONTE_CARLO, {"samples": 100, "seed": 1})):
            ind.indicators(ALL_KINDS, stratum, method, grid, **options)
            assert built == [], method
        for request in cells.values():
            compute_indicator(request)
            assert built == [], request.method

    def test_result_range_validation(self):
        req = IndicatorRequest(ensemble=EnsembleKind.HILBERT_SCHMIDT, stratum=QUBIT_STRATUM,
                               method=Method.CLOSED_FORM)
        with pytest.raises(ValueError):
            IndicatorResult(q=1.5, method=Method.CLOSED_FORM, error_estimate=0.0, request=req)
        with pytest.raises(ValueError):
            IndicatorResult(q=0.5, method=Method.CLOSED_FORM, error_estimate=-1.0, request=req)


class TestMonteCarlo:
    def mc_request(self, ensemble, stratum, zeta, n, seed, workers=1):
        return IndicatorRequest(ensemble=ensemble, stratum=stratum, method=Method.MONTE_CARLO,
                                zeta=zeta, samples=n, seed=seed, workers=workers)

    def test_qubit_hs_within_three_sigma(self):
        n = 1_000_000
        res = q_monte_carlo(self.mc_request(EnsembleKind.HILBERT_SCHMIDT, QUBIT_STRATUM, None, n, 5))
        ref = QUBIT_REFERENCE[EnsembleKind.HILBERT_SCHMIDT]
        sigma = math.sqrt(ref * (1 - ref) / n)
        assert abs(res.q - ref) <= 3.0 * sigma
        assert res.error_estimate == pytest.approx(sigma, rel=0.05)

    def test_deterministic_given_seed_and_workers(self):
        req = self.mc_request(EnsembleKind.BURES, REGULAR_QUTRIT, 0.3, 50_000, 12, workers=3)
        assert q_monte_carlo(req).q == q_monte_carlo(req).q

    def test_worker_split_covers_all_samples(self):
        req = self.mc_request(EnsembleKind.HILBERT_SCHMIDT, QUBIT_STRATUM, None, 100_001, 3, workers=7)
        res = q_monte_carlo(req)
        assert 0.0 <= res.q <= 1.0

    def test_zero_hits_one_sided_bound(self):
        # essentially no classical states will appear in 50 draws here
        req = self.mc_request(EnsembleKind.BKM, REGULAR_QUTRIT, math.pi / 6, 50, 7)
        res = q_monte_carlo(req)
        assert res.q == 0.0
        assert res.error_estimate == pytest.approx(3.0 / 50.0)

    def test_degenerate_stratum_mixture(self):
        req = self.mc_request(EnsembleKind.HILBERT_SCHMIDT, DEGENERATE_QUTRIT, math.pi / 6, 200_000, 21)
        res = q_monte_carlo(req)
        ref = q_hs_qutrit_degenerate_closed_form(math.pi / 6).q
        sigma = math.sqrt(ref * (1 - ref) / 200_000)
        assert abs(res.q - ref) <= 4.0 * sigma

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """Run chunks serially as if the process may run on 2 CPUs; returns the requested pool sizes."""
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(ind, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(ind, "_usable_cpus", lambda: 2)
        return pools

    def test_thread_pool_capped_at_cpu_count(self, serial_pool):
        req = self.mc_request(EnsembleKind.HILBERT_SCHMIDT, QUBIT_STRATUM, None, 640, 9, workers=64)
        res = q_monte_carlo(req)
        assert serial_pool == [2]
        # chunks and their seeds still follow the requested worker count
        kernels = [sw_spectrum_qubit().as_array()]
        hits = sum(ind._mc_chunk_hits(req.ensemble, req.stratum, kernels, 10, worker_seed(9, i))[0]
                   for i in range(64))
        assert res.q == hits / 640

    def test_one_usable_cpu_starts_no_pool(self, monkeypatch, serial_pool):
        req = self.mc_request(EnsembleKind.HILBERT_SCHMIDT, QUBIT_STRATUM, None, 640, 9, workers=64)
        two = q_monte_carlo(req)
        monkeypatch.setattr(ind, "_usable_cpus", lambda: 1)
        one = q_monte_carlo(req)
        # threads only group chunks, so the count is the same
        assert serial_pool == [2]
        assert one.q == two.q

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        # a process pinned to one CPU of a larger host
        monkeypatch.setattr(ind.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(ind.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert ind._usable_cpus() == 1
        monkeypatch.delattr(ind.os, "sched_getaffinity")
        assert ind._usable_cpus() == 64
        monkeypatch.setattr(ind.os, "cpu_count", lambda: None)
        assert ind._usable_cpus() == 1

    def test_empty_chunks_are_not_seeded(self, monkeypatch, serial_pool):
        seeded = []

        def counting_seed(master, index):
            seeded.append(index)
            return worker_seed(master, index)

        monkeypatch.setattr(ind, "worker_seed", counting_seed)
        huge = q_monte_carlo(self.mc_request(EnsembleKind.HILBERT_SCHMIDT, QUBIT_STRATUM, None,
                                             10, 9, workers=10 ** 6))
        assert seeded == list(range(10))
        assert serial_pool == [2]
        ten = q_monte_carlo(self.mc_request(EnsembleKind.HILBERT_SCHMIDT, QUBIT_STRATUM, None,
                                            10, 9, workers=10))
        assert huge.q == ten.q

    def test_memory_does_not_grow_with_workers(self):
        # each thread seeds and counts its chunks one at a time; the chunks
        # of 2000 workers, all held at once, peaked at 3.5 MB against 0.2 MB for 64
        def peak(workers):
            req = self.mc_request(EnsembleKind.HILBERT_SCHMIDT, QUBIT_STRATUM, None, 20_000, 3, workers=workers)
            tracemalloc.start()
            try:
                q_monte_carlo(req)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # builds the envelope table outside the compared peaks
        assert abs(peak(2000) - peak(64)) < 1 << 20

    @pytest.mark.parametrize("ensemble,stratum,zeta", [
        (EnsembleKind.BKM, QUBIT_STRATUM, None),
        (EnsembleKind.HILBERT_SCHMIDT, REGULAR_QUTRIT, math.pi / 6),
    ], ids=["bkm-qubit", "hs-regular"])
    def test_chunk_hits_stream_in_blocks(self, monkeypatch, ensemble, stratum, zeta):
        block = SpectrumSampler._CHUNK
        n = 2 * block + 7
        sampler = SpectrumSampler(ensemble, stratum.degeneracy, rng=np.random.default_rng(8))
        req = self.mc_request(ensemble, stratum, zeta, n, 1)
        kernel = (sw_spectrum_qubit() if zeta is None else sw_spectrum_qutrit(zeta)).as_array()
        expected = int(np.count_nonzero(_is_classical(sampler.sample(n).T, kernel)))

        batches, rows = [], []
        draw, tiles = SpectrumSampler._draw, SpectrumSampler._tiles

        def draw_spy(self, m):
            batches.append(m)
            return draw(self, m)

        def tiles_spy(self, m):
            for columns in tiles(self, m):
                rows.append(len(columns[0]))
                yield columns

        monkeypatch.setattr(SpectrumSampler, "_draw", draw_spy)
        monkeypatch.setattr(SpectrumSampler, "_tiles", tiles_spy)
        assert ind._mc_chunk_hits(ensemble, stratum, [kernel], n, 8) == [expected]
        assert max(batches) <= block and max(rows) <= SpectrumSampler._TILE and sum(rows) == n

    @pytest.mark.parametrize("method", list(Method), ids=[m.value for m in Method])
    @pytest.mark.parametrize("point", [(2,), (3,)], ids=["qubit", "qutrit"])
    def test_point_stratum_all_classical(self, monkeypatch, method, point):
        # every method answers a point once, before dispatch: Q = 1 and error 0
        # per cell, with no sampler built, no chunk seeded and no thread started
        calls = []
        monkeypatch.setattr(ind, "_stratum_sampler", lambda *args: calls.append("sampler"))
        monkeypatch.setattr(ind, "worker_seed", lambda *args: calls.append("seed"))
        monkeypatch.setattr(ind, "ThreadPoolExecutor", lambda *args, **kwargs: calls.append("pool"))
        stratum = StratumLabel.for_partition(point)
        zetas = [None] if point == (2,) else [0.0, 0.3, ZETA_MAX]
        options = dict(samples=100, seed=1, workers=3) if method is Method.MONTE_CARLO else {}
        for kind in ALL_KINDS:
            cell = compute_indicator(IndicatorRequest(ensemble=kind, stratum=stratum, method=method,
                                                      zeta=zetas[-1], **options))
            assert (cell.q, cell.error_estimate) == (1.0, 0.0)
        grid = ind.indicators(ALL_KINDS, stratum, method, zetas, **options)
        assert grid == [([1.0] * len(zetas), [0.0] * len(zetas))] * len(ALL_KINDS)
        assert ind.indicators(ALL_KINDS, stratum, method, [], **options) == [([], [])] * len(ALL_KINDS)
        assert calls == []


#: The layout of the search that ``_minima`` replaced: a 61-point scan, then
#: golden section down to a bracket of 1e-6.
GOLDEN_GRID_POINTS = 61
GOLDEN_RESOLUTION = 1e-6
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimum_reference(ensemble, stratum, method):
    """(zeta_min, q_min, asymmetry, steps) by the one-kind golden-section search that ``_minima`` replaced.

    The 61-point scan, then golden section with one ``compute_indicator``
    cell per step, then ``asymmetry``'s own two-angle read.
    """
    def q_of(zeta):
        return compute_indicator(IndicatorRequest(ensemble=ensemble, stratum=stratum, method=method, zeta=zeta)).q

    grid = np.linspace(0.0, ZETA_MAX, GOLDEN_GRID_POINTS)
    ((values, _),) = ind.indicators((ensemble,), stratum, method, grid)
    i = int(np.argmin(values))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = q_of(c), q_of(d)
    steps = 0
    while (b - a) > GOLDEN_RESOLUTION:
        steps += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = q_of(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = q_of(d)
    zeta_min = 0.5 * (a + b)
    return zeta_min, q_of(zeta_min), asymmetry(ensemble, stratum, method), steps


def _hex_minima(minima):
    return [tuple(float(v).hex() for v in row) for row in minima]


#: The cases of ``_minima``: every kind by quadrature, and HS by closed form.
MINIMA_CASES = [(ALL_KINDS, Method.QUADRATURE), ((EnsembleKind.HILBERT_SCHMIDT,), Method.CLOSED_FORM)]
QUTRIT_STRATA = [REGULAR_QUTRIT, DEGENERATE_QUTRIT]


class TestModuliUtilities:
    def test_minimize_hs_closed(self):
        zeta_min, q_min = minimize_q_over_zeta(
            EnsembleKind.HILBERT_SCHMIDT, REGULAR_QUTRIT, Method.CLOSED_FORM
        )
        assert abs(zeta_min - math.pi / 6) <= 1e-6
        assert q_min == pytest.approx(21.0 / 31104.0, rel=1e-10, abs=0)

    def test_minimize_hs_degenerate_closed(self):
        zeta_min, q_min = minimize_q_over_zeta(
            EnsembleKind.HILBERT_SCHMIDT, DEGENERATE_QUTRIT, Method.CLOSED_FORM
        )
        assert abs(zeta_min - math.pi / 6) <= 1e-6
        assert q_min == pytest.approx(2.0 * (2.0 / math.sqrt(3.0)) ** 5 / 1056.0, rel=1e-10)

    def test_minimize_requires_qutrit(self):
        with pytest.raises(UnsupportedRequestError):
            minimize_q_over_zeta(EnsembleKind.BURES, QUBIT_STRATUM, Method.QUADRATURE)
        # the moduli scans take no sample count, so Monte Carlo fails validation
        for scan in (minimize_q_over_zeta, asymmetry):
            with pytest.raises(UnsupportedRequestError):
                scan(EnsembleKind.BURES, REGULAR_QUTRIT, Method.MONTE_CARLO)

    @pytest.mark.parametrize("stratum", QUTRIT_STRATA, ids=["regular", "degenerate"])
    @pytest.mark.parametrize("kinds, method", MINIMA_CASES, ids=["quad", "closed"])
    def test_minima_of_several_kinds_are_each_kind_alone(self, kinds, method, stratum):
        minima = ind._minima(kinds, stratum, method)
        assert _hex_minima(minima) == _hex_minima([ind._minima((kind,), stratum, method)[0] for kind in kinds])
        for kind, row in zip(kinds, minima):
            assert _hex_minima([minimize_q_over_zeta(kind, stratum, method)]) == _hex_minima([row[:2]])

    @pytest.mark.parametrize("stratum", QUTRIT_STRATA, ids=["regular", "degenerate"])
    @pytest.mark.parametrize("kinds, method", MINIMA_CASES, ids=["quad", "closed"])
    def test_minima_within_golden_resolution(self, kinds, method, stratum):
        # golden section stops at a 1e-6 bracket: the interpolant's zeta_min
        # lies within it, and its q_min is no higher
        for kind, (zeta_min, q_min, asym) in zip(kinds, ind._minima(kinds, stratum, method)):
            zeta_ref, q_ref, asym_ref, _ = _golden_minimum_reference(kind, stratum, method)
            assert abs(zeta_min - zeta_ref) <= GOLDEN_RESOLUTION
            assert q_min <= q_ref
            assert asym.hex() == asym_ref.hex()

    @pytest.mark.parametrize("stratum", QUTRIT_STRATA, ids=["regular", "degenerate"])
    @pytest.mark.parametrize("method", [Method.CLOSED_FORM, Method.QUADRATURE], ids=["closed", "quad"])
    def test_hs_minimum_at_pi_over_6(self, method, stratum):
        # both HS curves are symmetric about pi/6; golden section left 2.7e-7
        zeta_min, _ = minimize_q_over_zeta(EnsembleKind.HILBERT_SCHMIDT, stratum, method)
        assert abs(zeta_min - math.pi / 6) <= 1e-12

    def test_parabola_minima_inside_and_at_both_ends(self, monkeypatch):
        # a grid minimum at an end point brackets one grid step, where the
        # slope keeps its sign and the lower end is taken
        targets = {EnsembleKind.HILBERT_SCHMIDT: 0.0, EnsembleKind.BURES: 0.4, EnsembleKind.BKM: ZETA_MAX}
        calls = []

        def parabolas(kinds, stratum, zetas):
            calls.append((len(kinds), len(zetas)))
            return [([(float(z) - targets[kind]) ** 2 for z in zetas], [0.0] * len(zetas)) for kind in kinds]

        monkeypatch.setattr(ind, "_quadrature_block", parabolas)
        minima = ind._minima(ALL_KINDS, REGULAR_QUTRIT, Method.QUADRATURE)
        # scan, every kind's bracket points, every zeta_min
        assert calls == [(3, ind.MINIMIZER_GRID_POINTS), (3, 3 * ind._MINIMIZER_NODES), (3, 3)]
        for (zeta_min, q_min, asym), target in zip(minima, targets.values()):
            assert abs(zeta_min - target) <= 1e-12 and q_min <= 1e-24
            assert asym == target ** 2 - (ZETA_MAX - target) ** 2

    @staticmethod
    def _bracket_reads(monkeypatch, kinds, stratum, method):
        """Per kind, the angles and values of ``_minima``'s read of its bracket, spied on ``indicators``."""
        grid_reads = []
        indicators = ind.indicators

        def spy(ensembles, stratum, method, zetas, **options):
            result = indicators(ensembles, stratum, method, zetas, **options)
            grid_reads.append((list(zetas), result))
            return result

        monkeypatch.setattr(ind, "indicators", spy)
        ind._minima(kinds, stratum, method)
        assert len(grid_reads) == 3
        zetas, curves = grid_reads[1]
        n = ind._MINIMIZER_NODES
        return [(zetas[k * n:(k + 1) * n], values[k * n:(k + 1) * n]) for k, (values, _) in enumerate(curves)]

    @pytest.mark.parametrize("stratum", QUTRIT_STRATA, ids=["regular", "degenerate"])
    def test_coarse_brackets_hold_the_fine_grid_minimum(self, monkeypatch, stratum):
        fine = np.linspace(0.0, ZETA_MAX, GOLDEN_GRID_POINTS)
        curves = ind.indicators(ALL_KINDS, stratum, Method.QUADRATURE, fine)
        reads = self._bracket_reads(monkeypatch, ALL_KINDS, stratum, Method.QUADRATURE)
        for (values, _), (angles, _) in zip(curves, reads):
            assert angles == sorted(angles)
            assert angles[0] <= fine[int(np.argmin(values))] <= angles[-1]

    @pytest.mark.parametrize("stratum", QUTRIT_STRATA, ids=["regular", "degenerate"])
    @pytest.mark.parametrize("kinds, method", MINIMA_CASES, ids=["quad", "closed"])
    def test_bracket_interpolants_resolve_q(self, monkeypatch, kinds, method, stratum):
        # Q is analytic far beyond each bracket: the series' last two
        # coefficients fall to rounding level
        for _, values in self._bracket_reads(monkeypatch, kinds, stratum, method):
            c = ind._chebyshev_series(values)
            assert max(abs(c[-2]), abs(c[-1])) <= 1e-12 * abs(c[0])

    def test_asymmetry_hs_vanishes(self):
        assert asymmetry(EnsembleKind.HILBERT_SCHMIDT, REGULAR_QUTRIT, Method.CLOSED_FORM) == pytest.approx(0.0, abs=1e-15)
        assert asymmetry(EnsembleKind.HILBERT_SCHMIDT, DEGENERATE_QUTRIT, Method.CLOSED_FORM) == pytest.approx(0.0, abs=1e-12)
        assert abs(asymmetry(EnsembleKind.HILBERT_SCHMIDT, REGULAR_QUTRIT, Method.QUADRATURE)) <= 1e-9

    def test_ratio_closed_values(self):
        assert ratio_degenerate_to_regular(
            EnsembleKind.HILBERT_SCHMIDT, 0.0, Method.CLOSED_FORM
        ) == pytest.approx(8.0, rel=1e-12)
        assert ratio_degenerate_to_regular(
            EnsembleKind.HILBERT_SCHMIDT, math.pi / 6, Method.CLOSED_FORM
        ) == pytest.approx(5.758506581008215, rel=1e-12)

    def test_ratio_bures_above_one_at_midpoint(self):
        r = ratio_degenerate_to_regular(EnsembleKind.BURES, math.pi / 6, Method.QUADRATURE)
        assert r > 1.0


class TestEnsembleOrdering:
    def test_regular_stratum_ordering(self):
        for z in np.linspace(0.0, ZETA_MAX, 9):
            q_hs = q_hs_qutrit_regular_closed_form(float(z)).q
            q_b = q_quadrature(quad_request(EnsembleKind.BURES, REGULAR_QUTRIT, float(z))).q
            q_k = q_quadrature(quad_request(EnsembleKind.BKM, REGULAR_QUTRIT, float(z))).q
            assert q_hs > q_b > q_k

    def test_degenerate_stratum_ordering_upper_range(self):
        # the ordering holds on the upper part of the moduli range; below
        # zeta ~ 0.46338 (HS = Bures) and zeta ~ 0.02166 (HS = BKM) the
        # monotone curves rise above HS, since their densities put heavy
        # classical mass at the doubly-degenerate corner of the phi=0 edge
        # (acceptance criterion 7 checks the whole range against mpmath)
        for z in (math.pi / 6, 0.7, 0.9, ZETA_MAX):
            q_hs = q_hs_qutrit_degenerate_closed_form(float(z)).q
            q_b = q_quadrature(quad_request(EnsembleKind.BURES, DEGENERATE_QUTRIT, float(z))).q
            q_k = q_quadrature(quad_request(EnsembleKind.BKM, DEGENERATE_QUTRIT, float(z))).q
            assert q_hs > q_b > q_k


class TestCrossMethod:
    @pytest.mark.parametrize("ensemble", ALL_KINDS)
    def test_mc_matches_quadrature_regular(self, ensemble):
        n = 150_000
        quad = q_quadrature(quad_request(ensemble, REGULAR_QUTRIT, 0.0)).q
        req = IndicatorRequest(ensemble=ensemble, stratum=REGULAR_QUTRIT, method=Method.MONTE_CARLO,
                               zeta=0.0, samples=n, seed=101)
        mc = q_monte_carlo(req).q
        sigma = math.sqrt(quad * (1 - quad) / n)
        assert abs(mc - quad) <= 4.0 * sigma

    def test_bkm_quadrature_recovered_by_mc(self):
        n = 1_000_000
        quad = q_quadrature(quad_request(EnsembleKind.BKM, REGULAR_QUTRIT, math.pi / 6)).q
        req = IndicatorRequest(ensemble=EnsembleKind.BKM, stratum=REGULAR_QUTRIT,
                               method=Method.MONTE_CARLO, zeta=math.pi / 6, samples=n, seed=101)
        mc = q_monte_carlo(req).q
        sigma = math.sqrt(quad * (1 - quad) / n)
        assert abs(mc - quad) <= 3.0 * sigma
