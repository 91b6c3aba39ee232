"""Plain copies of the chart and density kernels, by the version that shipped them.

The package's kernels work in place and find the BKM series rows from a
bound; these copies write each formula out on whole arrays.  The tests pin
the package's kernels to the copies of their own version bit for bit, and
hold them to relative bounds against the copies of earlier versions.
"""

import numpy as np

import wigner_classicality.ensembles as ensembles
from wigner_classicality.ensembles import _EDGES, EnsembleKind
from wigner_classicality.spectra import SQRT3


def _logs(kind: EnsembleKind, *r):
    """``np.log`` of each eigenvalue for BKM, None otherwise: ``ensembles._logs`` of versions 0.2.8 to 0.3.6."""
    if kind is EnsembleKind.BKM:
        return tuple(np.log(v) for v in r)
    return (None,) * len(r)


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
        l1, l2, l3 = _logs(kind, r1, r2, r3)
        c = _mc_vec_028(kind, r1, r2, l1, l2) * _mc_vec_028(kind, r1, r3, l1, l3) * _mc_vec_028(kind, r2, r3, l2, l3)
        return v * c / np.sqrt(r1 * r2 * r3)


def _regular_chart_028(t, phi):
    """``ensembles._regular_chart`` of version 0.2.8, in (t, phi)."""
    q = np.tan(phi / 3.0) / SQRT3
    t3 = t * t * t
    r3 = t3 * t / 3.0
    s = 1.0 - 3.0 * r3
    r1 = 1.0 / 3.0 + s / 6.0 + s * q / 2.0
    r2 = 1.0 / 3.0 + s / 6.0 - s * q / 2.0
    return (r1, r2, r3), (1.0 + 3.0 * q * q) * s * t3 / 3.0


def _gap_034(x, y, lx, ly):
    """log x - log y, or its series ``d (1 + e^2/3 + e^4/5) / ((x + y)/2)`` where e = d / (x + y) is within the cutoff."""
    s = np.asarray(x + y)
    d = np.asarray(x - y)
    e = np.asarray(d / s)
    out = np.asarray(lx - ly)
    near = np.abs(e) <= ensembles.BKM_SERIES_CUTOFF
    if near.any():
        en = e[near] * e[near]
        out[near] = d[near] * (1.0 + en / 3.0 + en * en / 5.0) / (0.5 * s[near])
    return out


def _density3_vec_034(kind: EnsembleKind, r1, r2, r3):
    """``ensembles._density3_vec`` of version 0.3.4: the monotone factor as one product."""
    d = (r1 - r2) * (r1 - r3) * (r2 - r3)
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        return d ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(r1 * r2 * r3)
        if kind is EnsembleKind.BURES:
            return d * d * 8.0 / (root * (r1 + r2) * (r1 + r3) * (r2 + r3))
        l1, l2, l3 = _logs(kind, r1, r2, r3)
        return d * _gap_034(r1, r2, l1, l2) * _gap_034(r1, r3, l1, l3) * _gap_034(r2, r3, l2, l3) / root


def _regular_chart_034(t, q):
    """``ensembles._regular_chart`` of version 0.3.4, in (t, q)."""
    t3 = t * t * t
    r3 = t3 * t / 3.0
    s = 1.0 - 3.0 * r3
    r1 = s / 6.0 + 1.0 / 3.0 + s * q / 2.0
    r2 = s / 6.0 + 1.0 / 3.0 - s * q / 2.0
    return (r1, r2, r3), SQRT3 * s * t3


def _line_spectrum_032(mult: tuple, y, edge=None):
    """``ensembles._line_spectrum`` as 0.3.2 first shipped it."""
    if mult == (1, 1):
        return (1.0 - y, y)
    e = edge if mult == _EDGES else _EDGES.index(mult)
    big = (1.0 - (1.0 + e) * y) / (2.0 - e)
    return (big, big * (1.0 - e) + y * e, y)


def _density_pair_vec_033(kind: EnsembleKind, big, small, kk: int):
    """``ensembles._density_pair_vec`` of version 0.3.3: 0.2.8's with ``(big - small)^(2 kk)`` as products."""
    diff = big - small
    v = diff * diff if kk == 1 else (diff * diff) * (diff * diff)
    if kind is EnsembleKind.HILBERT_SCHMIDT:
        return v
    with np.errstate(divide="ignore", invalid="ignore"):
        lb, ls = _logs(kind, big, small)
        return v * _mc_vec_028(kind, big, small, lb, ls) ** kk / np.sqrt(big * small)


def _density_pair_vec_037(kind: EnsembleKind, big, small, kk: int):
    """``ensembles._density_pair_vec`` of version 0.3.7: BKM as ``(d gap)^kk / sqrt(big small)``, gap = log big - log small."""
    if kind is not EnsembleKind.BKM:
        return _density_pair_vec_033(kind, big, small, kk)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((big - small) * _gap_034(big, small, np.log(big), np.log(small))) ** kk / np.sqrt(big * small)


def _line_weight_033(kind: EnsembleKind, mult: tuple, t, edge=None, pair=_density_pair_vec_033):
    """``ensembles._line_weight`` of version 0.3.3 (``np.where`` on every tile): 0.3.2's with t^4 and t^3 as products.

    ``pair`` is the pair density it weighs: 0.3.3's, or a later one.
    """
    top, kk, drdy = ensembles._LINES[mult[0] if mult == _EDGES else mult]
    if mult == _EDGES:
        drdy = drdy * (1.0 + edge)
    y = top * ((t * t) * (t * t))
    bad = (y <= 0.0) | (y >= top)
    spectra = _line_spectrum_032(mult, np.where(bad, top / 2.0, y), edge)
    val = pair(kind, spectra[0], spectra[-1], kk) * (drdy * 4.0 * top * ((t * t) * t))
    return np.where(bad, 0.0, val), spectra
