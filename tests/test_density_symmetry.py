"""Property tests: the joint densities are symmetric functions of their eigenvalues.

The log density of ``scalar_density.log_joint_density`` is one formula over
the (eigenvalue, multiplicity) pairs, so relabelling the pairs together must
not change it; ``_density3_vec``, the kernel of quadrature and the samplers,
must be symmetric in its three eigenvalues, including BKM pairs close enough
to be evaluated by the series of ``BKM_SERIES_CUTOFF``.
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from scalar_density import log_joint_density  # noqa: E402
from wigner_classicality.ensembles import BKM_SERIES_CUTOFF, EnsembleKind, _density3_vec  # noqa: E402
from wigner_classicality.spectra import DegeneracyType  # noqa: E402

KINDS = st.sampled_from(list(EnsembleKind))
VALUES = st.floats(1e-6, 1.0, exclude_max=True)


@st.composite
def _pieces(draw):
    """Distinct positive eigenvalues with multiplicities, and a permutation of the pairs."""
    values = draw(st.lists(VALUES, min_size=2, max_size=4, unique=True))
    mult = draw(st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)))
    return values, mult, draw(st.permutations(range(len(values))))


@given(KINDS, _pieces())
def test_log_density_invariant_under_relabelled_pairs(kind, pieces):
    values, mult, perm = pieces
    a = log_joint_density(kind, DegeneracyType(tuple(mult)), values, validate=False)
    b = log_joint_density(kind, DegeneracyType(tuple(mult[i] for i in perm)),
                          [values[i] for i in perm], validate=False)
    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


@st.composite
def _triple(draw):
    """Three positive eigenvalues; for some, the first two lie within the BKM series cutoff.

    r2 = r1 (1 + e) with 0 < |e| <= 2 BKM_SERIES_CUTOFF puts |r1 - r2| / (r1 + r2)
    at most about the cutoff.
    """
    r1, r3 = draw(VALUES), draw(VALUES)
    if draw(st.booleans()):
        e = draw(st.floats(1e-8, 2.0 * BKM_SERIES_CUTOFF)) * draw(st.sampled_from([-1.0, 1.0]))
        return r1, r1 * (1.0 + e), r3
    return r1, draw(VALUES), r3


@given(st.lists(_triple(), min_size=1, max_size=30))
def test_density3_symmetric_in_its_arguments(triples):
    columns = tuple(np.array(c) for c in zip(*triples))
    for kind in EnsembleKind:
        reference = _density3_vec(kind, *columns)
        assert np.all(np.isfinite(reference)) and np.all(reference >= 0.0)
        for perm in itertools.permutations(columns):
            np.testing.assert_allclose(_density3_vec(kind, *perm), reference, rtol=1e-13, atol=0.0)
