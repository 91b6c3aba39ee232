"""Draw random spectra from every qutrit stratum and classify them.

Shows the samplers' rejection routes (a per-cell envelope table over the
proposal box, with the acceptance rate each reaches), the degeneracy
structure of the edge strata, the classical fraction at the symmetric
kernel angle zeta = pi/6, and the share of the (2,1) edge in draws from
the whole degenerate stratum (one sampler over both edges).
"""

import math

import numpy as np

from wigner_classicality import (
    DEGENERATE_QUTRIT,
    DegeneracyType,
    EnsembleKind,
    SpectrumSampler,
    sw_spectrum_qutrit,
)
from wigner_classicality.ensembles import stratum_spectra

kernel = sw_spectrum_qutrit(math.pi / 6.0)
pi_ascending = kernel.as_array()[::-1]
print("kernel spectrum at zeta = pi/6:", np.round(kernel.values, 6))
print()

for kind in (EnsembleKind.HILBERT_SCHMIDT, EnsembleKind.BURES, EnsembleKind.BKM):
    for mult in ((1, 1, 1), (2, 1), (1, 2)):
        sampler = SpectrumSampler(kind, DegeneracyType(mult), seed=1)
        eigs = sampler.sample(200_000)
        frac = float(np.mean(eigs @ pi_ascending >= 0.0))
        mean = np.round(eigs.mean(axis=0), 4)
        print(f"{kind.label:6s} {str(mult):10s} classical fraction {frac:10.6f}   "
              f"mean spectrum {mean}   acceptance {sampler.acceptance_rate:.2f}")
    eigs = np.concatenate(list(stratum_spectra(kind, DEGENERATE_QUTRIT, 200_000, np.random.default_rng(1))))
    share = float(np.mean(eigs[:, 0] == eigs[:, 1]))
    print(f"{kind.label:6s} degenerate stratum: (2,1) share of the draws {share:.4f}")
    print()

print("the (2,1) pieces carry the doubled larger eigenvalue, the (1,2) the doubled smaller;")
print("each edge's share of the degenerate stratum is its share of the mass (1/33 for hs);")
print("the regular stratum dominates the state space, so its fraction is the global one.")
