"""Draw random spectra from every qutrit stratum and classify them.

Shows the samplers' rejection routes (a per-cell envelope table over the
proposal box, with the acceptance rate each reaches), the degeneracy
structure of the edge strata, and the classical fraction at the symmetric
kernel angle zeta = pi/6.
"""

import math

import numpy as np

from wigner_classicality import (
    DegeneracyType,
    EnsembleKind,
    SpectrumSampler,
    sw_spectrum_qutrit,
)

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
    print()

print("the (2,1) pieces carry the doubled larger eigenvalue, the (1,2) the doubled smaller;")
print("the regular stratum dominates the state space, so its fraction is the global one.")
