"""Classicality of random qubit and qutrit ensembles via Wigner positivity.

The probability that a state drawn from a unitary-invariant ensemble has an
everywhere-nonnegative Wigner function, computed per ensemble (Hilbert-
Schmidt, Bures, Bogoliubov-Kubo-Mori), per degeneracy stratum, and across
the one-parameter family of qutrit phase-space kernels.
"""

__version__ = "0.3.8"

from .spectra import (
    DegeneracyType,
    OrderedSpectrum,
    PolarPoint,
    StratumLabel,
    polar_to_spectrum,
    spectrum_to_polar,
    trisectrix_boundary,
)
from .wigner import (
    ModuliParameter,
    SWKernelSpectrum,
    classical_cone_regular_qutrit,
    classical_edge_bound_qutrit,
    dual_pairing,
    is_classical,
    sw_spectrum_qubit,
    sw_spectrum_qutrit,
)
from .ensembles import (
    EnsembleKind,
    SamplerFailureError,
    SpectrumSampler,
    worker_seed,
)
from .indicators import (
    DEGENERATE_QUTRIT,
    QUBIT_STRATUM,
    REGULAR_QUTRIT,
    ConvergenceError,
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

__all__ = [
    "__version__",
    "DegeneracyType",
    "OrderedSpectrum",
    "PolarPoint",
    "StratumLabel",
    "polar_to_spectrum",
    "spectrum_to_polar",
    "trisectrix_boundary",
    "ModuliParameter",
    "SWKernelSpectrum",
    "classical_cone_regular_qutrit",
    "classical_edge_bound_qutrit",
    "dual_pairing",
    "is_classical",
    "sw_spectrum_qubit",
    "sw_spectrum_qutrit",
    "EnsembleKind",
    "SamplerFailureError",
    "SpectrumSampler",
    "worker_seed",
    "DEGENERATE_QUTRIT",
    "QUBIT_STRATUM",
    "REGULAR_QUTRIT",
    "ConvergenceError",
    "IndicatorRequest",
    "IndicatorResult",
    "Method",
    "UnsupportedRequestError",
    "asymmetry",
    "compute_indicator",
    "minimize_q_over_zeta",
    "q_hs_qutrit_degenerate_closed_form",
    "q_hs_qutrit_regular_closed_form",
    "q_monte_carlo",
    "q_quadrature",
    "q_qubit_closed_form",
    "ratio_degenerate_to_regular",
]
