"""Reference values the benchmark checks the program against.

Everything here is written out from the paper and from independent
computations; nothing imports the package.  The closed forms are the
published formulas; the degenerate constants come from
``mpmath_reference.py``, which integrates the documented edge densities in
mpmath without package code.
"""

from __future__ import annotations

import math

SQRT3 = math.sqrt(3.0)
ZETA_MAX = math.pi / 3.0


def q_qubit(ensemble: str) -> float:
    """Qubit indicator: HS 1/(3 sqrt3), Bures and BKM as published."""
    if ensemble == "hs":
        return 1.0 / (3.0 * SQRT3)
    if ensemble == "bures":
        return (2.0 / math.pi) * (math.asin(1.0 / SQRT3) - math.sqrt(2.0) / 3.0)
    if ensemble == "bkm":
        acoth_sqrt3 = 0.5 * math.log((SQRT3 + 1.0) / (SQRT3 - 1.0))
        return (2.0 / math.pi) * (math.asin(1.0 / SQRT3) - math.sqrt(2.0 / 3.0) * acoth_sqrt3)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def q_hs_regular(zeta: float) -> float:
    """HS regular qutrit: (20c^2 + 1) / (128 (4c^2 - 1)^5), c = cos(zeta - pi/6)."""
    c2 = math.cos(zeta - math.pi / 6.0) ** 2
    return (20.0 * c2 + 1.0) / (128.0 * (4.0 * c2 - 1.0) ** 5)


def q_hs_degenerate(zeta: float) -> float:
    """HS degenerate qutrit: (csc^5(zeta + pi/6) + sec^5(zeta)) / 1056."""
    return (1.0 / math.sin(zeta + math.pi / 6.0) ** 5 + 1.0 / math.cos(zeta) ** 5) / 1056.0


#: Degenerate-stratum indicators at zeta = 0 for the monotone ensembles,
#: from ``python3 perfbench/mpmath_reference.py`` (equal at 30 and 40 digits).
DEGENERATE_ZETA0 = {
    "bures": 0.133066103629419521,
    "bkm": 0.118741099662442279,
}

#: Relative agreement required of quadrature with the closed forms and the
#: mpmath constants (the package's default Bures/BKM quadrature tolerance).
QUAD_RTOL = 1e-6

#: The published Table 1, as printed: ensemble -> (q_min, zeta_min, q(0) - q(pi/3)).
#: Strings keep the printed digits; a value matches when it lies within one
#: unit of the last printed digit (the table rounds some entries and
#: truncates others, e.g. 21/31104 = 0.00067515... is printed 0.0006751).
PUBLISHED_TABLE1 = {
    "hs": ("0.0006751", "0.523599", "0.0000000000"),
    "bures": ("0.0000891011", "0.525096", "0.0000472609"),
    "bkm": ("0.0000121609", "0.527798", "0.0000216102"),
}


def last_digit_unit(printed: str) -> float:
    """One unit of the last printed decimal digit of ``printed``."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return 10.0 ** -decimals


def mc_reference(ensemble: str, stratum: str) -> tuple[float | None, float]:
    """(zeta, reference Q) of the Monte Carlo cell (ensemble, stratum).

    Regular cells sit at the published minimiser (pi/6 for HS) and take the
    published minimum (the closed form for HS); degenerate cells sit at
    zeta = 0 with the mpmath constants (1/32 for HS).
    """
    if stratum == "qubit":
        return None, q_qubit(ensemble)
    if stratum == "regular":
        if ensemble == "hs":
            return math.pi / 6.0, q_hs_regular(math.pi / 6.0)
        q_min, zeta_min, _ = PUBLISHED_TABLE1[ensemble]
        return float(zeta_min), float(q_min)
    if stratum == "degenerate":
        if ensemble == "hs":
            return 0.0, q_hs_degenerate(0.0)
        return 0.0, DEGENERATE_ZETA0[ensemble]
    raise ValueError(f"unknown stratum {stratum!r}")
