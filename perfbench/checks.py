"""Checks on the program's outputs, against ``references`` and method properties.

Each check takes an output as the program wrote it and returns
``(attempted, problems)``: the number of operations the output covers and a
list of what is wrong with it.  No check compares with a stored copy of an
earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

from references import (
    DEGENERATE_ZETA0,
    PUBLISHED_TABLE1,
    QUAD_RTOL,
    ZETA_MAX,
    last_digit_unit,
    q_hs_degenerate,
    q_hs_regular,
    q_qubit,
)

ENSEMBLES = ("hs", "bures", "bkm")

#: Two-sided tail probability below which a Monte Carlo cell fails.
MC_ALPHA = 1e-6

#: Probe angles of the ``verify`` subcommand's HS checks.
VERIFY_PROBES = (0.0, math.pi / 12.0, math.pi / 6.0, math.pi / 4.0, ZETA_MAX)


def _rows(text: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        return [], ["missing provenance line"]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not rows or rows[0] != header:
        return [], [f"header {rows[0] if rows else None} != {header}"]
    return rows[1:], []


def _rel(actual: float, expected: float) -> float:
    return abs(actual - expected) / abs(expected)


def grid(start: float, stop: float, count: int) -> list[float]:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def check_curve(text: str, stratum: str, zetas: list[float]) -> tuple[int, list[str]]:
    """``curve --method quad --ensemble all`` CSV; one operation per row.

    HS matches its closed form at every angle; on the degenerate stratum the
    Bures and BKM values at zeta = 0 match the mpmath constants; on the
    regular stratum hs > bures > bkm at every angle.
    """
    attempted = len(ENSEMBLES) * len(zetas)
    rows, problems = _rows(text, ["zeta", "q", "method", "error_estimate", "ensemble",
                                  "stratum", "seed"])
    if problems:
        return attempted, problems
    expected = [(e, z) for e in ENSEMBLES for z in zetas]
    if len(rows) != len(expected):
        return attempted, [f"{len(rows)} rows, expected {len(expected)}"]
    values: dict[tuple[str, int], float] = {}
    for row, (ens, zeta) in zip(rows, expected):
        z, q = float(row[0]), float(row[1])
        where = f"{stratum} {ens} zeta={zeta:.6f}"
        if row[4] != ens or row[5] != stratum or row[2] != "quad" or abs(z - zeta) > 1e-12:
            problems.append(f"{where}: unexpected row {row}")
            continue
        if not 0.0 < q <= 1.0:
            problems.append(f"{where}: q={q!r} outside (0, 1]")
            continue
        values[ens, zetas.index(zeta)] = q
        if ens == "hs":
            ref = q_hs_regular(z) if stratum == "regular" else q_hs_degenerate(z)
        elif stratum == "degenerate" and z == 0.0:
            ref = DEGENERATE_ZETA0[ens]
        else:
            continue
        if _rel(q, ref) > QUAD_RTOL:
            problems.append(f"{where}: q={q!r} vs reference {ref!r}")
    if stratum == "regular":
        for i, zeta in enumerate(zetas):
            hs, bures, bkm = (values.get((e, i)) for e in ENSEMBLES)
            if None not in (hs, bures, bkm) and not hs > bures > bkm:
                problems.append(f"regular zeta={zeta:.6f}: not hs > bures > bkm "
                                f"({hs!r}, {bures!r}, {bkm!r})")
    return attempted, problems


def check_qubit(text: str) -> tuple[int, list[str]]:
    """``qubit --method quad --ensemble all`` CSV against the closed forms."""
    rows, problems = _rows(text, ["ensemble", "q", "method", "error_estimate", "seed"])
    if problems:
        return len(ENSEMBLES), problems
    if [row[0] for row in rows] != list(ENSEMBLES):
        return len(ENSEMBLES), [f"qubit rows {[row[0] for row in rows]}"]
    for row in rows:
        q, ref = float(row[1]), q_qubit(row[0])
        if _rel(q, ref) > QUAD_RTOL:
            problems.append(f"qubit {row[0]}: q={q!r} vs closed form {ref!r}")
    return len(ENSEMBLES), problems


def check_table1(text: str, regular_curve: str) -> tuple[list[str], list[str]]:
    """``table1`` CSV: (properties violated, entries off the published table).

    Properties: the HS row is the closed-form minimum 21/31104 at pi/6 with
    zero asymmetry; each monotone minimum lies in (0, pi/3) and is no larger
    than any value of the 61-angle regular curve (same quadrature), and each
    asymmetry equals that curve's q(0) - q(pi/3).  Published: every entry
    within one unit of the last printed digit of ``PUBLISHED_TABLE1``.
    """
    rows, problems = _rows(text, ["ensemble", "q_min", "zeta_min", "asymmetry"])
    if problems:
        return problems, []
    table = {row[0]: tuple(float(v) for v in row[1:]) for row in rows}
    if sorted(table) != sorted(ENSEMBLES):
        return [f"table1 ensembles {sorted(table)}"], []
    curve_rows, curve_problems = _rows(regular_curve, ["zeta", "q", "method", "error_estimate",
                                                       "ensemble", "stratum", "seed"])
    curve: dict[str, list[float]] = {}
    for row in curve_rows:
        curve.setdefault(row[4], []).append(float(row[1]))
    problems = list(curve_problems)
    q_hs, z_hs, a_hs = table["hs"]
    if _rel(q_hs, 21.0 / 31104.0) > 1e-9 or abs(z_hs - math.pi / 6.0) > 1e-6 or a_hs != 0.0:
        problems.append(f"table1 hs row {table['hs']} is not (21/31104, pi/6, 0)")
    for ens in ("bures", "bkm"):
        q_min, z_min, asym = table[ens]
        values = curve.get(ens, [])
        if not 0.0 < z_min < ZETA_MAX:
            problems.append(f"table1 {ens}: zeta_min={z_min!r} outside (0, pi/3)")
        if values and q_min > min(values):
            problems.append(f"table1 {ens}: q_min={q_min!r} above the curve minimum "
                            f"{min(values)!r}")
        if values and abs(asym - (values[0] - values[-1])) > 1e-12 * abs(asym):
            problems.append(f"table1 {ens}: asymmetry={asym!r} != curve q(0) - q(pi/3) "
                            f"{values[0] - values[-1]!r}")
    off_published = []
    for ens, printed in PUBLISHED_TABLE1.items():
        for label, value, text_value in zip(("q_min", "zeta_min", "asymmetry"), table[ens],
                                            printed):
            unit = last_digit_unit(text_value)
            if abs(value - float(text_value)) > unit:
                off_published.append(f"table1 {ens} {label}={value:.12g} vs published "
                                     f"{text_value} ({abs(value - float(text_value)) / unit:.1f} "
                                     f"units of the last digit)")
    return problems, off_published


def check_svg(text: str) -> list[str]:
    """The SVG parses as XML and its root element is ``svg``."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    if root.tag.rsplit("}", 1)[-1] != "svg":
        return [f"svg root element is {root.tag!r}"]
    return []


def binomial_tails(hits: int, n: int, q: float) -> tuple[float, float]:
    """(P[X <= hits], P[X >= hits]) for X ~ Binomial(n, q)."""
    from scipy.stats import binom

    return float(binom.cdf(hits, n, q)), float(binom.sf(hits - 1, n, q))


def check_mc_cell(label: str, hits: int, n: int, q_ref: float) -> list[str]:
    """Two-sided binomial test of one Monte Carlo cell at ``MC_ALPHA``."""
    low, high = binomial_tails(hits, n, q_ref)
    if min(low, high) < MC_ALPHA:
        return [f"mc {label}: {hits} hits in {n} draws, reference q={q_ref!r} "
                f"(P[X<=hits]={low:.2e}, P[X>=hits]={high:.2e})"]
    return []


def check_verify(exit_code: int, report_text: str) -> tuple[int, list[str]]:
    """``verify`` JSON report; one operation per check in the report.

    Exit code 0, every check passes, and every HS expected value (and the
    qubit ones) matches the written-out closed forms.
    """
    problems = [] if exit_code == 0 else [f"verify exit code {exit_code}"]
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return 1, problems + [f"verify report is not JSON: {exc}"]
    checks = report.get("checks", [])
    if report.get("pass") is not True:
        problems.append("verify report pass is not true")
    problems += [f"verify check {c['check']} failed" for c in checks if c.get("pass") is not True]
    expected = {}
    for z in VERIFY_PROBES:
        expected[f"hs_regular_quad_vs_closed[zeta={z:.6f}]"] = (q_hs_regular(z), 1e-12)
        expected[f"hs_degenerate_quad_vs_closed[zeta={z:.6f}]"] = (q_hs_degenerate(z), 1e-12)
    for delta in (0.05, 0.1, 0.15):
        expected[f"hs_symmetry_regular[delta={delta}]"] = (q_hs_regular(math.pi / 6 + delta), 1e-12)
        expected[f"hs_symmetry_degenerate[delta={delta}]"] = (
            q_hs_degenerate(math.pi / 6 + delta), 1e-12)
    for ens in ENSEMBLES:
        expected[f"qubit_quad_vs_closed[{ens}]"] = (q_qubit(ens), 1e-12)
        expected[f"mc_vs_quad[{ens},qubit]"] = (q_qubit(ens), QUAD_RTOL)
    expected["mc_vs_quad[hs,regular]"] = (q_hs_regular(math.pi / 6), QUAD_RTOL)
    expected["mc_vs_quad[hs,degenerate]"] = (q_hs_degenerate(math.pi / 6), QUAD_RTOL)
    seen = {c.get("check"): c for c in checks}
    for name, (ref, rtol) in expected.items():
        if name not in seen:
            problems.append(f"verify report lacks {name}")
        elif _rel(float(seen[name]["expected"]), ref) > rtol:
            problems.append(f"verify {name}: expected={seen[name]['expected']!r} vs "
                            f"closed form {ref!r}")
    return max(len(checks), 1), problems
