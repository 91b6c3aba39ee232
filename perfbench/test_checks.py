"""Each correctness check rejects a perturbed output.

    python3 -m pytest perfbench/test_checks.py

The outputs are built here from the references, in the formats the CLI
writes; each test first shows the check passes the unperturbed output.
"""

from __future__ import annotations

import json
import math

import pytest

import checks
import job
import references as ref

PROVENANCE = "# wigner-classicality test"
CURVE_HEADER = "zeta,q,method,error_estimate,ensemble,stratum,seed"
ZETAS = checks.grid(*job.COLD_GRID)


def curve_csv(stratum: str, values: dict[str, list[float]], zetas=ZETAS) -> str:
    lines = [PROVENANCE, CURVE_HEADER]
    for ens in checks.ENSEMBLES:
        for z, q in zip(zetas, values[ens]):
            lines.append(f"{z!r},{q!r},quad,0,{ens},{stratum},1234")
    return "\n".join(lines) + "\n"


def regular_values() -> dict[str, list[float]]:
    hs = [ref.q_hs_regular(z) for z in ZETAS]
    return {"hs": hs, "bures": [0.1 * q for q in hs], "bkm": [0.01 * q for q in hs]}


def degenerate_values() -> dict[str, list[float]]:
    hs = [ref.q_hs_degenerate(z) for z in ZETAS]
    values = {"hs": hs, "bures": [0.5 * q for q in hs], "bkm": [0.4 * q for q in hs]}
    for ens in ("bures", "bkm"):
        values[ens][0] = ref.DEGENERATE_ZETA0[ens]
    return values


def test_curve_regular():
    values = regular_values()
    assert checks.check_curve(curve_csv("regular", values), "regular", ZETAS) == (183, [])
    moved = regular_values()
    moved["hs"][17] *= 1.0 + 2e-6
    assert checks.check_curve(curve_csv("regular", moved), "regular", ZETAS)[1]
    swapped = regular_values()
    swapped["bures"][40], swapped["bkm"][40] = swapped["bkm"][40], swapped["bures"][40]
    assert checks.check_curve(curve_csv("regular", swapped), "regular", ZETAS)[1]
    out_of_range = regular_values()
    out_of_range["bkm"][3] = 0.0
    assert checks.check_curve(curve_csv("regular", out_of_range), "regular", ZETAS)[1]
    short = curve_csv("regular", values).splitlines()[:-1]
    assert checks.check_curve("\n".join(short), "regular", ZETAS)[1]


def test_curve_degenerate():
    values = degenerate_values()
    assert checks.check_curve(curve_csv("degenerate", values), "degenerate", ZETAS) == (183, [])
    for ens in ("hs", "bures", "bkm"):
        moved = degenerate_values()
        moved[ens][0] *= 1.0 + 2e-6
        assert checks.check_curve(curve_csv("degenerate", moved), "degenerate", ZETAS)[1], ens
    wrong_grid = checks.grid(*job.WARM_GRID) + [math.pi / 3]
    assert checks.check_curve(curve_csv("degenerate", values), "degenerate", wrong_grid)[1]


def qubit_csv(values: dict[str, float]) -> str:
    rows = [f"{e},{values[e]!r},quad,0,1234" for e in checks.ENSEMBLES]
    return "\n".join([PROVENANCE, "ensemble,q,method,error_estimate,seed", *rows]) + "\n"


def test_qubit():
    values = {e: ref.q_qubit(e) for e in checks.ENSEMBLES}
    assert checks.check_qubit(qubit_csv(values)) == (3, [])
    for ens in checks.ENSEMBLES:
        moved = dict(values)
        moved[ens] *= 1.0 - 2e-6
        assert checks.check_qubit(qubit_csv(moved))[1], ens


def table1_fixture():
    """Published table and a regular curve consistent with it.

    Each monotone curve is q_min + k (zeta - zeta_min)^2, with k chosen so
    that q(0) - q(pi/3) is the published asymmetry.
    """
    table = {"hs": [21.0 / 31104.0, math.pi / 6.0, 0.0]}
    values = {"hs": [ref.q_hs_regular(z) for z in ZETAS]}
    for ens in ("bures", "bkm"):
        q, z, a = (float(v) for v in ref.PUBLISHED_TABLE1[ens])
        k = a / (z ** 2 - (math.pi / 3.0 - z) ** 2)
        values[ens] = [q + k * (x - z) ** 2 for x in ZETAS]
        values[ens][0] = values[ens][-1] + a
        table[ens] = [q, z, a]
    return table, curve_csv("regular", values)


def table1_csv(table) -> str:
    rows = [f"{e},{table[e][0]!r},{table[e][1]!r},{table[e][2]!r}" for e in ("hs", "bkm", "bures")]
    return "\n".join([PROVENANCE, "ensemble,q_min,zeta_min,asymmetry", *rows]) + "\n"


def test_table1_published_digits():
    table, curve = table1_fixture()
    assert checks.check_table1(table1_csv(table), curve) == ([], [])
    for ens, col, unit in (("bures", 0, 1e-10), ("bkm", 0, 1e-10), ("bures", 1, 1e-6),
                           ("bkm", 2, 1e-10), ("hs", 0, 1e-7)):
        moved = {e: list(v) for e, v in table.items()}
        moved[ens][col] += 1.5 * unit
        problems, off_published = checks.check_table1(table1_csv(moved), curve)
        assert off_published, (ens, col)


def test_table1_properties():
    table, curve = table1_fixture()
    above_curve = {e: list(v) for e, v in table.items()}
    above_curve["bkm"][0] = 2e-5
    assert checks.check_table1(table1_csv(above_curve), curve)[0]
    asymmetric = {e: list(v) for e, v in table.items()}
    asymmetric["bures"][2] *= 1.0 + 1e-9
    assert checks.check_table1(table1_csv(asymmetric), curve)[0]
    hs_off = {e: list(v) for e, v in table.items()}
    hs_off["hs"][2] = 1e-18
    assert checks.check_table1(table1_csv(hs_off), curve)[0]


def test_svg():
    svg = ('<!-- wigner-classicality -->\n'
           '<svg xmlns="http://www.w3.org/2000/svg"><path d="M0 0L1 1"/></svg>\n')
    assert checks.check_svg(svg) == []
    assert checks.check_svg(svg[:-8])
    assert checks.check_svg('<html><path d="M0 0"/></html>')


@pytest.mark.parametrize("ens,stratum", job.MC_CELLS)
def test_mc_cell(ens, stratum):
    _, q = ref.mc_reference(ens, stratum)
    n = job.mc_draws(q)
    expected = round(n * q)
    assert checks.check_mc_cell(ens, expected, n, q) == []
    assert checks.check_mc_cell(ens, 0, n, q), "zero hits must fail"
    assert checks.check_mc_cell(ens, expected * 3 + 20, n, q)


def verify_report() -> dict:
    entries = []
    for name, (value, _) in {
        **{f"hs_regular_quad_vs_closed[zeta={z:.6f}]": (ref.q_hs_regular(z), 0)
           for z in checks.VERIFY_PROBES},
        **{f"hs_degenerate_quad_vs_closed[zeta={z:.6f}]": (ref.q_hs_degenerate(z), 0)
           for z in checks.VERIFY_PROBES},
        **{f"hs_symmetry_regular[delta={d}]": (ref.q_hs_regular(math.pi / 6 + d), 0)
           for d in (0.05, 0.1, 0.15)},
        **{f"hs_symmetry_degenerate[delta={d}]": (ref.q_hs_degenerate(math.pi / 6 + d), 0)
           for d in (0.05, 0.1, 0.15)},
        **{f"qubit_quad_vs_closed[{e}]": (ref.q_qubit(e), 0) for e in checks.ENSEMBLES},
        **{f"mc_vs_quad[{e},qubit]": (ref.q_qubit(e), 0) for e in checks.ENSEMBLES},
        "mc_vs_quad[hs,regular]": (ref.q_hs_regular(math.pi / 6), 0),
        "mc_vs_quad[hs,degenerate]": (ref.q_hs_degenerate(math.pi / 6), 0),
        "cone_oracle_equivalence[1e5]": (0, 0),
    }.items():
        entries.append({"check": name, "expected": value, "actual": value, "tolerance": 0.0,
                        "pass": True})
    return {"checks": entries, "pass": True}


def test_verify():
    report = verify_report()
    assert checks.check_verify(0, json.dumps(report)) == (len(report["checks"]), [])
    assert checks.check_verify(4, json.dumps(report))[1]
    assert checks.check_verify(0, json.dumps(report)[:-1])[1]
    failing = verify_report()
    failing["checks"][-1]["pass"] = False
    assert checks.check_verify(0, json.dumps(failing))[1]
    moved = verify_report()
    moved["checks"][2]["expected"] *= 1.0 + 1e-9
    assert checks.check_verify(0, json.dumps(moved))[1]
    missing = verify_report()
    del missing["checks"][0]
    assert checks.check_verify(0, json.dumps(missing))[1]
