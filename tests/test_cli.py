"""Tests for the command-line interface: exit codes, file formats, determinism."""

import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import wigner_classicality
from wigner_classicality import cli
from wigner_classicality.ensembles import EnsembleKind, SpectrumSampler, stratum_spectra, worker_seed
from wigner_classicality.spectra import trisectrix_boundary
from wigner_classicality.indicators import (
    DEGENERATE_QUTRIT,
    QUBIT_STRATUM,
    REGULAR_QUTRIT,
    IndicatorRequest,
    Method,
    q_monte_carlo,
    q_quadrature,
)


def test_version_matches_pyproject():
    # the version a report and every CSV header print is the one the package is built with
    pyproject = pathlib.Path(wigner_classicality.__file__).resolve().parents[2] / "pyproject.toml"
    found = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    assert found is not None
    assert found.group(1) == wigner_classicality.__version__


def read_csv(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("# wigner-classicality")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestCurve:
    def test_closed_hs_curve(self, tmp_path):
        out = tmp_path / "curve"
        rc = cli.main([
            "curve", "--ensemble", "hs", "--stratum", "regular", "--method", "closed",
            "--zeta-grid", f"0:{math.pi / 3!r}:61", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out.with_suffix(".csv"))
        assert header == ["zeta", "q", "method", "error_estimate", "ensemble", "stratum", "seed"]
        assert len(rows) == 61
        mid = rows[30]
        assert float(mid[0]) == pytest.approx(math.pi / 6, rel=1e-12)
        assert float(mid[1]) == pytest.approx(21.0 / 31104.0, rel=1e-12, abs=0)
        assert mid[4] == "hs" and mid[5] == "regular"

    def test_number_format_17_digits(self, tmp_path):
        out = tmp_path / "c"
        cli.main(["curve", "--method", "closed", "--zeta-grid", "0:1.0:3", "--out", str(out)])
        _, rows = read_csv(out.with_suffix(".csv"))
        for row in rows:
            assert row[1] == f"{float(row[1]):.17g}"
            assert "E" not in row[1]

    def test_reversed_grid_rejected(self):
        assert cli.main(["curve", "--zeta-grid", "1:0:5"]) == 1

    def test_count_too_small_rejected(self):
        assert cli.main(["curve", "--zeta-grid", "0:1:1"]) == 1

    def test_grid_outside_range_rejected(self):
        assert cli.main(["curve", "--zeta-grid", "0:2.0:5"]) == 1

    def test_unknown_flag_rejected(self):
        assert cli.main(["curve", "--frobnicate"]) == 1

    def test_unwritable_path(self):
        assert cli.main(["curve", "--method", "closed", "--zeta-grid", "0:1:3",
                         "--out", "/nonexistent-dir/foo"]) == 2

    def test_closed_method_invalid_for_bures(self):
        assert cli.main(["curve", "--ensemble", "bures", "--method", "closed",
                         "--zeta-grid", "0:1:3"]) == 1

    def test_deterministic_bytes(self, tmp_path):
        args = ["curve", "--ensemble", "all", "--stratum", "degenerate", "--method", "quad",
                "--zeta-grid", "0.3:0.9:4", "--format", "both"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(args + ["--out", str(out)]) == 0
            outs.append((out.with_suffix(".csv").read_bytes(), out.with_suffix(".svg").read_bytes()))
        assert outs[0] == outs[1]
        _, rows = read_csv(tmp_path / "a.csv")
        assert all(0.0 <= float(row[1]) <= 1.0 for row in rows)

    def test_svg_contains_plot(self, tmp_path):
        out = tmp_path / "p"
        rc = cli.main(["curve", "--method", "closed", "--zeta-grid", "0:1:5",
                       "--format", "both", "--out", str(out)])
        assert rc == 0
        svg = out.with_suffix(".svg").read_text()
        assert "<svg" in svg and "polyline" in svg

    def test_svg_requires_out(self):
        assert cli.main(["curve", "--method", "closed", "--format", "svg"]) == 1

    def test_stdout_when_no_out(self, capsys):
        rc = cli.main(["curve", "--method", "closed", "--zeta-grid", "0:1:3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# wigner-classicality")


class TestQubit:
    def test_three_rows(self, tmp_path):
        out = tmp_path / "q"
        rc = cli.main(["qubit", "--ensemble", "all", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        vals = {row[0]: float(row[1]) for row in rows}
        assert vals["hs"] == pytest.approx(0.19245, abs=5e-6)
        assert vals["bures"] == pytest.approx(0.0917211, abs=5e-8)
        assert vals["bkm"] == pytest.approx(0.0495506, abs=5e-8)


#: The options of a grid's method, and each cell's request options alone (the
#: CLI's default seed is 1234).
GRID_METHODS = {
    "quad": (["--method", "quad"], {"method": Method.QUADRATURE}),
    "mc": (["--method", "mc", "--samples", "2000", "--workers", "3"],
           {"method": Method.MONTE_CARLO, "samples": 2000, "seed": 1234, "workers": 3}),
}


class TestQuadratureRows:
    """Each row of a quadrature or Monte Carlo grid parses back to its cell alone: 17 digits round-trip a double."""

    @staticmethod
    def alone(method, ensemble, stratum, zeta=None):
        options = GRID_METHODS[method][1]
        single = q_quadrature if options["method"] is Method.QUADRATURE else q_monte_carlo
        return single(IndicatorRequest(ensemble=EnsembleKind(ensemble), stratum=stratum, zeta=zeta, **options))

    @pytest.mark.parametrize("method", GRID_METHODS)
    @pytest.mark.parametrize("stratum", ["regular", "degenerate"])
    def test_curve_rows(self, tmp_path, stratum, method):
        out = tmp_path / "curve"
        assert cli.main(["curve", *GRID_METHODS[method][0], "--ensemble", "all", "--stratum", stratum,
                         "--out", str(out)]) == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        assert [row[4] for row in rows] == ["hs"] * 61 + ["bures"] * 61 + ["bkm"] * 61
        label = REGULAR_QUTRIT if stratum == "regular" else DEGENERATE_QUTRIT
        for zeta, q, row_method, err, ensemble, row_stratum, _ in rows:
            cell = self.alone(method, ensemble, label, float(zeta))
            assert (row_method, row_stratum) == (method, stratum)
            assert (float(q), float(err)) == (cell.q, cell.error_estimate), (ensemble, zeta)

    @pytest.mark.parametrize("method", GRID_METHODS)
    def test_qubit_rows(self, tmp_path, method):
        out = tmp_path / "qubit"
        assert cli.main(["qubit", *GRID_METHODS[method][0], "--ensemble", "all", "--out", str(out)]) == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        assert [row[0] for row in rows] == ["hs", "bures", "bkm"]
        for ensemble, q, row_method, err, _ in rows:
            cell = self.alone(method, ensemble, QUBIT_STRATUM)
            assert row_method == method
            assert (float(q), float(err)) == (cell.q, cell.error_estimate), ensemble


class TestRatio:
    def test_hs_ratio_curve(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(["ratio", "--ensemble", "hs", "--method", "closed",
                       "--zeta-grid", f"0:{math.pi / 3!r}:7", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        ratios = [float(r[1]) for r in rows]
        assert ratios[0] == pytest.approx(8.0, rel=1e-10)
        assert min(ratios) >= 1.0

    def test_mc_ratio_uses_workers(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(["ratio", "--ensemble", "hs", "--method", "mc", "--samples", "20000",
                       "--seed", "5", "--workers", "2", "--zeta-grid", "0:1:2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        assert len(rows) == 2
        for row in rows:
            q_deg, q_reg = (q_monte_carlo(IndicatorRequest(EnsembleKind.HILBERT_SCHMIDT, stratum, Method.MONTE_CARLO,
                                                           float(row[0]), samples=20000, seed=5, workers=2)).q
                            for stratum in (DEGENERATE_QUTRIT, REGULAR_QUTRIT))
            assert float(row[1]) == q_deg / q_reg

    def test_mc_cell_with_no_regular_hit_is_nan(self, tmp_path, capsys):
        # at 3000 draws the BKM regular cells (Q ~ 1e-5) see no classical
        # state: their ratio is undefined, written as nan and left unplotted
        out = tmp_path / "r"
        rc = cli.main(["ratio", "--method", "mc", "--ensemble", "all", "--samples", "3000",
                       "--zeta-grid", "0:1:5", "--out", str(out), "--format", "both"])
        assert rc == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        assert len(rows) == 15
        undefined = []
        for zeta, ratio, label, _, _ in rows:
            q_reg = q_monte_carlo(IndicatorRequest(EnsembleKind(label), REGULAR_QUTRIT, Method.MONTE_CARLO,
                                                   float(zeta), samples=3000, seed=1234)).q
            if q_reg == 0.0:
                assert ratio == "nan"
                undefined.append(f"{label} at zeta={zeta}")
            else:
                assert math.isfinite(float(ratio)) and float(ratio) > 0.0
        assert undefined
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == len(undefined)
        assert all(cell in line for cell, line in zip(undefined, warnings))
        svg = out.with_suffix(".svg").read_text()
        ET.fromstring(svg)
        assert "nan" not in svg.lower()

    def test_svg_with_no_defined_ratio_draws_the_axes(self, tmp_path):
        out = tmp_path / "r"
        rc = cli.main(["ratio", "--method", "mc", "--ensemble", "bkm", "--samples", "100",
                       "--zeta-grid", "0.3:0.9:2", "--format", "svg", "--out", str(out)])
        assert rc == 0
        root = ET.fromstring(out.with_suffix(".svg").read_text())
        (line,) = root.iter("{http://www.w3.org/2000/svg}polyline")
        assert line.get("points") == ""


class TestFormat:
    @pytest.mark.parametrize("command", ["qubit", "table1", "sample", "verify"])
    def test_rejected_without_a_plot(self, tmp_path, command):
        assert cli.main([command, "--format", "svg", "--out", str(tmp_path / "x")]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,flag,value", [
        ("table1", "--ensemble", "bures"), ("table1", "--stratum", "regular"),
        ("table1", "--zeta-grid", "0:1:3"), ("table1", "--method", "mc"),
        ("table1", "--samples", "10"), ("table1", "--seed", "1"), ("table1", "--workers", "1"),
        ("curve", "--tol", "1e-6"), ("table1", "--tol", "1e-6"), ("qubit", "--tol", "1e-6"),
        ("ratio", "--tol", "1e-6"),
        ("qubit", "--stratum", "regular"), ("qubit", "--zeta-grid", "0:1:3"),
        ("ratio", "--stratum", "regular"),
        ("sample", "--zeta-grid", "0:1:3"), ("sample", "--method", "mc"),
        ("sample", "--tol", "1e-6"), ("sample", "--workers", "2"),
        ("sample", "--n", "2"),  # the qubit is --stratum qubit
        ("verify", "--ensemble", "bures"), ("verify", "--stratum", "regular"),
        ("verify", "--zeta-grid", "0:1:3"), ("verify", "--method", "quad"),
    ])
    def test_rejects_a_flag_the_command_ignores(self, tmp_path, command, flag, value):
        assert cli.main([command, flag, value, "--out", str(tmp_path / "x")]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_sample_draws_one_ensemble(self, tmp_path):
        assert cli.main(["sample", "--ensemble", "all", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("argv,recorded", [
        (["curve", "--zeta-grid", "0:1:2"], "command=curve ensemble=hs stratum=regular zeta_grid=0:1:2 "
         "method=closed tol=None samples=1000000 seed=1234 workers=1 format=csv"),
        (["table1"], f"command=table1 ensemble=hs stratum=regular zeta_grid=0:{math.pi / 3:.17g}:61 "
         "method=quad tol=None samples=1000000 seed=1234 workers=1 format=csv"),
        (["qubit"], f"command=qubit ensemble=hs stratum=regular zeta_grid=0:{math.pi / 3:.17g}:61 "
         "method=closed tol=None samples=1000000 seed=1234 workers=1 format=csv"),
        (["ratio", "--zeta-grid", "0:1:2"], "command=ratio ensemble=hs stratum=regular zeta_grid=0:1:2 "
         "method=closed tol=None samples=1000000 seed=1234 workers=1 format=csv"),
        (["sample", "--samples", "3"], f"command=sample ensemble=hs stratum=regular zeta_grid=0:{math.pi / 3:.17g}:61 "
         "method=mc tol=None samples=3 seed=1234 workers=1 format=csv"),
        (["verify", "--samples", "1000"], f"command=verify ensemble=hs stratum=regular zeta_grid=0:{math.pi / 3:.17g}:61 "
         "method=quad tol=None samples=1000 seed=1234 workers=1 format=csv"),
    ], ids=["curve", "table1", "qubit", "ratio", "sample", "verify"])
    def test_dropped_flags_recorded_at_their_defaults(self, tmp_path, argv, recorded):
        # every option is recorded, the ones a command does not take at their defaults
        out = tmp_path / "x"
        assert cli.main(argv + ["--out", str(out)]) == 0
        if argv[0] == "verify":
            assert json.loads(out.with_suffix(".json").read_text())["config"] == recorded
        else:
            first = out.with_suffix(".csv").read_text().splitlines()[0]
            assert first == f"# wigner-classicality {wigner_classicality.__version__} | {recorded}"

    def test_ratio_svg_writes_no_csv(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = cli.main(["ratio", "--method", "closed", "--zeta-grid", "0:1:3",
                       "--format", "svg", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["r.svg"]

    def test_zero_mc_value_plots_on_linear_axis(self, tmp_path):
        out = tmp_path / "c"
        rc = cli.main(["curve", "--ensemble", "bkm", "--method", "mc", "--samples", "1000",
                       "--format", "both", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        assert min(float(row[1]) for row in rows) == 0.0
        assert "polyline" in out.with_suffix(".svg").read_text()


class TestTable1:
    def test_reproduces_reference(self, tmp_path, capsys):
        out = tmp_path / "t"
        rc = cli.main(["table1", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        table = {row[0]: (float(row[1]), float(row[2]), float(row[3])) for row in rows}
        q, z, a = table["hs"]
        assert q == pytest.approx(21.0 / 31104.0, rel=1e-9, abs=0.0)
        assert z == pytest.approx(math.pi / 6, abs=1e-6)
        assert a == 0.0
        for name in ("bures", "bkm"):
            q_ref, z_ref, a_ref = cli.REFERENCE_MINIMA[name]
            q, z, a = table[name]
            assert q == pytest.approx(q_ref, rel=1e-3)
            assert z == pytest.approx(z_ref, abs=2e-3)
            assert a == pytest.approx(a_ref, rel=1e-2)
        assert "rel dev" in capsys.readouterr().out

    def test_three_quadrature_blocks(self, tmp_path, monkeypatch):
        # Bures and BKM share the 13-angle scan, one read of both kinds'
        # 16 bracket points and one read of both minima; HS is closed form
        from wigner_classicality import indicators

        block = indicators._quadrature_block
        calls = []

        def spy(kinds, stratum, zetas):
            calls.append((kinds, len(zetas)))
            return block(kinds, stratum, zetas)

        monkeypatch.setattr(indicators, "_quadrature_block", spy)
        assert cli.main(["table1", "--out", str(tmp_path / "t")]) == 0
        assert calls == [((EnsembleKind.BKM, EnsembleKind.BURES), n) for n in (13, 32, 2)]


def test_quadrature_commands_import_no_numpy_polynomial_or_ma(tmp_path):
    # numpy.polynomial costs about 4 ms to import and numpy.ma about 20 ms;
    # no command that reads quadrature cells needs either
    src = os.path.dirname(os.path.dirname(wigner_classicality.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = [["curve", "--method", "quad", "--stratum", stratum, "--zeta-grid", "0:1:5"]
            for stratum in ("regular", "degenerate")]
    runs += [["qubit", "--method", "quad"], ["ratio", "--method", "quad", "--zeta-grid", "0:1:5"], ["table1"]]
    code = ("import sys; from wigner_classicality import cli\n"
            f"for i, args in enumerate({runs!r}):\n"
            f"    assert cli.main(args + ['--out', {str(tmp_path)!r} + f'/run{{i}}']) == 0\n"
            "print(sorted(m for m in ('numpy.polynomial', 'numpy.ma') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_commands_run_with_numpy_alone(tmp_path):
    # numpy is the only runtime dependency: with the test-side tools scipy,
    # mpmath and hypothesis unimportable, the CLI imports and computes by
    # quadrature and by Monte Carlo
    src = os.path.dirname(os.path.dirname(wigner_classicality.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = [["qubit", "--method", "quad"], ["curve", "--method", "mc", "--samples", "1000"]]
    code = ("import sys\n"
            "BLOCKED = ('scipy', 'mpmath', 'hypothesis')\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] in BLOCKED:\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, Block())\n"
            "for name in BLOCKED:\n"
            "    try:\n"
            "        __import__(name)\n"
            "    except ImportError:\n"
            "        pass\n"
            "    else:\n"
            "        sys.exit(f'{name} was not blocked')\n"
            "from wigner_classicality import cli\n"
            f"for i, args in enumerate({runs!r}):\n"
            f"    assert cli.main(args + ['--out', {str(tmp_path)!r} + f'/run{{i}}']) == 0\n"
            "print('ok')")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip().splitlines()[-1] == "ok"
    assert len(read_csv(tmp_path / "run1.csv")[1]) == 61


class TestSample:
    def test_regular_rows(self, tmp_path):
        out = tmp_path / "s"
        rc = cli.main(["sample", "--ensemble", "bures", "--samples", "200", "--seed", "9",
                       "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out.with_suffix(".csv"))
        assert header == ["r1", "r2", "r3"]
        assert len(rows) == 200
        eigs = np.array([[float(v) for v in row] for row in rows])
        assert np.allclose(eigs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(eigs, axis=1) <= 0.0)

    def test_qubit_sampling(self, tmp_path):
        out = tmp_path / "s2"
        rc = cli.main(["sample", "--ensemble", "bkm", "--stratum", "qubit", "--samples", "50",
                       "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert " stratum=qubit " in out.with_suffix(".csv").read_text().splitlines()[0]
        header, rows = read_csv(out.with_suffix(".csv"))
        draws = np.concatenate(list(stratum_spectra(EnsembleKind.BKM, QUBIT_STRATUM, 50, np.random.default_rng(3))))
        assert header == ["r1", "r2"]
        assert rows == [[cli._num(v) for v in row] for row in draws]

    def test_degenerate_mixture(self, tmp_path):
        out = tmp_path / "s3"
        rc = cli.main(["sample", "--ensemble", "hs", "--stratum", "degenerate",
                       "--samples", "300", "--seed", "4", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        eigs = np.array([[float(v) for v in row] for row in rows])
        doubled_top = np.isclose(eigs[:, 0], eigs[:, 1]).sum()
        doubled_bottom = np.isclose(eigs[:, 1], eigs[:, 2]).sum()
        assert doubled_top + doubled_bottom == 300
        assert doubled_top > 0 and doubled_bottom > 0

    def test_writes_one_block_at_a_time(self, monkeypatch):
        # with 16-row blocks, no more than one block's rows are ever formatted
        # and unwritten, and the bytes equal the whole draw formatted at once
        monkeypatch.setattr(SpectrumSampler, "_CHUNK", 16)
        count = {"values": 0, "lines": 0, "pending": 0}
        num = cli._num

        def counting_num(x):
            count["values"] += 1
            count["pending"] = max(count["pending"], count["values"] // 3 - (count["lines"] - 2))
            return num(x)

        class Spy(io.StringIO):
            def write(self, text):
                count["lines"] += text.count("\n")
                return super().write(text)

        spy = Spy()
        monkeypatch.setattr(cli, "_num", counting_num)
        monkeypatch.setattr(sys, "stdout", spy)
        assert cli.main(["sample", "--ensemble", "bures", "--stratum", "degenerate",
                         "--samples", "100", "--seed", "5"]) == 0
        assert count["values"] == 300 and count["lines"] == 102
        assert 0 < count["pending"] <= 16

        blocks = list(stratum_spectra(EnsembleKind.BURES, DEGENERATE_QUTRIT, 100,
                                      np.random.default_rng(5)))
        assert len(blocks) >= 100 // 16
        rows = [",".join(num(v) for v in row) for row in np.concatenate(blocks)]
        assert spy.getvalue().splitlines()[1:] == ["r1,r2,r3"] + rows

    def test_deterministic(self, tmp_path):
        args = ["sample", "--ensemble", "bkm", "--samples", "100", "--seed", "11"]
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / name
            cli.main(args + ["--out", str(out)])
            blobs.append(out.with_suffix(".csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestVerify:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "report"
        rc = cli.main(["verify", "--samples", "100000", "--out", str(out)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert all(set(c) >= {"check", "expected", "actual", "tolerance", "pass"}
                   for c in report["checks"])
        names = {c["check"] for c in report["checks"]}
        assert any(n.startswith("qubit_quad_vs_closed") for n in names)
        assert any(n.startswith("mc_vs_quad") for n in names)
        assert any(n.startswith("hs_symmetry") for n in names)
        assert any(n.startswith("ensemble_ordering") for n in names)
        assert "cone_oracle_equivalence[1e5]" in names

    def test_overtight_tolerance_fails(self, tmp_path):
        out = tmp_path / "report2"
        rc = cli.main(["verify", "--tol", "1e-15", "--samples", "50000", "--out", str(out)])
        assert rc == 4
        report = json.loads((tmp_path / "report2.json").read_text())
        assert report["pass"] is False
        assert any(not c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("tol", ["1e-6", "1e-15"])
    def test_margins(self, tmp_path, tol):
        # a check with a positive tolerance passes exactly when its margin is at most 1
        out = tmp_path / "report"
        cli.main(["verify", "--seed", "1234", "--tol", tol, "--samples", "50000", "--out", str(out)])
        checks = json.loads((tmp_path / "report.json").read_text())["checks"]
        for c in checks:
            if c["tolerance"] > 0:
                assert (c["margin"] <= 1.0) is c["pass"], c
                assert c["margin"] == abs(c["actual"] - c["expected"]) / c["tolerance"]
            else:
                assert c["margin"] is None, c
        assert {c["pass"] for c in checks if c["tolerance"] > 0} == ({True} if tol == "1e-6" else {True, False})

    def test_byte_identical_reports(self, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cli.main(["verify", "--samples", "50000", "--seed", "77", "--out", str(out)])
            blobs.append((tmp_path / f"{name}.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestVerifyConeCheck:
    """``cone_oracle_equivalence[1e5]``, which runs on arrays."""

    def test_points_are_the_scalar_stream(self):
        phi, r, zeta = cli._cone_points(1234, cli.CONE_POINTS)
        rng = np.random.default_rng(1234)
        scalar = []
        for _ in range(10_000):
            p = float(rng.uniform(0.0, math.pi))
            scalar.append((p, float(rng.uniform(0.0, trisectrix_boundary(p))),
                           float(rng.uniform(0.0, cli.ZETA_MAX))))
        assert list(zip(phi[:10_000].tolist(), r[:10_000].tolist(), zeta[:10_000].tolist())) == scalar

    def test_shifted_cone_fails_only_this_check(self, tmp_path, monkeypatch):
        true_cone = cli._cone_classical

        def shifted(zeta, r, phi):
            return true_cone(np.minimum(zeta + 0.05, cli.ZETA_MAX), r, phi)

        monkeypatch.setattr(cli, "_cone_classical", shifted)
        rc = cli.main(["verify", "--samples", "50000", "--out", str(tmp_path / "report")])
        assert rc == 4
        report = json.loads((tmp_path / "report.json").read_text())
        failed = [c for c in report["checks"] if not c["pass"]]
        assert [c["check"] for c in failed] == ["cone_oracle_equivalence[1e5]"]
        assert failed[0]["actual"] > 0


class TestVerifyMonteCarlo:
    """The nine ``mc_vs_quad`` checks, with every chunk's hit count forced to zero."""

    @pytest.fixture
    def chunk_seeds(self, monkeypatch, serial_pool):
        """The seeds of every chunk counted, each with no hits, all in this process."""
        from wigner_classicality import indicators

        seeds = []

        def no_hits(kind, stratum, kernels, chunk, seed):
            seeds.append(seed)
            return [0] * len(kernels)

        monkeypatch.setattr(indicators, "_mc_chunk_hits", no_hits)
        return seeds

    @staticmethod
    def config(workers):
        argv = ["verify", "--samples", "50000", "--workers", str(workers)]
        return cli._config_from_args(cli._build_parser().parse_args(argv))

    @staticmethod
    def mc_checks(config):
        with cli._mc_checks(config) as collect:
            return collect()

    def test_zero_hits_fail_every_check(self, chunk_seeds):
        checks = self.mc_checks(self.config(2))
        assert len(checks) == 9
        assert [c["check"] for c in checks if c["pass"]] == []

    def test_no_two_chunks_share_a_seed(self, monkeypatch, chunk_seeds):
        # a cell of n draws seeds its ceil(n / 2^18) chunks, chunk i with
        # worker_seed(cell seed, i), whatever the worker count: verify's
        # Bures and BKM regular cells draw more than one chunk
        cells, mc_cells = [], cli._mc_cells
        monkeypatch.setattr(cli, "_mc_cells", lambda given, workers: cells.extend(given) or mc_cells(given, workers))
        for workers in (1, 2, 3, 4):
            cells.clear()
            chunk_seeds.clear()
            self.mc_checks(self.config(workers))
            expected = [worker_seed(seed, i) for *_, n, seed in cells
                        for i in range(-(-n // SpectrumSampler._CHUNK))]
            assert len(cells) == 9 and len(expected) > 9
            assert sorted(chunk_seeds) == sorted(expected)
            assert len(set(chunk_seeds)) == len(chunk_seeds)


def test_verify_with_two_workers_exits_cleanly(tmp_path):
    # the Monte Carlo pool forks at its first call and is shut down at
    # exit: the process exits 0, writes only its PASS/FAIL lines (no fork
    # DeprecationWarning, printed from Python 3.12 on under "always", and
    # no error from a pool collected after the interpreter's teardown), and
    # leaves no process of its session running
    src = os.path.dirname(os.path.dirname(wigner_classicality.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    # stderr goes to a file, not a pipe, so that a process left holding it cannot stall the wait
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, "-W", "always::DeprecationWarning", "-m", "wigner_classicality.cli",
                                 "verify", "--workers", "2", "--out", str(tmp_path / "report")],
                                env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        assert proc.wait(timeout=300) == 0
        err.seek(0)
        lines = err.read().splitlines()
    assert lines and all(re.fullmatch(r"(PASS|FAIL) \S+", line) for line in lines), lines
    # the session's process group, led by the finished process, has no member left
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path):
        # the parser is built once per process, and no call's options reach the next
        assert cli._build_parser() is cli._build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["curve", "--seed", "7", "--ensemble", "bkm", "--method", "quad",
                         "--zeta-grid", "0:1:2", "--out", str(first)]) == 0
        assert cli.main(["curve", "--zeta-grid", "0:1:2", "--out", str(second)]) == 0
        header = open(second.with_suffix(".csv"), encoding="utf-8").readline()
        assert "ensemble=hs " in header and "method=closed " in header and "seed=1234 " in header
        assert cli.main(["curve", "--samples", "0"]) == cli.EXIT_CONFIG
        assert cli.main(["curve", "--zeta-grid", "0:1:2", "--out", str(second)]) == 0


class TestComputationErrors:
    def test_convergence_error_maps_to_exit_3(self, monkeypatch):
        from wigner_classicality import indicators

        def boom(kinds, stratum, zetas):
            raise indicators.ConvergenceError("forced")

        # every quadrature cell, alone or in a block of a grid, runs here
        monkeypatch.setattr(indicators, "_quadrature_block", boom)
        rc = cli.main(["curve", "--method", "quad", "--zeta-grid", "0:1:3"])
        assert rc == 3
