"""Command-line front end.

Subcommands
-----------
curve    indicator versus the moduli angle, as CSV and optionally SVG
table1   minima, minimizers and endpoint asymmetries for all ensembles,
         with a side-by-side comparison against the published reference
qubit    the three qubit indicators
ratio    degenerate-to-regular indicator ratio over a moduli grid
sample   draw eigenvalue spectra from an ensemble stratum
verify   cross-method consistency suite with a JSON report

Exit codes: 0 ok, 1 invalid configuration, 2 I/O error, 3 computation
error, 4 verification failure.  All outputs are deterministic for a fixed
configuration (including seed and worker count) and carry a provenance
header line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .spectra import _polar_columns, _trisectrix_radius
from .wigner import BOUNDARY_TOL, ZETA_MAX, _cone_classical, _dual_pairing, _kernel_columns
from .ensembles import EnsembleKind, SamplerFailureError, stratum_spectra, worker_seed
from .indicators import (
    DEGENERATE_QUTRIT,
    QUBIT_STRATUM,
    REGULAR_QUTRIT,
    ConvergenceError,
    Method,
    UnsupportedRequestError,
    _degenerate_to_regular_ratios,
    _minima,
    indicator,
    indicators,
)
from .svgplot import render_line_plot

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4

TOOL = "wigner-classicality"

#: Published reference values compared against by ``table1`` and tests:
#: ensemble -> (q_min, zeta_min, q(0) - q(pi/3)).
REFERENCE_MINIMA = {
    "hs": (0.0006751, math.pi / 6.0, 0.0),
    "bkm": (0.0000121609, 0.527798, 0.0000216102),
    "bures": (0.0000891011, 0.525096, 0.0000472609),
}

_ENSEMBLE_CHOICES = ("hs", "bures", "bkm", "all")
_STRATUM_CHOICES = ("regular", "degenerate")

#: Stratum name -> label, for the strata of ``ensembles._STRATA`` that commands name.
_STRATUM_LABELS = {"qubit": QUBIT_STRATUM, "regular": REGULAR_QUTRIT, "degenerate": DEGENERATE_QUTRIT}


class _CliError(Exception):
    """Invalid configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # do not sys.exit(2) like argparse does
        raise _CliError(message)


@dataclass
class RunConfig:
    command: str
    ensembles: list[EnsembleKind]
    stratum: str = "regular"
    zeta_grid: tuple[float, float, int] = (0.0, ZETA_MAX, 61)
    method: Method = Method.CLOSED_FORM
    tol: float | None = None
    samples: int = 1_000_000
    seed: int = 1234
    workers: int = 1
    out: str | None = None
    fmt: str = "csv"
    dimension: int = 3

    def describe(self) -> str:
        names = "+".join(e.label for e in self.ensembles)
        a, b, n = self.zeta_grid
        return (
            f"command={self.command} ensemble={names} stratum={self.stratum} "
            f"zeta_grid={a:.17g}:{b:.17g}:{n} method={self.method.value} "
            f"tol={self.tol} samples={self.samples} seed={self.seed} "
            f"workers={self.workers} format={self.fmt}"
        )


def _num(x: float) -> str:
    """CSV number format: 17 significant digits, lowercase exponent."""
    return f"{float(x):.17g}"


def _parse_zeta_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(f"bad zeta grid {text!r}; expected start:stop:count")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _CliError(f"bad zeta grid {text!r}: {exc}") from None
    if n < 2:
        raise _CliError(f"zeta grid needs at least 2 points, got {n}")
    if not a < b:
        raise _CliError(f"zeta grid must have start < stop, got {a} >= {b}")
    if a < -1e-15 or b > ZETA_MAX + 1e-12:
        raise _CliError(f"zeta grid must lie within [0, pi/3], got [{a}, {b}]")
    return max(a, 0.0), min(b, ZETA_MAX), n


#: Each option's argparse settings.
_OPTIONS = {
    "--ensemble": dict(choices=_ENSEMBLE_CHOICES, default="hs"),
    "--stratum": dict(choices=_STRATUM_CHOICES, default="regular"),
    "--zeta-grid": dict(default=f"0:{ZETA_MAX!r}:61", metavar="A:B:N"),
    "--method": dict(choices=[m.value for m in Method]),
    "--tol": dict(type=float, default=None, help="verify comparison tolerance"),
    "--samples": dict(type=int, default=1_000_000),
    "--seed": dict(type=int, default=1234),
    "--workers": dict(type=int, default=1),
    "--out": dict(default=None, metavar="PATH"),
    "--format": dict(dest="fmt", choices=("csv", "svg", "both"), default="csv"),
    "--n": dict(type=int, choices=(2, 3), default=3, help="Hilbert-space dimension"),
}

#: Options of the commands that compute indicator cells by any method.
_CELL_OPTIONS = ("--ensemble", "--method", "--samples", "--seed", "--workers", "--out")

#: Subcommand -> (help, default method, the options it reads).  An option a
#: command does not read is rejected, and its value is recorded at its default.
_COMMANDS = {
    "curve": ("indicator versus the moduli angle", "closed",
              _CELL_OPTIONS + ("--stratum", "--zeta-grid", "--format")),
    "table1": ("minima, minimizers and asymmetries for all ensembles", "quad", ("--out",)),
    "qubit": ("the three qubit indicators", "closed", _CELL_OPTIONS),
    "ratio": ("degenerate-to-regular indicator ratio", "closed",
              _CELL_OPTIONS + ("--zeta-grid", "--format")),
    "sample": ("draw eigenvalue spectra", "mc",
               ("--ensemble", "--stratum", "--samples", "--seed", "--out", "--n")),
    "verify": ("cross-method consistency suite", "quad",
               ("--tol", "--samples", "--seed", "--workers", "--out")),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog=TOOL, description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, method, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in _OPTIONS.items():
            spec = dict(spec, default=method) if flag == "--method" else spec
            if name == "sample" and flag == "--ensemble":
                spec = dict(spec, choices=_ENSEMBLE_CHOICES[:-1])  # one ensemble per draw
            if flag in flags:
                p.add_argument(flag, **spec)
            else:
                p.set_defaults(**{spec.get("dest", flag[2:].replace("-", "_")): spec["default"]})
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    ensembles = list(EnsembleKind) if args.ensemble == "all" else [EnsembleKind(args.ensemble)]
    zeta_grid = _parse_zeta_grid(args.zeta_grid)
    if args.samples < 1:
        raise _CliError(f"sample count must be positive, got {args.samples}")
    if args.workers < 1:
        raise _CliError(f"worker count must be positive, got {args.workers}")
    if args.seed < 0 or args.seed > 2 ** 64 - 1:
        raise _CliError(f"seed must be an unsigned 64-bit integer, got {args.seed}")
    if args.tol is not None and not 0.0 < args.tol < 1.0:
        raise _CliError(f"tolerance must be in (0, 1), got {args.tol}")
    return RunConfig(
        command=args.command,
        ensembles=ensembles,
        stratum=args.stratum,
        zeta_grid=zeta_grid,
        method=Method(args.method),
        tol=args.tol,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        out=args.out,
        fmt=args.fmt,
        dimension=args.n,
    )


def _provenance(cfg: RunConfig) -> str:
    return f"# {TOOL} {__version__} | {cfg.describe()}"


def _out_paths(cfg: RunConfig) -> tuple[str | None, str | None]:
    """Resolve (csv_path, svg_path) from --out and --format."""
    want_csv = cfg.fmt in ("csv", "both")
    want_svg = cfg.fmt in ("svg", "both")
    if cfg.out is None:
        if want_svg:
            raise _CliError("--format svg/both requires --out")
        return None, None
    base = cfg.out
    for suffix in (".csv", ".svg", ".json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    return (base + ".csv" if want_csv else None, base + ".svg" if want_svg else None)


@contextlib.contextmanager
def _output(path: str | None):
    """The file at ``path`` opened for writing, or standard output."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _write_text(path: str | None, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _csv_text(cfg: RunConfig, header: list[str], rows: list[list[str]]) -> str:
    lines = [_provenance(cfg), ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _angle_grid(cfg: RunConfig) -> np.ndarray:
    a, b, n = cfg.zeta_grid
    return np.linspace(a, b, n)


def _write_curves(cfg: RunConfig, paths: tuple[str | None, str | None], header: list[str],
                  rows: list[list[str]], series: list, **plot) -> int:
    """Write a curve command's CSV (if --format asks for it) and SVG to ``paths``, from ``_out_paths``."""
    csv_path, svg_path = paths
    if cfg.fmt in ("csv", "both"):
        _write_text(csv_path, _csv_text(cfg, header, rows))
    if svg_path is not None:
        svg = render_line_plot(series, xlabel="zeta", **plot)
        _write_text(svg_path, f"<!-- {_provenance(cfg)[2:]} -->\n" + svg)
    return EXIT_OK


def _run_curve(cfg: RunConfig) -> int:
    paths = _out_paths(cfg)
    header = ["zeta", "q", "method", "error_estimate", "ensemble", "stratum", "seed"]
    rows = []
    series = []
    zetas = _angle_grid(cfg)
    curves = indicators(cfg.ensembles, _STRATUM_LABELS[cfg.stratum], cfg.method, zetas,
                        samples=cfg.samples, seed=cfg.seed, workers=cfg.workers)
    for ensemble, (values, errors) in zip(cfg.ensembles, curves):
        rows.extend([_num(z), _num(q), cfg.method.value, _num(err),
                     ensemble.label, cfg.stratum, str(cfg.seed)] for z, q, err in zip(zetas, values, errors))
        series.append((ensemble.label, list(zetas), values))
    # a Monte Carlo cell with no classical draw reads 0, which a log axis cannot show
    return _write_curves(cfg, paths, header, rows, series, title=f"classicality indicator ({cfg.stratum} stratum)",
                         ylabel="Q", log_y=all(q > 0.0 for _, _, qs in series for q in qs))


def _run_qubit(cfg: RunConfig) -> int:
    csv_path, _ = _out_paths(cfg)
    header = ["ensemble", "q", "method", "error_estimate", "seed"]
    rows = []
    cells = indicators(cfg.ensembles, QUBIT_STRATUM, cfg.method, [None],
                       samples=cfg.samples, seed=cfg.seed, workers=cfg.workers)
    for ensemble, ((q,), (err,)) in zip(cfg.ensembles, cells):
        rows.append([ensemble.label, _num(q), cfg.method.value, _num(err), str(cfg.seed)])
    _write_text(csv_path, _csv_text(cfg, header, rows))
    return EXIT_OK


def _run_ratio(cfg: RunConfig) -> int:
    paths = _out_paths(cfg)
    header = ["zeta", "ratio", "ensemble", "method", "seed"]
    rows = []
    series = []
    zetas = _angle_grid(cfg)
    curves = _degenerate_to_regular_ratios(cfg.ensembles, zetas, cfg.method,
                                           cfg.samples, cfg.seed, cfg.workers)
    for ensemble, ratios in zip(cfg.ensembles, curves):
        rows.extend([_num(z), _num(r), ensemble.label, cfg.method.value, str(cfg.seed)]
                    for z, r in zip(zetas, ratios))
        # an undefined ratio (no classical regular draw) is written as nan and not plotted
        for z, r in zip(zetas, ratios):
            if not math.isfinite(r):
                sys.stderr.write(f"{TOOL}: warning: ratio undefined for {ensemble.label} at "
                                 f"zeta={_num(z)}: the regular indicator is 0\n")
        defined = [(z, r) for z, r in zip(zetas, ratios) if math.isfinite(r)]
        series.append((ensemble.label, [z for z, _ in defined], [r for _, r in defined]))
    return _write_curves(cfg, paths, header, rows, series, title="degenerate / regular indicator ratio",
                         ylabel="R", log_y=False)


def _run_table1(cfg: RunConfig) -> int:
    """Minima over the moduli angle for the three ensembles.

    The Hilbert-Schmidt row uses the closed forms; Bures and BKM, which have
    none, are searched together by quadrature.  ``table1`` takes no --method.
    """
    csv_path, _ = _out_paths(cfg)
    header = ["ensemble", "q_min", "zeta_min", "asymmetry"]
    rows = []
    lines = []
    ensembles = (EnsembleKind.HILBERT_SCHMIDT, EnsembleKind.BKM, EnsembleKind.BURES)
    minima = (_minima(ensembles[:1], REGULAR_QUTRIT, Method.CLOSED_FORM)
              + _minima(ensembles[1:], REGULAR_QUTRIT, Method.QUADRATURE))
    for ensemble, (zeta_min, q_min, asym) in zip(ensembles, minima):
        rows.append([ensemble.label, _num(q_min), _num(zeta_min), _num(asym)])
        ref_q, ref_z, ref_a = REFERENCE_MINIMA[ensemble.label]
        dq = abs(q_min - ref_q) / ref_q
        dz = abs(zeta_min - ref_z)
        da = abs(asym - ref_a) / ref_a if ref_a else abs(asym)
        lines.append(
            f"{ensemble.label:6s} q_min={q_min:.10e} (ref {ref_q:.10e}, rel dev {dq:.2e})  "
            f"zeta_min={zeta_min:.6f} (ref {ref_z:.6f}, dev {dz:.2e})  "
            f"asymmetry={asym:.10e} (ref {ref_a:.10e}, dev {da:.2e})"
        )
    _write_text(csv_path, _csv_text(cfg, header, rows))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _run_sample(cfg: RunConfig) -> int:
    csv_path, _ = _out_paths(cfg)
    n_dim = cfg.dimension
    if n_dim == 2 and cfg.stratum == "degenerate":
        raise _CliError("degenerate-stratum sampling is defined for the qutrit")
    stratum = _STRATUM_LABELS["qubit" if n_dim == 2 else cfg.stratum]
    rng = np.random.default_rng(cfg.seed)
    with _output(csv_path) as fh:
        fh.write(_csv_text(cfg, [f"r{i + 1}" for i in range(n_dim)], []))
        # one block's rows at a time, so memory does not grow with --samples
        for block in stratum_spectra(cfg.ensembles[0], stratum, cfg.samples, rng):
            fh.write("".join(",".join(map(_num, row)) + "\n" for row in block))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name: str, expected: float, actual: float, tolerance: float) -> dict:
    """A check that ``actual`` is within ``tolerance`` of ``expected``; its margin is the deviation in tolerances."""
    return {
        "check": name,
        "expected": expected,
        "actual": actual,
        "tolerance": tolerance,
        "margin": abs(actual - expected) / tolerance if tolerance > 0 else None,
        "pass": bool(abs(actual - expected) <= tolerance),
    }


#: Expected classical hits that a ``verify`` Monte Carlo check draws for at
#: least: with 25, 4 sigma is 0.8 of the expected value, so zero hits fails.
VERIFY_MIN_EXPECTED_HITS = 25


def _mc_checks(cfg: RunConfig) -> list[dict]:
    """Monte Carlo versus quadrature at 4 sigma, on nine cells.

    A cell draws ``min(--samples, 200 000)`` spectra, or
    ``ceil(VERIFY_MIN_EXPECTED_HITS / q_quad)`` if that is more.  Cell
    ``idx`` is seeded with ``worker_seed(seed, idx)``, so no two cells or
    chunks share a stream.
    """
    samples = min(cfg.samples, 200_000)
    mc_cells = [(e, tag, math.pi / 6.0) for e in EnsembleKind for tag in ("regular", "degenerate")]
    mc_cells += [(e, "qubit", None) for e in EnsembleKind]
    checks = []
    for idx, (ensemble, tag, z) in enumerate(mc_cells):
        stratum = _STRATUM_LABELS[tag]
        quad = indicator(ensemble, stratum, Method.QUADRATURE, z).q
        n = max(samples, math.ceil(VERIFY_MIN_EXPECTED_HITS / quad)) if quad > 0.0 else samples
        mc = indicator(ensemble, stratum, Method.MONTE_CARLO, z, samples=n,
                       seed=worker_seed(cfg.seed, idx), workers=cfg.workers).q
        sigma = math.sqrt(quad * (1.0 - quad) / n)
        checks.append(_check(f"mc_vs_quad[{ensemble.label},{tag}]", quad, mc, 4.0 * sigma))
    return checks


def _verify_checks(cfg: RunConfig) -> list[dict]:
    tol = cfg.tol if cfg.tol is not None else 1e-6
    checks: list[dict] = []
    zeta_probe = [0.0, math.pi / 12.0, math.pi / 6.0, math.pi / 4.0, ZETA_MAX]

    # closed form versus quadrature
    for ensemble in EnsembleKind:
        closed = indicator(ensemble, QUBIT_STRATUM, Method.CLOSED_FORM).q
        quad = indicator(ensemble, QUBIT_STRATUM, Method.QUADRATURE).q
        checks.append(_check(f"qubit_quad_vs_closed[{ensemble.label}]", closed, quad, tol * closed))
    for tag in ("regular", "degenerate"):
        closed, quad = (indicators((EnsembleKind.HILBERT_SCHMIDT,), _STRATUM_LABELS[tag], method, zeta_probe)[0][0]
                        for method in (Method.CLOSED_FORM, Method.QUADRATURE))
        for z, c, q in zip(zeta_probe, closed, quad):
            checks.append(_check(f"hs_{tag}_quad_vs_closed[zeta={z:.6f}]", c, q, tol * c))

    checks += _mc_checks(cfg)

    # Hilbert-Schmidt mirror symmetry of the closed forms
    for tag in ("regular", "degenerate"):
        stratum = _STRATUM_LABELS[tag]
        for delta in (0.05, 0.1, 0.15):
            a = indicator(EnsembleKind.HILBERT_SCHMIDT, stratum, Method.CLOSED_FORM, math.pi / 6.0 + delta).q
            b = indicator(EnsembleKind.HILBERT_SCHMIDT, stratum, Method.CLOSED_FORM, math.pi / 6.0 - delta).q
            checks.append(_check(f"hs_symmetry_{tag}[delta={delta}]", a, b, tol * a))

    # monotone ensembles break the mirror symmetry: asymmetry must exceed error
    monotone = (EnsembleKind.BURES, EnsembleKind.BKM)
    endpoints = indicators(monotone, REGULAR_QUTRIT, Method.QUADRATURE, (0.0, ZETA_MAX))
    for ensemble, ((q0, q1), (err0, err1)) in zip(monotone, endpoints):
        asym = q0 - q1
        noise = 4.0 * (err0 + err1)
        checks.append({
            "check": f"asymmetry_positive[{ensemble.label}]",
            "expected": noise,
            "actual": asym,
            "tolerance": 0.0,
            "margin": None,
            "pass": bool(asym > noise),
        })

    # ensemble ordering hs > bures > bkm (regular stratum: whole moduli range;
    # degenerate stratum: upper range, where the relation holds)
    for stratum, grid, name in (
            (REGULAR_QUTRIT, np.linspace(0.0, ZETA_MAX, 21), "ensemble_ordering_regular[21pts]"),
            (DEGENERATE_QUTRIT, np.linspace(math.pi / 6.0, ZETA_MAX, 11),
             "ensemble_ordering_degenerate[upper,11pts]")):
        curves = (indicators((EnsembleKind.HILBERT_SCHMIDT,), stratum, Method.CLOSED_FORM, grid)
                  + indicators(monotone, stratum, Method.QUADRATURE, grid))
        violations = sum(not q_hs > q_b > q_k for q_hs, q_b, q_k in zip(*(values for values, _ in curves)))
        checks.append(_check(name, 0, violations, 0))

    checks.append(_cone_check(cfg))
    return checks


#: Random points of the ``verify`` cone check.
CONE_POINTS = 100_000


def _cone_points(seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` random (phi, r, zeta): phi in [0, pi), r in [0, R(phi)), zeta in [0, pi/3).

    One ``random((n, 3))`` draw from ``default_rng(seed)``.  Row i holds the
    three numbers that step i of a loop of ``uniform(0, pi)``,
    ``uniform(0, R(phi))``, ``uniform(0, pi/3)`` calls draws, and
    ``uniform(0, b)`` returns ``b * u``, so the points are those of that loop
    bit for bit.
    """
    u = np.random.default_rng(seed).random((n, 3))
    phi = math.pi * u[:, 0]
    return phi, _trisectrix_radius(phi) * u[:, 1], ZETA_MAX * u[:, 2]


def _cone_check(cfg: RunConfig) -> dict:
    """Analytic cone versus spectral pairing on ``CONE_POINTS`` random points.

    The shared formulas run on the arrays unchecked: every point lies
    inside the chart (r < R(phi)), so its spectrum is descending and sums
    to 1 within float noise, and its least eigenvalue, positive in exact
    arithmetic, comes out no lower than -2e-16, which moves a pairing by
    less than 3e-16.  Points whose pairing lies within ``BOUNDARY_TOL`` of
    zero sit on the boundary and are skipped; the check counts the other
    points where the two disagree.
    """
    phi, r, zeta = _cone_points(cfg.seed, CONE_POINTS)
    pairing = _dual_pairing(_polar_columns(r, phi), _kernel_columns(zeta))
    off_boundary = np.abs(pairing) >= BOUNDARY_TOL
    disagree = _cone_classical(zeta, r, phi) != (pairing >= 0.0)
    return _check("cone_oracle_equivalence[1e5]", 0, int(np.count_nonzero(disagree & off_boundary)), 0)


def _run_verify(cfg: RunConfig) -> int:
    checks = _verify_checks(cfg)
    ok = all(c["pass"] for c in checks)
    report = {
        "tool": TOOL,
        "version": __version__,
        "config": cfg.describe(),
        "seed": cfg.seed,
        "workers": cfg.workers,
        "checks": checks,
        "pass": ok,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    path = cfg.out
    if path is not None and not path.endswith(".json"):
        path = path + ".json"
    _write_text(path, text)
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        sys.stderr.write(f"{status} {c['check']}\n")
    return EXIT_OK if ok else EXIT_VERIFY


_HANDLERS = {
    "curve": _run_curve,
    "table1": _run_table1,
    "qubit": _run_qubit,
    "ratio": _run_ratio,
    "sample": _run_sample,
    "verify": _run_verify,
}


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _config_from_args(_build_parser().parse_args(argv))
        return _HANDLERS[cfg.command](cfg)
    except (_CliError, UnsupportedRequestError) as exc:
        sys.stderr.write(f"{TOOL}: configuration error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"{TOOL}: I/O error: {exc}\n")
        return EXIT_IO
    except (ConvergenceError, SamplerFailureError, OverflowError, FloatingPointError) as exc:
        sys.stderr.write(f"{TOOL}: computation error: {exc}\n")
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
