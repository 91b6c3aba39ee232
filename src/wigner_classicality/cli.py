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
configuration (including seed) and carry a provenance header line; the
worker count caps Monte Carlo processes and changes no output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

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
    IndicatorRequest,
    Method,
    UnsupportedRequestError,
    _degenerate_to_regular_ratios,
    _mc_cells,
    _minima,
    compute_indicator,
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
}

#: The choices of ``sample`` where they differ: it draws one ensemble, on any stratum.
_SAMPLE_CHOICES = {"--ensemble": _ENSEMBLE_CHOICES[:-1], "--stratum": tuple(_STRATUM_LABELS)}

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
               ("--ensemble", "--stratum", "--samples", "--seed", "--out")),
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
            if name == "sample" and flag in _SAMPLE_CHOICES:
                spec = dict(spec, choices=_SAMPLE_CHOICES[flag])
            if flag in flags:
                p.add_argument(flag, **spec)
            else:
                p.set_defaults(**{spec.get("dest", flag[2:].replace("-", "_")): spec["default"]})
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check ``args`` and add to it the parsed ``ensembles``, ``zeta_grid`` and ``method``: the run's configuration."""
    args.ensembles = list(EnsembleKind) if args.ensemble == "all" else [EnsembleKind(args.ensemble)]
    args.zeta_grid = _parse_zeta_grid(args.zeta_grid)
    if args.samples < 1:
        raise _CliError(f"sample count must be positive, got {args.samples}")
    if args.workers < 1:
        raise _CliError(f"worker count must be positive, got {args.workers}")
    if args.seed < 0 or args.seed > 2 ** 64 - 1:
        raise _CliError(f"seed must be an unsigned 64-bit integer, got {args.seed}")
    if args.tol is not None and not 0.0 < args.tol < 1.0:
        raise _CliError(f"tolerance must be in (0, 1), got {args.tol}")
    args.method = Method(args.method)
    return args


def _describe(args: argparse.Namespace) -> str:
    """Every option of the run at its value, as the provenance line and ``verify``'s ``"config"`` record it."""
    a, b, n = args.zeta_grid
    return (
        f"command={args.command} ensemble={'+'.join(e.label for e in args.ensembles)} stratum={args.stratum} "
        f"zeta_grid={a:.17g}:{b:.17g}:{n} method={args.method.value} "
        f"tol={args.tol} samples={args.samples} seed={args.seed} "
        f"workers={args.workers} format={args.fmt}"
    )


def _provenance(args: argparse.Namespace) -> str:
    return f"# {TOOL} {__version__} | {_describe(args)}"


def _out_paths(args: argparse.Namespace) -> tuple[str | None, str | None]:
    """Resolve (csv_path, svg_path) from --out and --format."""
    want_csv = args.fmt in ("csv", "both")
    want_svg = args.fmt in ("svg", "both")
    if args.out is None:
        if want_svg:
            raise _CliError("--format svg/both requires --out")
        return None, None
    base = args.out
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


def _csv_text(args: argparse.Namespace, header: list[str], rows: list[list[str]]) -> str:
    lines = [_provenance(args), ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _angle_grid(args: argparse.Namespace) -> np.ndarray:
    a, b, n = args.zeta_grid
    return np.linspace(a, b, n)


def _write_curves(args: argparse.Namespace, paths: tuple[str | None, str | None], header: list[str],
                  rows: list[list[str]], series: list, **plot) -> int:
    """Write a curve command's CSV (if --format asks for it) and SVG to ``paths``, from ``_out_paths``."""
    csv_path, svg_path = paths
    if args.fmt in ("csv", "both"):
        _write_text(csv_path, _csv_text(args, header, rows))
    if svg_path is not None:
        svg = render_line_plot(series, xlabel="zeta", **plot)
        _write_text(svg_path, f"<!-- {_provenance(args)[2:]} -->\n" + svg)
    return EXIT_OK


def _run_curve(args: argparse.Namespace) -> int:
    paths = _out_paths(args)
    header = ["zeta", "q", "method", "error_estimate", "ensemble", "stratum", "seed"]
    rows = []
    series = []
    zetas = _angle_grid(args)
    curves = indicators(args.ensembles, _STRATUM_LABELS[args.stratum], args.method, zetas,
                        samples=args.samples, seed=args.seed, workers=args.workers)
    for ensemble, (values, errors) in zip(args.ensembles, curves):
        rows.extend([_num(z), _num(q), args.method.value, _num(err),
                     ensemble.label, args.stratum, str(args.seed)] for z, q, err in zip(zetas, values, errors))
        series.append((ensemble.label, list(zetas), values))
    # a Monte Carlo cell with no classical draw reads 0, which a log axis cannot show
    return _write_curves(args, paths, header, rows, series, title=f"classicality indicator ({args.stratum} stratum)",
                         ylabel="Q", log_y=all(q > 0.0 for _, _, qs in series for q in qs))


def _run_qubit(args: argparse.Namespace) -> int:
    csv_path, _ = _out_paths(args)
    header = ["ensemble", "q", "method", "error_estimate", "seed"]
    rows = []
    cells = indicators(args.ensembles, QUBIT_STRATUM, args.method, [None],
                       samples=args.samples, seed=args.seed, workers=args.workers)
    for ensemble, ((q,), (err,)) in zip(args.ensembles, cells):
        rows.append([ensemble.label, _num(q), args.method.value, _num(err), str(args.seed)])
    _write_text(csv_path, _csv_text(args, header, rows))
    return EXIT_OK


def _run_ratio(args: argparse.Namespace) -> int:
    paths = _out_paths(args)
    header = ["zeta", "ratio", "ensemble", "method", "seed"]
    rows = []
    series = []
    zetas = _angle_grid(args)
    curves = _degenerate_to_regular_ratios(args.ensembles, zetas, args.method,
                                           args.samples, args.seed, args.workers)
    for ensemble, ratios in zip(args.ensembles, curves):
        rows.extend([_num(z), _num(r), ensemble.label, args.method.value, str(args.seed)]
                    for z, r in zip(zetas, ratios))
        # an undefined ratio (no classical regular draw) is written as nan and not plotted
        for z, r in zip(zetas, ratios):
            if not math.isfinite(r):
                sys.stderr.write(f"{TOOL}: warning: ratio undefined for {ensemble.label} at "
                                 f"zeta={_num(z)}: the regular indicator is 0\n")
        defined = [(z, r) for z, r in zip(zetas, ratios) if math.isfinite(r)]
        series.append((ensemble.label, [z for z, _ in defined], [r for _, r in defined]))
    return _write_curves(args, paths, header, rows, series, title="degenerate / regular indicator ratio",
                         ylabel="R", log_y=False)


def _run_table1(args: argparse.Namespace) -> int:
    """Minima over the moduli angle for the three ensembles.

    The Hilbert-Schmidt row uses the closed forms; Bures and BKM, which have
    none, are searched together by quadrature.  ``table1`` takes no --method.
    """
    csv_path, _ = _out_paths(args)
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
    _write_text(csv_path, _csv_text(args, header, rows))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _run_sample(args: argparse.Namespace) -> int:
    csv_path, _ = _out_paths(args)
    stratum = _STRATUM_LABELS[args.stratum]
    rng = np.random.default_rng(args.seed)
    with _output(csv_path) as fh:
        fh.write(_csv_text(args, [f"r{i + 1}" for i in range(stratum.n)], []))
        # one block's rows at a time, so memory does not grow with --samples
        for block in stratum_spectra(args.ensembles[0], stratum, args.samples, rng):
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


@contextlib.contextmanager
def _mc_checks(args: argparse.Namespace):
    """Monte Carlo versus quadrature at 4 sigma, on nine cells drawn in one pass of ``_mc_cells``.

    A cell draws ``min(--samples, 200 000)`` spectra, or
    ``ceil(VERIFY_MIN_EXPECTED_HITS / q_quad)`` if that is more.  Cell
    ``idx`` is seeded with ``worker_seed(seed, idx)``, so no two cells or
    chunks share a stream.  Entering submits every cell's runs, and the
    block gets a function that waits for them and returns the nine checks.
    """
    samples = min(args.samples, 200_000)
    mc_cells = [(e, tag, math.pi / 6.0) for e in EnsembleKind for tag in ("regular", "degenerate")]
    mc_cells += [(e, "qubit", None) for e in EnsembleKind]
    cells, expected = [], []
    for idx, (ensemble, tag, z) in enumerate(mc_cells):
        stratum = _STRATUM_LABELS[tag]
        quad = compute_indicator(IndicatorRequest(ensemble, stratum, Method.QUADRATURE, z)).q
        n = max(samples, math.ceil(VERIFY_MIN_EXPECTED_HITS / quad)) if quad > 0.0 else samples
        cells.append((ensemble, stratum, [z], n, worker_seed(args.seed, idx)))
        expected.append((f"mc_vs_quad[{ensemble.label},{tag}]", quad, 4.0 * math.sqrt(quad * (1.0 - quad) / n)))
    with _mc_cells(cells, args.workers) as collect:
        yield lambda: [_check(name, quad, mc, tolerance)
                       for (name, quad, tolerance), ((mc,), _) in zip(expected, collect())]


def _verify_checks(args: argparse.Namespace) -> list[dict]:
    tol = args.tol if args.tol is not None else 1e-6
    checks: list[dict] = []
    zeta_probe = [0.0, math.pi / 12.0, math.pi / 6.0, math.pi / 4.0, ZETA_MAX]

    # closed form versus quadrature
    qubit = indicators(EnsembleKind, QUBIT_STRATUM, Method.CLOSED_FORM, [None])
    for ensemble, ((closed,), _) in zip(EnsembleKind, qubit):
        quad = compute_indicator(IndicatorRequest(ensemble, QUBIT_STRATUM, Method.QUADRATURE)).q
        checks.append(_check(f"qubit_quad_vs_closed[{ensemble.label}]", closed, quad, tol * closed))
    for tag in ("regular", "degenerate"):
        closed, quad = (indicators((EnsembleKind.HILBERT_SCHMIDT,), _STRATUM_LABELS[tag], method, zeta_probe)[0][0]
                        for method in (Method.CLOSED_FORM, Method.QUADRATURE))
        for z, c, q in zip(zeta_probe, closed, quad):
            checks.append(_check(f"hs_{tag}_quad_vs_closed[zeta={z:.6f}]", c, q, tol * c))

    # the pool draws the Monte Carlo cells while this process runs the
    # checks that follow them in the report
    with _mc_checks(args) as mc_checks:
        later = _checks_after_mc(args, tol)
        checks += mc_checks()
    return checks + later


def _checks_after_mc(args: argparse.Namespace, tol: float) -> list[dict]:
    """The checks of ``verify`` that follow Monte Carlo: symmetry, asymmetry, ensemble ordering and the cone."""
    checks: list[dict] = []
    # Hilbert-Schmidt mirror symmetry of the closed forms
    deltas = (0.05, 0.1, 0.15)
    for tag in ("regular", "degenerate"):
        ((values, _),) = indicators((EnsembleKind.HILBERT_SCHMIDT,), _STRATUM_LABELS[tag], Method.CLOSED_FORM,
                                    [math.pi / 6.0 + d for d in deltas] + [math.pi / 6.0 - d for d in deltas])
        for delta, a, b in zip(deltas, values, values[len(deltas):]):
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

    checks.append(_cone_check(args))
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


def _cone_check(args: argparse.Namespace) -> dict:
    """Analytic cone versus spectral pairing on ``CONE_POINTS`` random points.

    The shared formulas run on the arrays unchecked: every point lies
    inside the chart (r < R(phi)), so its spectrum is descending and sums
    to 1 within float noise, and its least eigenvalue, positive in exact
    arithmetic, comes out no lower than -2e-16, which moves a pairing by
    less than 3e-16.  Points whose pairing lies within ``BOUNDARY_TOL`` of
    zero sit on the boundary and are skipped; the check counts the other
    points where the two disagree.
    """
    phi, r, zeta = _cone_points(args.seed, CONE_POINTS)
    pairing = _dual_pairing(_polar_columns(r, phi), _kernel_columns(zeta))
    off_boundary = np.abs(pairing) >= BOUNDARY_TOL
    disagree = _cone_classical(zeta, r, phi) != (pairing >= 0.0)
    return _check("cone_oracle_equivalence[1e5]", 0, int(np.count_nonzero(disagree & off_boundary)), 0)


def _run_verify(args: argparse.Namespace) -> int:
    checks = _verify_checks(args)
    ok = all(c["pass"] for c in checks)
    report = {
        "tool": TOOL,
        "version": __version__,
        "config": _describe(args),
        "seed": args.seed,
        "workers": args.workers,
        "checks": checks,
        "pass": ok,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    path = args.out
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
        args = _config_from_args(_build_parser().parse_args(argv))
        return _HANDLERS[args.command](args)
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
