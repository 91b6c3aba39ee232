"""One benchmark round, in a fresh process.

    python3 perfbench/job.py --workload NAME --seed N --outdir DIR --result FILE [--trace]
    python3 perfbench/job.py --import-only --result FILE

Times the import of the package and its CLI, runs the workload's cold pass
and then its warm pass, reads the peak resident memory, checks the outputs
and writes one JSON result.  ``run.py`` starts it with ``PYTHONPATH`` set to
the checkout's ``src``.  Only the standard library is imported before the
package, so the import time is the package's own.  A pass is a list of
steps (CLI calls, Monte Carlo cells).  The Python calibration kernel
(``calibrate.py``, standard library only) runs right before and right after
the import, and the workload's own kernel before the first step and after
each step, so that ``run.py`` can scale each span to the kernel's
reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

ZETA_MAX = math.pi / 3.0
CURVE_POINTS = 61
#: The warm grid sits half a step off the cold one: 60 angles none of which
#: the cold pass computed.
_STEP = ZETA_MAX / (CURVE_POINTS - 1)
COLD_GRID = (0.0, ZETA_MAX, CURVE_POINTS)
WARM_GRID = (_STEP / 2.0, ZETA_MAX - _STEP / 2.0, CURVE_POINTS - 1)

MC_CELLS = tuple((e, s) for e in ("hs", "bures", "bkm") for s in ("qubit", "regular", "degenerate"))
#: Draws per Monte Carlo cell: at least this many, and enough that the
#: reference expects ``MC_MIN_EXPECTED_HITS`` hits, so that zero hits fails
#: the binomial test (P[0 hits] ~ exp(-16) = 1.1e-7 < MC_ALPHA).
MC_MIN_DRAWS = 200_000
MC_MIN_EXPECTED_HITS = 16

#: ``verify`` seeds, the same in every run: its own 4-sigma Monte Carlo
#: checks fail by chance on some seeds (see README), so they are not drawn
#: from ``--seed``.  The warm seed keeps its cells' streams (seed + index,
#: index < 9) apart from the cold ones.
VERIFY_SEEDS = {"cold": 1234, "warm": 5678}


def mc_draws(q_ref: float) -> int:
    return max(MC_MIN_DRAWS, math.ceil(MC_MIN_EXPECTED_HITS / q_ref))


def derived_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _grid_arg(grid) -> str:
    a, b, n = grid
    return f"{a!r}:{b!r}:{n}"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Figures:
    """The paper's quadrature outputs through the CLI; inputs do not use the seed."""

    KERNEL = "python"

    def __init__(self, pkg, seed: int, outdir: str) -> None:
        self.cli = pkg.cli
        self.outdir = outdir
        self.exit_codes: dict[str, int] = {}

    def _main(self, key: str, argv: list[str]) -> None:
        self.exit_codes[key] = self.cli.main(argv + ["--out", os.path.join(self.outdir, key)])

    def steps(self, phase: str) -> list:
        grid = COLD_GRID if phase == "cold" else WARM_GRID
        steps = [functools.partial(self._main, f"{phase}_{stratum}", [
            "curve", "--method", "quad", "--ensemble", "all", "--stratum", stratum,
            "--zeta-grid", _grid_arg(grid), "--format", "both"])
            for stratum in ("regular", "degenerate")]
        if phase == "cold":
            steps.append(functools.partial(
                self._main, "cold_qubit", ["qubit", "--method", "quad", "--ensemble", "all"]))
            steps.append(functools.partial(self._main, "cold_table1", ["table1"]))
        return steps

    def outputs(self) -> list[str]:
        return [os.path.join(self.outdir, f"{key}.{ext}") for key in self.exit_codes
                for ext in ("csv", "svg") if os.path.exists(os.path.join(self.outdir, f"{key}.{ext}"))]

    def check(self) -> dict:
        import checks

        attempted, problems = 0, []
        for key, code in self.exit_codes.items():
            if code != 0:
                problems.append(f"{key}: exit code {code}")

        def path(key: str, ext: str) -> str:
            return os.path.join(self.outdir, f"{key}.{ext}")

        for phase, grid in (("cold", COLD_GRID), ("warm", WARM_GRID)):
            for stratum in ("regular", "degenerate"):
                n, found = checks.check_curve(_read(path(f"{phase}_{stratum}", "csv")), stratum,
                                              checks.grid(*grid))
                attempted += n + 1
                problems += found + checks.check_svg(_read(path(f"{phase}_{stratum}", "svg")))
        n, found = checks.check_qubit(_read(path("cold_qubit", "csv")))
        attempted += n
        problems += found
        found, off_published = checks.check_table1(_read(path("cold_table1", "csv")),
                                                    _read(path("cold_regular", "csv")))
        attempted += 1
        problems += found
        # the table is one operation: it fails when any entry is off the published digits
        return {"attempted": attempted, "failed": int(bool(off_published)),
                "failures": off_published, "problems": problems}


class MonteCarloCells:
    """Nine MC cells through ``compute_indicator``, single-threaded."""

    KERNEL = "numpy"

    def __init__(self, pkg, seed: int, outdir: str) -> None:
        import references

        self.pkg = pkg
        self.seed = seed
        self.outdir = outdir
        self.cells = []
        for ens, stratum in MC_CELLS:
            zeta, q_ref = references.mc_reference(ens, stratum)
            self.cells.append((ens, stratum, zeta, q_ref, mc_draws(q_ref)))
        self.results: list[dict] = []

    def _cells(self, phase: str, ensemble: str) -> None:
        pkg = self.pkg
        strata = {"qubit": pkg.QUBIT_STRATUM, "regular": pkg.REGULAR_QUTRIT,
                  "degenerate": pkg.DEGENERATE_QUTRIT}
        for index, (ens, stratum, zeta, q_ref, n) in enumerate(self.cells):
            if ens != ensemble:
                continue
            seed = derived_seed("mc_cells", self.seed, phase, index)
            request = pkg.IndicatorRequest(
                ensemble=pkg.EnsembleKind(ens), stratum=strata[stratum],
                method=pkg.Method.MONTE_CARLO, zeta=zeta, samples=n, seed=seed, workers=1)
            result = pkg.compute_indicator(request)
            self.results.append({"phase": phase, "cell": f"{ens}.{stratum}", "zeta": zeta,
                                 "draws": n, "seed": seed, "q": result.q, "q_ref": q_ref})

    def steps(self, phase: str) -> list:
        """One step per ensemble: its qubit, regular and degenerate cells."""
        return [functools.partial(self._cells, phase, ens) for ens in ("hs", "bures", "bkm")]

    def outputs(self) -> list[str]:
        path = os.path.join(self.outdir, "cells.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.results, fh, indent=1)
        return [path]

    def check(self) -> dict:
        import checks

        problems = []
        for cell in self.results:
            hits = round(cell["q"] * cell["draws"])
            if abs(hits - cell["q"] * cell["draws"]) > 1e-6:
                problems.append(f"mc {cell['cell']}: q * draws = {cell['q'] * cell['draws']!r} "
                                f"is not a hit count")
            problems += checks.check_mc_cell(f"{cell['phase']} {cell['cell']}", hits,
                                             cell["draws"], cell["q_ref"])
        return {"attempted": len(self.results), "failed": 0, "failures": [],
                "problems": problems}


class Verify:
    """The ``verify`` subcommand with two workers, writing its JSON report."""

    KERNEL = "mixed"

    def __init__(self, pkg, seed: int, outdir: str) -> None:
        self.cli = pkg.cli
        self.outdir = outdir
        self.exit_codes: dict[str, int] = {}

    def _verify(self, phase: str) -> None:
        path = os.path.join(self.outdir, f"{phase}_verify.json")
        self.exit_codes[phase] = self.cli.main(
            ["verify", "--workers", "2", "--seed", str(VERIFY_SEEDS[phase]), "--out", path])

    def steps(self, phase: str) -> list:
        return [functools.partial(self._verify, phase)]

    def outputs(self) -> list[str]:
        return [os.path.join(self.outdir, f"{phase}_verify.json") for phase in self.exit_codes]

    def check(self) -> dict:
        import checks

        attempted, problems = 0, []
        for phase, code in self.exit_codes.items():
            n, found = checks.check_verify(code, _read(os.path.join(self.outdir,
                                                                     f"{phase}_verify.json")))
            attempted += n
            problems += [f"{phase}: {p}" for p in found]
        return {"attempted": attempted, "failed": 0, "failures": [], "problems": problems}


WORKLOADS = {"figures": Figures, "mc_cells": MonteCarloCells, "verify": Verify}


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark round")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    import calibrate

    pre_import_kernel_s = calibrate.measure("python")
    t0 = time.perf_counter()
    import wigner_classicality as pkg
    import wigner_classicality.cli
    setup_s = time.perf_counter() - t0
    setup_kernel_s = calibrate.measure("python")
    result: dict = {"setup_s": setup_s, "package_file": pkg.__file__,
                    "setup_kernel_s": [pre_import_kernel_s, setup_kernel_s]}
    if args.import_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    workload = WORKLOADS[args.workload](pkg, args.seed, args.outdir)
    kind = result["kernel"] = workload.KERNEL
    result["kernel_s"] = [setup_kernel_s if kind == "python" else calibrate.measure(kind)]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(pkg.__name__)
    sink = io.StringIO()
    for phase_idx, phase in enumerate(("cold", "warm")):
        if tracer is not None:
            tracer.current_phase = phase_idx
        walls, cpu = [], 0.0
        for step in workload.steps(phase):
            start, cpu_start = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                step()
            walls.append(time.perf_counter() - start)
            cpu += time.process_time() - cpu_start
            result["kernel_s"].append(calibrate.measure(kind))
            sink.seek(0)
            sink.truncate()
        result[f"{phase}_steps_s"] = walls
        result[f"{phase}_s"] = sum(walls)
        result[f"{phase}_cpu_s"] = cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cpu_s"] = result["cold_cpu_s"] + result["warm_cpu_s"]

    result.update(workload.check())
    result["digest"] = _digest(workload.outputs())
    if tracer is not None:
        from tracer import layer_metrics

        result["per_layer"] = layer_metrics(tracer)
        tracer.save(os.path.join(args.outdir, "trace.npz"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
