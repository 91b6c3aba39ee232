"""Benchmark of wigner-classicality, run from the root of a checkout.

    python3 perfbench/run.py --workload figures|mc_cells|verify|all \\
        --seed N --seconds S --trace 0|1

Workloads (see README.md):

* ``figures``: the paper's quadrature outputs through the CLI: ``curve``
  on both qutrit strata over 61 angles, ``qubit``, ``table1``;
* ``mc_cells``: nine single-threaded Monte Carlo cells, seeded from --seed;
* ``verify``: the ``verify`` subcommand with two workers.

Every round is a fresh process (``job.py``) that imports the package, runs
the workload's cold pass and then its warm pass, and checks the outputs.
Rounds repeat until --seconds have passed; each metric is the median over
the rounds.  Set-up time is also taken from ``SETUP_PROCESSES`` processes
that only import.  Times are scaled to the reference speed of a
calibration kernel run beside each span (``calibrate.py``); the wall times
are per-layer metrics.  With --trace 1 every round runs once untraced and
once traced, and the per-layer metrics come from the traced rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs, traces and
a record of each run go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S  # noqa: E402
from tracer import DEGENERACIES, ENSEMBLES, REJECTION, STRATA  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "wigner_classicality")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("figures", "mc_cells", "verify")
SETUP_PROCESSES = 3
ROUND_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in report order."""
    m: dict[str, tuple[str, str]] = {}
    for lib in ("numpy", "scipy", "package"):
        m[f"setup.{lib}_s"] = ("s", "lower")
    m["indicators.quad_cells"] = ("count", "lower")
    m["indicators.quad_s"] = ("s", "lower")
    m["indicators.quad_cell_ms.p50"] = ("ms", "lower")
    m["indicators.quad_cell_ms.p95"] = ("ms", "lower")
    for phase in ("cold", "warm"):
        for e in ENSEMBLES:
            for s in STRATA:
                m[f"indicators.quad_{phase}_ms.{e}.{s}"] = ("ms", "lower")
    for e in ENSEMBLES:
        m[f"indicators.minimize_s.{e}"] = ("s", "lower")
        m[f"indicators.minimize_cells.{e}"] = ("count", "lower")
    for e in ENSEMBLES:
        for s in STRATA:
            m[f"indicators.mc_cell_s.{e}.{s}"] = ("s", "lower")
            m[f"indicators.mc_hits.{e}.{s}"] = ("count", "higher")
    m["indicators.mc_parallel_eff"] = ("ratio", "higher")
    for e in ENSEMBLES:
        for d in DEGENERACIES:
            m[f"ensembles.draws_per_s.{e}.{d}"] = ("1/s", "higher")
            if f"{e}.{d}" in REJECTION:
                m[f"ensembles.acceptance.{e}.{d}"] = ("ratio", "higher")
            m[f"ensembles.sampler_init_ms.{e}.{d}"] = ("ms", "lower")
    for name in ("spectra.polar_to_spectrum_us", "wigner.sw_spectrum_qutrit_us",
                 "wigner.dual_pairing_us", "wigner.is_classical_us", "wigner.classical_cone_us"):
        m[name] = ("us", "lower")
    m["spectra.calls"] = ("count", "lower")
    m["wigner.calls"] = ("count", "lower")
    m["svgplot.render_ms"] = ("ms", "lower")
    m["cli.self_s"] = ("s", "lower")
    m["run.cpu_s"] = ("s", "lower")
    m["run.kernel_s"] = ("s", "lower")
    for span in ("setup", "cold", "warm"):
        m[f"run.{span}_wall_s"] = ("s", "lower")
    m["tracing.overhead_s"] = ("s", "lower")
    m["code.src_lines"] = ("count", "lower")
    m["code.public_symbols"] = ("count", "lower")
    m["code.runtime_deps"] = ("count", "lower")
    return m


class BenchmarkError(RuntimeError):
    """A round could not run; the benchmark prints no result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _job(args: list[str], result_path: str, python_flags: tuple[str, ...] = ()) -> tuple[dict, str]:
    """Run job.py to its end; return its result and its standard error."""
    cmd = [sys.executable, *python_flags, os.path.join(HERE, "job.py"), *args,
           "--result", result_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"round {args} exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchmarkError(f"round {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    result["scaled"] = _scaled_times(result)
    if os.path.dirname(os.path.abspath(result["package_file"])) != PACKAGE_DIR:
        raise BenchmarkError(f"imported {result['package_file']}, not the checkout's package")
    return result, proc.stderr


def _scaled_times(result: dict) -> dict[str, float]:
    """A round's spans scaled to the calibration kernel's reference speed.

    Set-up is scaled by the mean of the Python kernels run right before and
    right after the import.  A pass is the sum of its steps, each scaled by
    the mean of the workload's kernels run right before and right after it.
    """
    scaled = {"setup_s": (result["setup_s"] * REFERENCE_S["python"]
                          / statistics.fmean(result["setup_kernel_s"]))}
    if "kernel" not in result:
        return scaled
    kernel, reference = result["kernel_s"], REFERENCE_S[result["kernel"]]
    k = 0
    for phase in ("cold", "warm"):
        total = 0.0
        for wall in result[f"{phase}_steps_s"]:
            total += wall * reference / ((kernel[k] + kernel[k + 1]) / 2.0)
            k += 1
        scaled[f"{phase}_s"] = total
    return scaled


def _import_times(outdir: str) -> list[float]:
    path = os.path.join(outdir, "setup.json")
    return [_job(["--import-only"], path)[0]["scaled"]["setup_s"]
            for _ in range(SETUP_PROCESSES)]


def _import_layers(outdir: str) -> dict[str, float]:
    """Median import time of numpy, scipy and the rest, from ``-X importtime``.

    A module counts towards numpy or scipy when it belongs to that
    distribution and no module above it in the import tree belongs to
    either; the package's share is the total import time less those two.
    """
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "package": []}
    for _ in range(SETUP_PROCESSES):
        result, stderr = _job(["--import-only"], os.path.join(outdir, "setup.json"),
                              ("-X", "importtime"))
        entries = []
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            entries.append((depth, name.strip(), int(cumulative) * 1e-6))
        totals = {"numpy": 0.0, "scipy": 0.0}
        ancestors: list[str] = []
        for depth, name, cumulative in reversed(entries):  # parents print after children
            del ancestors[depth:]
            top = name.split(".")[0]
            if top in totals and not any(a.split(".")[0] in totals for a in ancestors):
                totals[top] += cumulative
            ancestors.append(name)
        samples["numpy"].append(totals["numpy"])
        samples["scipy"].append(totals["scipy"])
        samples["package"].append(result["setup_s"] - totals["numpy"] - totals["scipy"])
    return {f"setup.{k}_s": statistics.median(v) for k, v in samples.items()}


def _code_metrics() -> dict[str, float]:
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    with open(os.path.join(PACKAGE_DIR, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    public = 0
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            public = len(node.value.elts)
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {"code.src_lines": float(lines), "code.public_symbols": float(public),
            "code.runtime_deps": float(len(deps))}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload for ``seconds``; return its result object."""
    outdir = os.path.join(OUT, workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    setup = [] if trace else _import_times(outdir)
    rounds: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for is_traced in ((False, True) if trace else (False,)):
            index = len(rounds) + len(traced)
            jobdir = os.path.join(outdir, f"round{index}")
            os.makedirs(jobdir)
            args = ["--workload", workload, "--seed", str(seed), "--outdir", jobdir]
            result, _ = _job(args + (["--trace"] if is_traced else []),
                             os.path.join(outdir, "result.json"))
            (traced if is_traced else rounds).append(result)
            previous = os.path.join(outdir, f"round{index - 1}")
            shutil.rmtree(previous, ignore_errors=True)  # keep only the last round's outputs

    every = rounds + traced
    problems = [p for r in every for p in r["problems"]]
    digests = sorted({r["digest"] for r in every})
    if len(digests) > 1:
        problems.append(f"rounds of one run wrote different outputs: digests {digests}")
    median = lambda key, rs=rounds: statistics.median(r[key] for r in rs)
    scaled = lambda key, rs=rounds: statistics.median(r["scaled"][key] for r in rs)
    if trace:
        layers = _import_layers(outdir)
        for name in traced[0]["per_layer"]:
            layers[name] = statistics.median(r["per_layer"][name] for r in traced)
        layers["run.cpu_s"] = median("cpu_s")
        layers["run.kernel_s"] = statistics.median(k for r in rounds for k in r["kernel_s"])
        for span in ("setup", "cold", "warm"):
            layers[f"run.{span}_wall_s"] = median(f"{span}_s")
        passes = lambda r: r["scaled"]["cold_s"] + r["scaled"]["warm_s"]
        layers["tracing.overhead_s"] = (statistics.median(map(passes, traced))
                                        - statistics.median(map(passes, rounds)))
        layers.update(_code_metrics())
        units = per_layer_metrics()
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in units.items()}
    else:
        values = {"setup_s": statistics.median(setup + [r["scaled"]["setup_s"] for r in rounds]),
                  "cold_s": scaled("cold_s"), "warm_s": scaled("warm_s"),
                  "peak_rss_mb": median("peak_rss_mb")}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "digest": digests, "setup_s": setup, "rounds": rounds, "traced_rounds": traced,
              "failures": sorted({f for r in every for f in r["failures"]}),
              "problems": problems, "metrics": metrics}
    with open(os.path.join(outdir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
        "_record": record,
    }


def _report(workload: str, result: dict) -> None:
    record = result.pop("_record")
    print(f"== {workload}: {len(record['rounds'])} rounds, {len(record['traced_rounds'])} traced, "
          f"digest {','.join(record['digest'])}")
    print(f"   operations attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for failure in record["failures"]:
        print(f"   failed: {failure}")
    for problem in record["problems"][:20]:
        print(f"   INCORRECT: {problem}")
    for name, metric in result["metrics"].items():
        print(f"   {name} = {metric['value']:.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description="wigner-classicality benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "cli.py")):
        sys.stderr.write(f"perfbench: no package source at {PACKAGE_DIR}; "
                         "run from the root of a checkout\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _report(name, results[name])
            if len(names) > 1:
                print(json.dumps(results[name]))
    except BenchmarkError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
