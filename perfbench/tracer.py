"""Spans around calls into the package's public functions.

The tracer wraps public functions from outside the package: every module
attribute bound to a target function is replaced by a wrapper that records
a span (name, start, end, parent span, thread, pass).  Spans are kept in
flat arrays in memory; ``layer_metrics`` turns them into the per-layer
metrics once the traced round ends, and ``save`` writes them out.

A span's parent is the innermost open span of its own thread.  Spans opened
in a pool thread with nothing open there take the innermost open span of
the main thread, which is the Monte Carlo cell that started the pool.
Self time subtracts only children of the same thread.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

PHASES = ("cold", "warm")

#: (layer, public function) pairs wrapped by ``install``.
TARGETS = {
    "spectra": ("polar_to_spectrum", "spectrum_to_polar", "trisectrix_boundary"),
    "wigner": ("sw_spectrum_qubit", "sw_spectrum_qutrit", "dual_pairing", "is_classical",
               "classical_cone_regular_qutrit", "classical_edge_bound_qutrit"),
    "indicators": ("compute_indicator", "q_quadrature", "q_monte_carlo", "minimize_q_over_zeta"),
    "svgplot": ("render_line_plot",),
    "cli": ("main",),
}

ENSEMBLES = ("hs", "bures", "bkm")
STRATA = ("qubit", "regular", "degenerate")
DEGENERACIES = ("qubit", "regular", "edge21", "edge12")
#: Sampler routes that reject proposals: every edge, the BKM qubit and the
#: BKM regular qutrit (HS and Bures simple spectra use matrix constructions).
REJECTION = tuple(f"{e}.{d}" for e in ENSEMBLES for d in DEGENERACIES
                  if d.startswith("edge") or e == "bkm")
_DEG_TAG = {(1, 1): "qubit", (1, 1, 1): "regular", (2, 1): "edge21", (1, 2): "edge12"}


def _stratum_tag(stratum) -> str:
    if stratum.n == 2:
        return "qubit"
    return "regular" if stratum.degeneracy.is_regular else "degenerate"


def _request_attrs(args, kwargs, result) -> dict:
    req = args[0] if args else kwargs["request"]
    attrs = {"ens": req.ensemble.value, "stratum": _stratum_tag(req.stratum),
             "workers": req.workers}
    if req.samples:
        attrs["hits"] = round(result.q * req.samples)
    return attrs


def _ensemble_attrs(args, kwargs, result) -> dict:
    ens = args[0] if args else kwargs["ensemble"]
    return {"ens": ens.value}


def _sampler_init_attrs(args, kwargs, result) -> dict:
    sampler = args[0]
    return {"key": f"{sampler.kind.value}.{_DEG_TAG[sampler.deg.multiplicities]}"}


def _sampler_sample_attrs(args, kwargs, result) -> dict:
    sampler = args[0]
    return {"key": f"{sampler.kind.value}.{_DEG_TAG[sampler.deg.multiplicities]}",
            "n": len(result), "acceptance": sampler.acceptance_rate}


_ATTRS = {
    "indicators.q_quadrature": _request_attrs,
    "indicators.q_monte_carlo": _request_attrs,
    "indicators.minimize_q_over_zeta": _ensemble_attrs,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.parent = array("i")
        self.thread = array("i")
        self.phase = array("b")
        self.attrs: dict[int, dict] = {}
        self.current_phase = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._thread_ids: dict[int, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
            with self._lock:
                self._local.tid = self._thread_ids.setdefault(threading.get_ident(),
                                                              len(self._thread_ids))
        return stack

    def wrap(self, name: str, fn, attrs=None, cpu: bool = False):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        thread_clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            with self._lock:
                idx = len(self.start)
                self.name.append(nid)
                self.start.append(0.0)
                self.end.append(0.0)
                self.cpu.append(0.0)
                self.parent.append(parent)
                self.thread.append(self._local.tid)
                self.phase.append(self.current_phase)
            stack.append(idx)
            c0 = thread_clock() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                self.start[idx] = t0
                if cpu:
                    self.cpu[idx] = thread_clock() - c0
                stack.pop()
            if attrs is not None:
                self.attrs[idx] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "wigner_classicality") -> None:
        """Wrap every target in every package module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, functions in TARGETS.items():
            home = sys.modules[f"{package}.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapped = self.wrap(name, original, attrs=_ATTRS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        sampler = sys.modules[f"{package}.ensembles"].SpectrumSampler
        sampler.__init__ = self.wrap("ensembles.SpectrumSampler.__init__", sampler.__init__,
                                     attrs=_sampler_init_attrs, cpu=True)
        sampler.sample = self.wrap("ensembles.SpectrumSampler.sample", sampler.sample,
                                   attrs=_sampler_sample_attrs, cpu=True)

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name_id": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "cpu": np.frombuffer(self.cpu, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "thread": np.frombuffer(self.thread, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
        }

    def save(self, path: str) -> None:
        """Write the spans as a numpy archive (names as unicode strings)."""
        import numpy as np

        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def _percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (cold and warm pass together).

    Layers a workload does not reach read 0.
    """
    import numpy as np

    s = tracer.arrays()
    n = len(s["start"])
    dur = s["end"] - s["start"]
    parent = s["parent"]
    has_parent = parent >= 0
    same_thread = np.zeros(n, dtype=bool)
    same_thread[has_parent] = s["thread"][has_parent] == s["thread"][parent[has_parent]]
    child = np.bincount(parent[same_thread], weights=dur[same_thread], minlength=n)[:n]
    self_time = dur - child
    ids = s["name_id"]
    attrs = tracer.attrs
    out: dict[str, float] = {}

    def where(name: str) -> np.ndarray:
        if name not in tracer.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(ids == tracer.names.index(name))

    def mean(values) -> float:
        return float(np.mean(values)) if len(values) else 0.0

    quad = where("indicators.q_quadrature")
    out["indicators.quad_cells"] = float(len(quad))
    out["indicators.quad_s"] = float(dur[quad].sum())
    out["indicators.quad_cell_ms.p50"] = _percentile_ms(dur[quad], 50)
    out["indicators.quad_cell_ms.p95"] = _percentile_ms(dur[quad], 95)
    for phase_idx, phase in enumerate(PHASES):
        for e in ENSEMBLES:
            for st in STRATA:
                cells = [i for i in quad if s["phase"][i] == phase_idx
                         and attrs[i]["ens"] == e and attrs[i]["stratum"] == st]
                out[f"indicators.quad_{phase}_ms.{e}.{st}"] = mean(dur[cells]) * 1e3

    minimize = where("indicators.minimize_q_over_zeta")
    computes = where("indicators.compute_indicator")
    owner = {}
    minimize_set = set(minimize.tolist())
    for i in computes:
        p = parent[i]
        while p >= 0 and p not in minimize_set:
            p = parent[p]
        if p >= 0:
            owner[attrs[p]["ens"]] = owner.get(attrs[p]["ens"], 0) + 1
    for e in ENSEMBLES:
        mine = [i for i in minimize if attrs[i]["ens"] == e]
        out[f"indicators.minimize_s.{e}"] = float(dur[mine].sum())
        out[f"indicators.minimize_cells.{e}"] = float(owner.get(e, 0))

    mc = where("indicators.q_monte_carlo")
    for e in ENSEMBLES:
        for st in STRATA:
            cells = [i for i in mc if attrs[i]["ens"] == e and attrs[i]["stratum"] == st]
            out[f"indicators.mc_cell_s.{e}.{st}"] = mean(dur[cells])
            out[f"indicators.mc_hits.{e}.{st}"] = mean([attrs[i]["hits"] for i in cells])

    init = where("ensembles.SpectrumSampler.__init__")
    sample = where("ensembles.SpectrumSampler.sample")
    parallel = [i for i in mc if attrs[i]["workers"] > 1]
    parallel_set = set(parallel)
    busy = 0.0
    for i in np.concatenate([init, sample]):
        p = parent[i]
        if p in parallel_set and s["thread"][i] != s["thread"][p]:
            busy += s["cpu"][i]
    capacity = sum(attrs[i]["workers"] * dur[i] for i in parallel)
    out["indicators.mc_parallel_eff"] = busy / capacity if capacity else 0.0

    for e in ENSEMBLES:
        for d in DEGENERACIES:
            key = f"{e}.{d}"
            calls = [i for i in sample if attrs[i]["key"] == key]
            draws = sum(attrs[i]["n"] for i in calls)
            seconds = float(dur[calls].sum())
            out[f"ensembles.draws_per_s.{key}"] = draws / seconds if seconds else 0.0
            if key in REJECTION:
                proposals = sum(attrs[i]["n"] / attrs[i]["acceptance"] for i in calls)
                out[f"ensembles.acceptance.{key}"] = draws / proposals if proposals else 0.0
            inits = [i for i in init if attrs[i]["key"] == key]
            out[f"ensembles.sampler_init_ms.{key}"] = mean(dur[inits]) * 1e3

    for metric, name in (
        ("spectra.polar_to_spectrum_us", "spectra.polar_to_spectrum"),
        ("wigner.sw_spectrum_qutrit_us", "wigner.sw_spectrum_qutrit"),
        ("wigner.dual_pairing_us", "wigner.dual_pairing"),
        ("wigner.is_classical_us", "wigner.is_classical"),
        ("wigner.classical_cone_us", "wigner.classical_cone_regular_qutrit"),
    ):
        out[metric] = mean(self_time[where(name)]) * 1e6
    calls = np.bincount(ids, minlength=len(tracer.names))
    for lay in ("spectra", "wigner"):
        out[f"{lay}.calls"] = float(sum(c for c, name in zip(calls, tracer.names)
                                        if name.startswith(lay + ".")))
    out["svgplot.render_ms"] = mean(dur[where("svgplot.render_line_plot")]) * 1e3
    out["cli.self_s"] = float(self_time[where("cli.main")].sum())
    return out
