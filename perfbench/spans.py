"""Spans recorded from outside the program, and the per-layer arithmetic on them.

The tracer replaces every public function of the traced susyhier modules by
a wrapper, in every module namespace (and module-level dict) that refers to
it, so calls the program makes through `susyhier.verifier.eigen_spectrum`,
`susyhier.cli.verify`, `cli._COMMANDS[...]` and so on all open a span.
Nothing under src/ changes.  Spans stay in memory as

    [name, start, end, parent index (-1 for a root), attrs or None]

and are written out when the run ends.  The program is single-threaded here
(scan runs with workers = 1), so one stack gives every span its parent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "spectra", "hierarchy", "potentials", "verifier", "cli")

# bytes of one dense N x N complex128 array is 16 N^2; the dense path holds
# three of them (the Hamiltonian, LAPACK's working copy, the eigenvectors)
DENSE_ARRAYS = 3

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def _eigen_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        ham, k = bound["ham"], bound["k"]
        dim = int(ham.dimension)
        dense = not ham.is_real
        return {"dim": dim, "dense": dense, "computed": dim if dense else min(int(k), dim),
                "returned": int(len(result.eigenvalues))}
    return attrs


def _bound_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        spectrum = sig.bind(*args, **kwargs).arguments["spectrum"]
        return {"in": int(len(spectrum.eigenvalues)), "kept": int(len(result.eigenvalues))}
    return attrs


ATTRS = {"verifier.eigen_spectrum": _eigen_attrs, "verifier.bound_states": _bound_attrs}


class Tracer:
    """Wraps the public functions of LAYERS; `spans` is the list being filled."""

    def __init__(self, package: str = "susyhier"):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        attrs = ATTRS[name](fn) if name in ATTRS else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self) -> int:
        """Patch every reference to a traced function; returns how many were patched."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((vars(mod), attr, value))
                    setattr(mod, attr, wrappers[value])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[item]
        return len(self._undo)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()


# ---------------------------------------------------------------------------
# arithmetic on spans
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, ()))
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def reportable_percentiles(n: int) -> list[float]:
    """Percentiles with at least ten of n samples beyond them."""
    return [p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def timing_summary(values) -> dict:
    """Median and every reportable percentile, with the sample count."""
    out = {"samples": len(values)}
    for p in reportable_percentiles(len(values)):
        out[f"p{p:g}_s"] = percentile(values, p)
    return out


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) over log(size)."""
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def round_counts(spans: list, bytes_out: int) -> dict:
    """Exact counts of one round; they must repeat from round to round."""
    dense = [s[4] for s in spans if s[0] == "verifier.eigen_spectrum" and s[4]["dense"]]
    tridiag = [s for s in spans if s[0] == "verifier.eigen_spectrum" and not s[4]["dense"]]
    return {
        "trace.spans": len(spans),
        "verifier.eig_dense_calls": len(dense),
        "verifier.eig_tridiag_calls": len(tridiag),
        "verifier.eig_dim_sum": sum(a["dim"] for a in dense),
        "verifier.dense_bytes_computed": sum(DENSE_ARRAYS * 16 * a["dim"] ** 2 for a in dense),
        "cli.bytes_out": bytes_out,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_layers(spans: list) -> dict:
    """Per-layer self times and ratios of one round.

    Besides the per-function breakdown, `verifier.eig_s` (both solver paths)
    and `verifier.self_s` (the verifier's own work around its solves) are
    nonzero in every workload, so they can be compared across all of them.
    """
    selfs = self_times(spans)
    by_name = defaultdict(float)
    for span, t in zip(spans, selfs):
        key = span[0]
        if key == "verifier.eigen_spectrum":
            key += ".dense" if span[4]["dense"] else ".tridiag"
        by_name[key] += t

    def layer(prefix, exclude=()):
        return sum((t for k, t in by_name.items()
                    if k.startswith(prefix + ".") and k not in exclude), 0.0)

    eig = [s[4] for s in spans if s[0] == "verifier.eigen_spectrum"]
    bound = [s[4] for s in spans if s[0] == "verifier.bound_states"]
    solves = ("verifier.eigen_spectrum.dense", "verifier.eigen_spectrum.tridiag")
    return {
        "verifier.eig_s": sum(by_name[k] for k in solves),
        "verifier.eig_dense_s": by_name[solves[0]],
        "verifier.eig_tridiag_s": by_name[solves[1]],
        "verifier.eig_pairs_kept_ratio": _ratio(sum(a["returned"] for a in eig),
                                                sum(a["computed"] for a in eig)),
        "verifier.build_s": by_name["verifier.build_hamiltonian"],
        "verifier.self_s": layer("verifier", exclude=solves + ("verifier.build_hamiltonian",)),
        "verifier.bound_s": by_name["verifier.bound_states"],
        "verifier.bound_kept_ratio": _ratio(sum(a["kept"] for a in bound),
                                            sum(a["in"] for a in bound)),
        "verifier.converged_s": by_name["verifier.converged_spectrum"],
        "verifier.verify_self_s": by_name["verifier.verify"],
        "verifier.scan_self_s": by_name["verifier.reality_scan"],
        "potentials.eval_s": layer("potentials"),
        "config.load_s": layer("config"),
        "spectra.records_s": layer("spectra", exclude=("spectra.groundstate_wavefunction",)),
        "spectra.wavefunction_s": by_name["spectra.groundstate_wavefunction"],
        "hierarchy.hierarchy_s": layer("hierarchy", exclude=("hierarchy.riccati_residual",)),
        "hierarchy.residual_s": by_name["hierarchy.riccati_residual"],
        "cli.self_s": layer("cli"),
    }


def point_times(spans: list) -> list[float]:
    """Durations of the eigen_spectrum calls made directly by reality_scan's points."""
    scan = {i for i, s in enumerate(spans) if s[0] == "verifier.reality_scan"}
    return [s[2] - s[1] for s in spans
            if s[0] == "verifier.eigen_spectrum" and s[3] in scan]
