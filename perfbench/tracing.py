"""In-memory spans around each layer's public entry points.

The program is not edited: ``Recorder.install`` replaces module
attributes of ``thermalwigner`` with wrappers that record a span per
call, and ``Recorder.uninstall`` puts the originals back.  Callers reach these entry
points through module attribute lookup (``analysis`` calls
``closed_form.wigner_closed_grid``, ``closed_form`` calls its imported
``hermite2``), so wrapping the attribute catches every call.  An entry
point that no longer exists is skipped and its layer reports zero calls.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (layer, module of thermalwigner, attribute) for every wrapped entry point.
ENTRY_POINTS = (
    ("cli.main", "cli", "main"),
    ("cli.write", "cli", "write_grid_csv"),
    ("cli.write", "cli", "write_grid_json"),
    ("cli.write", "cli", "write_report_json"),
    ("analysis.verify", "analysis", "verify_state"),
    ("analysis.scan", "analysis", "scan_theta"),
    ("analysis.sample_grid", "analysis", "sample_grid"),
    ("analysis.quadrature", "analysis", "normalization_integral"),
    ("analysis.quadrature", "analysis", "negativity_volume"),
    ("closed_form.point", "closed_form", "wigner_closed_form"),
    ("closed_form.grid", "closed_form", "wigner_closed_grid"),
    ("specfun.hermite2", "closed_form", "hermite2"),
    ("specfun.laguerre", "closed_form", "laguerre"),
    ("fock_oracle.build", "fock_oracle", "build_oracle_state"),
    ("fock_oracle.two_mode", "fock_oracle", "thermal_number_reduced"),
    ("fock_oracle.condition", "fock_oracle", "thermal_density_matrix"),
    ("fock_oracle.condition", "fock_oracle", "apply_subtraction"),
    ("fock_oracle.condition", "fock_oracle", "apply_addition"),
    ("fock_oracle.grid", "fock_oracle", "wigner_grid_from_density"),
)

# Grid radii |alpha|^2 count as equal when they agree to this many decimals.
RADIUS_DECIMALS = 9

# Oracle layers whose raised exceptions count as oracle failures; the
# inner oracle spans re-raise through these, so each failure counts once.
_ORACLE_ENTRY_LAYERS = ("fock_oracle.build", "fock_oracle.grid")

# Every per-layer metric with its unit, in report order.
METRICS = (
    ("fock_oracle.two_mode.calls", "count"),
    ("fock_oracle.two_mode.self_s", "s"),
    ("fock_oracle.grid.calls", "count"),
    ("fock_oracle.grid.self_s", "s"),
    ("fock_oracle.grid.bytes_computed", "B"),
    ("fock_oracle.build.calls", "count"),
    ("fock_oracle.build.self_s", "s"),
    ("fock_oracle.build.dim_max", "levels"),
    ("fock_oracle.build.dim_mean", "levels"),
    ("fock_oracle.condition.self_s", "s"),
    ("fock_oracle.failures", "count"),
    ("specfun.hermite2.calls", "count"),
    ("specfun.hermite2.self_s", "s"),
    ("specfun.hermite2.points", "count"),
    ("specfun.laguerre.calls", "count"),
    ("specfun.laguerre.self_s", "s"),
    ("closed_form.grid.calls", "count"),
    ("closed_form.grid.self_s", "s"),
    ("closed_form.grid.points", "count"),
    ("closed_form.grid.unique_radius_ratio", "ratio"),
    ("closed_form.point.calls", "count"),
    ("closed_form.point.self_s", "s"),
    ("analysis.sample_grid.calls", "count"),
    ("analysis.sample_grid.useful_ratio", "ratio"),
    ("analysis.quadrature.calls", "count"),
    ("analysis.quadrature.self_s", "s"),
    ("analysis.verify.self_s", "s"),
    ("analysis.scan.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.write.calls", "count"),
    ("cli.write.self_s", "s"),
    ("cli.write.bytes", "B"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "error")

    def __init__(self, name, start, end, parent=None, op=None, attrs=None, error=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs
        self.error = error

    def to_dict(self, index: int, self_s: float) -> dict:
        out = {"id": index, "name": self.name, "start": self.start, "end": self.end,
               "self_s": self_s, "parent": self.parent, "op": self.op}
        if self.error is not None:
            out["error"] = self.error
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _grid_request(args, kwargs, result):
    state, box = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "box")
    nq, np_ = _arg(args, kwargs, 2, "nq"), _arg(args, kwargs, 3, "np_")
    source = _arg(args, kwargs, 4, "source")
    return {"key": (repr(state), repr(box), int(nq), int(np_), str(source))}


def _closed_grid(args, kwargs, result):
    q = np.array(_arg(args, kwargs, 1, "q"), dtype=float)
    p = np.array(_arg(args, kwargs, 2, "p"), dtype=float)
    return {"points": int(np.size(result)), "axes": (q, p)}


def _points(args, kwargs, result):
    return {"points": int(np.size(result))}


def _oracle_build(args, kwargs, result):
    return {"dim": int(result.dim)}


def _oracle_grid(args, kwargs, result):
    dim = _arg(args, kwargs, 0, "rho").dim
    nq = np.size(_arg(args, kwargs, 1, "q"))
    np_ = np.size(_arg(args, kwargs, 2, "p"))
    # rho rows (nq, dim^2) plus parity and guard columns (np, dim^2), complex128.
    return {"bytes": 16 * dim * dim * (nq + 2 * np_)}


_MEASURE = {
    "analysis.sample_grid": _grid_request,
    "closed_form.grid": _closed_grid,
    "specfun.hermite2": _points,
    "fock_oracle.build": _oracle_build,
    "fock_oracle.grid": _oracle_grid,
}


class Recorder:
    """Collects spans while ``op`` is set; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        measure = _MEASURE.get(layer)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span.attrs = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "thermalwigner") -> list[str]:
        """Wrap every entry point that exists; returns the ones missing."""
        missing = []
        for layer, module_name, attr in ENTRY_POINTS:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(layer, fn))
        return missing

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, path):
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for index, (span, self_s) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps(span.to_dict(index, self_s)) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def _unique_radius_ratio(spans) -> float:
    distinct = points = 0
    seen: dict[bytes, int] = {}
    for span in spans:
        q, p = span.attrs["axes"]
        key = q.tobytes() + b"|" + p.tobytes()
        if key not in seen:
            # Rounded, so that radii equal but for the last bits of a
            # linspace axis (q_i vs -q_{N-1-i}) count once.
            abs2 = 0.5 * (q[:, None] ** 2 + p[None, :] ** 2)
            seen[key] = int(np.unique(np.round(abs2, RADIUS_DECIMALS)).size)
        distinct += seen[key]
        points += span.attrs["points"]
    return distinct / points if points else 0.0


def layer_metrics(spans, output_bytes: int) -> dict[str, float]:
    """Aggregate per-layer metrics from a traced pass.

    ``output_bytes`` is the total size of the files the ops wrote, which
    the runner measures on disk.
    """
    selfs = self_times(spans)
    by_layer = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        by_layer[span.name].append((span, self_s))

    def calls(layer):
        return len(by_layer[layer])

    def self_s(layer):
        return sum(s for _, s in by_layer[layer])

    def attr_sum(layer, key):
        return sum(span.attrs[key] for span, _ in by_layer[layer] if span.attrs)

    dims = [span.attrs["dim"] for span, _ in by_layer["fock_oracle.build"] if span.attrs]
    grid_requests = defaultdict(set)
    for span, _ in by_layer["analysis.sample_grid"]:
        if span.attrs:
            grid_requests[span.op].add(span.attrs["key"])
    distinct_requests = sum(len(keys) for keys in grid_requests.values())
    closed_grids = [span for span, _ in by_layer["closed_form.grid"] if span.attrs]

    values = {
        "fock_oracle.failures": sum(
            1 for layer in _ORACLE_ENTRY_LAYERS for span, _ in by_layer[layer] if span.error
        ),
        "fock_oracle.grid.bytes_computed": attr_sum("fock_oracle.grid", "bytes"),
        "fock_oracle.build.dim_max": max(dims, default=0),
        "fock_oracle.build.dim_mean": sum(dims) / len(dims) if dims else 0.0,
        "specfun.hermite2.points": attr_sum("specfun.hermite2", "points"),
        "closed_form.grid.points": attr_sum("closed_form.grid", "points"),
        "closed_form.grid.unique_radius_ratio": _unique_radius_ratio(closed_grids),
        "analysis.sample_grid.useful_ratio": (
            distinct_requests / calls("analysis.sample_grid")
            if calls("analysis.sample_grid") else 0.0
        ),
        "cli.write.bytes": output_bytes,
    }
    for name, _unit in METRICS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls(layer)
        elif field == "self_s":
            values[name] = self_s(layer)
    return {name: values[name] for name, _unit in METRICS}
