"""Span tracing of calls into the tppdepth modules, installed from outside.

Each traced function is replaced by a wrapper at every place a caller
looks it up: module attributes that hold it (``tppdepth.analysis.rank``
and ``tppdepth.cli.rank`` alike), the CLI's subcommand table, and the
``__init__`` of the two container classes. The program's source is not
touched; ``uninstall`` puts every original back.

Spans live in memory as parallel arrays (name, parent, start, end,
amount) and are written out once, when the run ends. ``amount`` is the
work unit a span carries: rows, bytes or grid nodes. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

# The package re-exports the function ``simulate`` under the name of its
# module, so modules are looked up by their full name.
M = {name: importlib.import_module(f"tppdepth.{name}") for name in
     ("analysis", "cli", "depth", "estimation", "io", "sequences", "simulate")}
MODULES = (importlib.import_module("tppdepth"), *M.values())

DEPTH_FUNCTIONS = {
    "product": "product_depth",
    "conditional": "conditional_depth",
    "marginal": "marginal_factor",
    "hpp_conditional": "hpp_conditional_depth",
    "mahalanobis": "mahalanobis_depth",
}
METHOD_KEYS = {m: m.replace("-", "_") for m in M["analysis"].METHODS}
WRITERS = (
    "save_sample_csv",
    "save_params_json",
    "save_breakdowns",
    "save_values",
    "save_rank_table",
    "save_contour",
    "save_report",
)
CLI_COMMANDS = ("simulate", "fit", "depth", "rank")


def _method(args, kwargs) -> str:
    return args[2] if len(args) > 2 else kwargs["method"]


def _path_bytes(fn):
    signature = inspect.signature(fn)

    def amount(args, kwargs, result):
        return os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])

    return amount


class Tracer:
    """Collects one span per call into the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self.boundary_zero_rows = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, amount=None):
        """Return ``fn`` wrapped in a span; ``name`` is a string or f(args, kwargs)."""
        fixed = self._name_id(name) if isinstance(name, str) else None
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(fixed if fixed is not None else self._name_id(name(args, kwargs)))
            self.parent.append(stack[-1] if stack else -1)
            self.amount.append(0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if amount is not None:
                self.amount[i] = amount(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, setter, owner, key, original, wrapper):
        self._undo.append((setter, owner, key, original))
        setter(owner, key, wrapper)

    def _replace_everywhere(self, original, wrapper):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(setattr, module, attr, original, wrapper)

    def _trace(self, module, attr, name, amount=None):
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(name, original, amount))

    def install(self):
        """Wrap every traced function where its callers look it up."""
        self._trace(M["simulate"], "simulate", "simulate.simulate", lambda a, k, r: r.n)
        for cls, name in ((M["sequences"].EventSequence, "sequences.event_sequence"),
                          (M["sequences"].SampleSet, "sequences.sample_set")):
            self._set(setattr, cls, "__init__", cls.__init__, self.wrap(name, cls.__init__))
        self._trace(M["io"], "load_csv", "io.load_csv", _path_bytes(M["io"].load_csv))
        self._trace(M["io"], "load_params_json", "io.load_params_json")
        for writer in WRITERS:
            self._trace(M["io"], writer, f"io.{writer}", _path_bytes(getattr(M["io"], writer)))
        for fit in ("fit_params", "fit_mahalanobis"):
            self._trace(M["estimation"], fit, f"estimation.{fit}")
        for key, fname in DEPTH_FUNCTIONS.items():
            self._trace(M["depth"], fname, f"depth.{key}")
        self._trace(M["analysis"], "depth_values",
                    lambda args, kwargs: f"analysis.depth_values.{METHOD_KEYS[_method(args, kwargs)]}",
                    self._rows_and_zeros)
        self._trace(M["analysis"], "rank", "analysis.rank")
        self._trace(M["analysis"], "contour_grid", "analysis.contour", lambda a, k, r: r.values.size)
        self._trace(M["analysis"], "verify_properties", "analysis.verify")
        self._trace(M["analysis"], "near_boundary_comparison", "analysis.near_boundary")
        table = M["cli"]._COMMANDS
        for command in CLI_COMMANDS:
            original = table[command]
            wrapper = self.wrap(f"cli.{command}", original)
            self._set(dict.__setitem__, table, command, original, wrapper)
            self._replace_everywhere(original, wrapper)

    def _rows_and_zeros(self, args, kwargs, result):
        if _method(args, kwargs) == "product":
            self.boundary_zero_rows += int(np.count_nonzero(result == 0.0))
        return len(result)

    def uninstall(self):
        """Put every original function back."""
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def arrays(self, clock=None) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with each span's self time; ``clock``, if
        given, maps the wall times of start and end first."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        if clock is not None:
            start, end = clock(start), clock(end)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "amount": np.frombuffer(self.amount, dtype=np.int64),
            "self": duration - children,
        }

    def save(self, path) -> None:
        """Write every span and the name table as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def calls(self, prefix: str) -> int:
        """Number of spans whose name starts with ``prefix``."""
        ids = [i for i, name in enumerate(self.names) if name.startswith(prefix)]
        return int(np.isin(np.frombuffer(self.name, dtype=np.int32), ids).sum())

    def layer_metrics(self, jobs: int, clock=None) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; totals are per traced job.
        Times are read on ``clock`` (see ``arrays``)."""
        spans = self.arrays(clock)
        duration = spans["end"] - spans["start"]

        def group(*names):
            ids = [self._ids[n] for n in names if n in self._ids]
            mask = np.isin(spans["name"], ids)
            return (int(mask.sum()), float(duration[mask].sum()),
                    float(spans["self"][mask].sum()), int(spans["amount"][mask].sum()))

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}

        def busy(metric, *names, self_time=False, calls=False):
            count, total, own, _ = group(*names)
            out[f"{metric}.busy_s"] = (total / jobs, "s/job")
            if self_time:
                out[f"{metric}.self_s"] = (own / jobs, "s/job")
            if calls:
                out[f"{metric}.calls"] = (count / jobs, "calls/job")

        count, total, _, rows = group("simulate.simulate")
        out["simulate.busy_s"] = (total / jobs, "s/job")
        out["simulate.rows"] = (rows / jobs, "rows/job")
        busy("sequences.event_sequence", "sequences.event_sequence", calls=True)
        busy("sequences.sample_set", "sequences.sample_set")
        for metric, names in (("io.load_csv", ("io.load_csv",)),
                              ("io.write", tuple(f"io.{w}" for w in WRITERS))):
            _, total, _, size = group(*names)
            out[f"{metric}.busy_s"] = (total / jobs, "s/job")
            out[f"{metric}.mb_per_s"] = (ratio(size / 1e6, total), "MB/s")
        busy("io.params_json", "io.load_params_json", "io.save_params_json")
        busy("estimation.fit", "estimation.fit_params", "estimation.fit_mahalanobis", calls=True)
        for key in DEPTH_FUNCTIONS:
            count, total, _, _ = group(f"depth.{key}")
            out[f"depth.{key}.calls"] = (count / jobs, "calls/job")
            out[f"depth.{key}.us_per_call"] = (ratio(total * 1e6, count), "us")
        for key in METHOD_KEYS.values():
            _, total, _, rows = group(f"analysis.depth_values.{key}")
            out[f"analysis.depth_values.{key}.us_per_row"] = (ratio(total * 1e6, rows), "us")
        out["analysis.rank.self_s"] = (group("analysis.rank")[2] / jobs, "s/job")
        _, total, _, nodes = group("analysis.contour")
        out["analysis.contour.nodes_per_s"] = (ratio(nodes, total), "nodes/s")
        busy("analysis.verify", "analysis.verify", self_time=True)
        out["analysis.near_boundary.self_s"] = (group("analysis.near_boundary")[2] / jobs, "s/job")
        out["analysis.boundary_zero_rows"] = (self.boundary_zero_rows / jobs, "rows/job")
        for command in CLI_COMMANDS:
            busy(f"cli.{command}", f"cli.{command}", self_time=True)
        return out
