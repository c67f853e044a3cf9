"""Outside-in tracing of the program's layers.

The program is not modified: :class:`Tracer` wraps every public function
defined in each layer module and rebinds it at every place the package
holds a reference to it (the ``tvgsp`` namespace, ``from .x import y``
names and aliases such as ``cli.frame_analyze``), plus
``JointKernel.__call__``. Each call records a span (layer, function,
start, end, parent) in memory; :meth:`Tracer.uninstall` restores the
original bindings. Private helpers are not wrapped, so their time counts
toward the public function that called them.

:func:`layer_metrics` turns the spans of one pass into the per-layer
metrics. Counts that no timer can see are computed from call arguments
and file sizes and are labelled ``computed`` in :data:`COMPUTED`.
"""

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("graphs", "filtering", "kernels", "frames", "solvers", "fileio",
          "transforms", "dynamics", "reports", "cli")

SUBCOMMANDS = ("graph-gen", "dynamics", "transform", "filter", "analyze",
               "synthesize", "denoise", "compaction", "inpaint",
               "sparse-code", "localize")

#: Every per-layer metric with its unit; for all of them lower is better.
PER_LAYER = {
    "graphs.self_s": "s", "graphs.eig_calls": "count", "graphs.eig_s": "s",
    "graphs.build_calls": "count", "graphs.build_s": "s",
    "filtering.self_s": "s", "filtering.calls": "count",
    "filtering.fit_s": "s", "filtering.spmv": "count",
    "filtering.spmv_bytes": "bytes",
    "kernels.self_s": "s", "kernels.eval_s": "s", "kernels.evals": "count",
    "kernels.points": "count",
    "frames.self_s": "s", "frames.bank_grid_s": "s", "frames.analyze_s": "s",
    "frames.synthesize_s": "s",
    "solvers.self_s": "s", "solvers.inpaint_iters": "count",
    "solvers.sparse_code_iters": "count", "solvers.s_per_iter": "s/iter",
    "solvers.inpaint_objective": "1", "solvers.sparse_code_objective": "1",
    "solvers.denoise_objective": "1", "solvers.denoise_rel_err": "1",
    "fileio.self_s": "s", "fileio.read_s": "s", "fileio.write_s": "s",
    "fileio.bytes_read": "bytes", "fileio.bytes_written": "bytes",
    "transforms.self_s": "s", "transforms.calls": "count",
    "dynamics.self_s": "s", "reports.self_s": "s",
    **{f"cli.{sub.replace('-', '_')}_s": "s" for sub in SUBCOMMANDS},
    "cli.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}

#: Per-layer metrics derived from call arguments or files, not timers.
COMPUTED = ("filtering.spmv", "filtering.spmv_bytes", "kernels.points",
            "fileio.bytes_read", "fileio.bytes_written")


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "count")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = 0.0
        self.count = {}


def _spmv_count(signature, args, kwargs):
    """Sparse matvecs a Chebyshev application performs, from its arguments.

    Returns ``(count, bytes)``; bytes cover the CSR arrays plus reading and
    writing one complex128 operand of the signal's shape per product.
    """
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    g = a.get("g")
    if g is None or g.lmax == 0:  # exact filtering runs no recurrence
        return 0, 0
    if "order_graph" in a:
        count = int(a["order_graph"]) + 1
    else:
        count = int(a["order"])
    X = np.asarray(a["X"])
    L = g.L
    per = (L.data.nbytes + L.indices.nbytes + L.indptr.nbytes
           + 2 * X.shape[0] * X.shape[1] * 16)
    return count, count * per


def _path_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self._filters = {}

    # -- installation ------------------------------------------------------

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tvgsp.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(layer, name, obj)
                    if layer == "filtering" and name.startswith("filter_"):
                        self._filters[name] = inspect.signature(obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "tvgsp"
                                   or modname.startswith("tvgsp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebind(mod, attr, wrapped[value])
        kernels = importlib.import_module("tvgsp.kernels")
        call = kernels.JointKernel.__call__
        self._rebind(kernels.JointKernel, "__call__",
                     self._wrap("kernels", "JointKernel.__call__", call))

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self._count(span, args, kwargs)

        return traced

    def _count(self, span, args, kwargs):
        layer, name = span.layer, span.name
        if layer == "filtering" and name in self._filters:
            span.count["spmv"], span.count["spmv_bytes"] = _spmv_count(
                self._filters[name], args, kwargs)
        elif layer == "kernels" and name == "JointKernel.__call__":
            span.count["points"] = int(np.broadcast(
                np.asarray(args[1]), np.asarray(args[2])).size)
        elif layer == "fileio" and args:
            if name.startswith("load_"):
                span.count["bytes_read"] = _path_size(args[0])
            elif name.startswith("save_"):
                span.count["bytes_written"] = _path_size(args[0])

    def take(self):
        """Spans recorded since the last call, in call order."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def _ancestors(span):
    p = span.parent
    while p is not None:
        yield p
        p = p.parent


def layer_metrics(spans, reports):
    """Per-layer metrics of one traced pass.

    ``reports`` maps command names to the pass's run reports (solver
    iterations come from them). Self time is a span's duration minus the
    time its direct children cover.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            key = id(s.parent)
            child_time[key] = child_time.get(key, 0.0) + (s.end - s.start)
    m = dict.fromkeys(PER_LAYER, 0)
    solver_s = 0.0
    for s in spans:
        dur = s.end - s.start
        self_s = dur - child_time.get(id(s), 0.0)
        m[f"{s.layer}.self_s"] += self_s
        for key, value in s.count.items():
            # Count once per outermost call: load_signal wraps
            # load_signal_csv, dual kernels call the kernels they divide.
            if not any(p.layer == s.layer and key in p.count
                       for p in _ancestors(s)):
                m[f"{s.layer}.{key}"] += value
        name = s.name
        if s.layer == "graphs":
            if name == "eigendecompose":
                m["graphs.eig_calls"] += 1
                m["graphs.eig_s"] += dur
            elif name == "build_graph":
                m["graphs.build_calls"] += 1
                m["graphs.build_s"] += dur
        elif s.layer == "filtering":
            m["filtering.calls"] += 1
            if name.startswith("fit_"):
                m["filtering.fit_s"] += dur
        elif s.layer == "kernels" and name == "JointKernel.__call__":
            if not any(p.name == name for p in _ancestors(s)):
                m["kernels.evals"] += 1
                m["kernels.eval_s"] += dur
        elif s.layer == "frames" and name in ("bank_grid", "analyze",
                                              "synthesize"):
            m[f"frames.{name}_s"] += dur
        elif s.layer == "solvers" and name in ("inpaint", "sparse_code"):
            solver_s += dur
        elif s.layer == "fileio":
            if name.startswith(("load_", "build_")):
                m["fileio.read_s"] += self_s
            elif name.startswith("save_"):
                m["fileio.write_s"] += self_s
        elif s.layer == "transforms":
            m["transforms.calls"] += 1
        elif s.layer == "cli" and name.startswith("cmd_"):
            sub = name[len("cmd_"):]
            m[f"cli.{sub}_s"] = m.get(f"cli.{sub}_s", 0.0) + dur
    inpaint_iters = _iterations(reports, "inpaint")
    sparse_code_iters = _iterations(reports, "sparse-code")
    iters = inpaint_iters + sparse_code_iters
    m["solvers.inpaint_iters"] = inpaint_iters
    m["solvers.sparse_code_iters"] = sparse_code_iters
    m["solvers.s_per_iter"] = solver_s / iters if iters else 0.0
    m["trace.spans"] = len(spans)
    return m


def _iterations(reports, command):
    return int(reports.get(command, {}).get("metrics", {}).get(
        "iterations", 0))
