"""Command-line interface.

Subcommands cover graph generation, transforms, PDE dynamics, filtering
and its benchmark, frame construction/analysis/synthesis, the regression
solvers, source localization, and the energy-compaction experiment. Every
run emits a JSON report (stdout or ``--report``) that also records the
environment it ran in; numerical outputs are CSV or the binary formats of
:mod:`tvgsp.fileio`. All randomness is seeded via ``--seed`` (default 0).

Exit codes: 0 success, 2 validation error, 3 numerical failure or memory
exhausted. Errors print a single ``code: message`` line: a bad flag is
``invalid_input``, a file that cannot be read or written, the report
included, is ``io_error`` with exit 2, and an allocation that fails is
``out_of_memory: <stage>: ...`` with exit 3, naming the stage that ran
(the command outside any stage).

Each run has one private ``_Job``: ``cmd_<name>(args)`` runs its stages on
``args.job`` and returns its params and metrics, and ``run`` builds the
report. The job times the files read in a ``load`` stage, the
eigendecomposition in its own stage and the files written (not the
report) in a ``write`` stage. A graph file whose bytes the previous load
of the process read too is not parsed again, and its graph's eigensystem
and operators, once built, are not built again (see ``_Job``).

Outputs, the report included, are written to temporary siblings and
renamed into place only when the whole run has succeeded: a run that exits
non-zero leaves no output file behind, and a file that was already at an
output path keeps its bytes. Python warnings a run raises go to the
report's ``warnings`` list, not to stderr.
"""

import argparse
import contextlib
import errno
import functools
import os
import sys
import time
import warnings

import numpy as np

from . import fileio, reports
from .errors import NumericalError, TvgspError, ValidationError
from .frames import analyze as frame_analyze
from .frames import DEFAULT_ORDER, canonical_dual, frame_bounds
from .frames import synthesize as frame_synthesize
from .graphs import _KINDS, _twin, build_graph, generate_graph
from .kernels import named_response
from .rng import _seed, default_rng
from .solvers import (InverseProblemSpec, Regularizer, SparseCodingSpec,
                      inpaint, denoise_tikhonov, localize_source,
                      signal_energy_centroid, sparse_code)
from .transforms import ijft, jft, real_if_close, variation_norm
from .dynamics import heat_evolve, wave_evolve
from .filtering import (filter_cheby2d, filter_exact, filter_ffc,
                        filter_separable)


def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValidationError(f"--param expects key=value, got '{item}'")
        key, value = item.split("=", 1)
        params[key.strip()] = value
    return params


def _number_list(text, flag, kind):
    """Comma-separated ``kind`` values; a bad one names ``flag``."""
    try:
        return [kind(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated {kind.__name__}"
                              f" values, got '{text}'") from None


#: ``((graph file bytes, --num-vertices), graph)`` of the last graph file
#: a ``_Job`` loaded, or None: the process's graph-load memo (see
#: :meth:`_Job.load`). The graph is never handed to a command.
_loaded = None


class _Job:
    """One command run: the wall time of each stage, the stage running, how
    the eigendecomposition stage obtained the eigensystem, the diagnostics
    that FFC and solver calls put in ``info``, and the files written, each
    first to a temporary sibling that keeps its extension
    (``fileio.save_signal`` dispatches on it).

    Loading goes through a one-entry, process-wide memo keyed by the bytes
    of the graph file and ``--num-vertices``: a chain of in-process runs on
    one graph file parses it and builds its graph once, and each run gets a
    new graph over the same read-only arrays that shares the memo graph's
    cache, so the chain decomposes the graph once."""

    def __init__(self, args):
        self.args = args
        self.timings_ms = {}
        self.running = None  # the stage running, left set when it raises
        self.eigensystem = None
        self.info = {}
        self.outputs = []
        self.pending = []  # (temporary path, output path)

    @contextlib.contextmanager
    def stage(self, name):
        """Adds the block's wall time to stage ``name``."""
        start = time.perf_counter()
        self.running = name
        yield
        self.running = None
        self.timings_ms[name] = (self.timings_ms.get(name, 0.0)
                                 + (time.perf_counter() - start) * 1e3)

    @contextlib.contextmanager
    def load(self):
        """The ``load`` stage: yields a new graph of ``--graph`` (with
        ``--coords`` where the command has it); the block reads the
        command's other inputs. The graph file is read once, as bytes,
        which are parsed and built only when they or ``--num-vertices``
        differ from the memo's; a file that fails to is not memoized."""
        global _loaded
        args = self.args
        with self.stage("load"):
            with open(args.graph, "rb") as fh:
                data = fh.read()
            key = (data, args.num_vertices)
            if _loaded is None or _loaded[0] != key:
                edges, n = fileio.load_edges_csv(args.graph, args.num_vertices,
                                                 data=data)
                _loaded = (key, build_graph(edges, n))
            coords = None
            if getattr(args, "coords", None):
                coords = fileio.load_coords_csv(args.coords)
            yield _twin(_loaded[1], coords)

    def eig(self, g):
        """The graph's eigensystem, timed as its own stage; the report
        notes whether it was computed or reused from the graph's cache,
        which an earlier run's graph of the same file may have filled."""
        held = "eigensystem" in g._cache
        with self.stage("eigendecomposition"):
            eig = g.eigensystem()
        self.eigensystem = "reused" if held else "computed"
        return eig

    def write(self, save, path, data):
        """``save`` writes ``data`` to a temporary sibling of ``path`` in
        the ``write`` stage (:meth:`commit` renames it into place);
        ``path`` becomes one of the report's outputs."""
        with self.stage("write"):
            save(self.temporary(path), data)
        self.outputs.append(path)

    def temporary(self, path):
        """A fresh temporary sibling of ``path`` to write instead."""
        root, ext = os.path.splitext(path)
        temp = f"{root}.tmp{os.getpid()}-{len(self.pending)}{ext}"
        self.pending.append((temp, path))
        return temp

    def commit(self):
        """Rename every temporary file into place, in the order written."""
        for _, path in self.pending:  # the one rename that fails in practice
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
        for temp, path in self.pending:
            os.replace(temp, path)
        self.pending.clear()

    def discard(self):
        """Remove the temporary files not yet renamed."""
        for temp, _ in self.pending:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        self.pending.clear()


# ---------------------------------------------------------------------------
# Subcommands: cmd_<name>(args) runs on args.job, returns (params, metrics)
# ---------------------------------------------------------------------------

def cmd_graph_gen(args):
    job = args.job
    names = {key for _, keys in _KINDS.values() for key in keys} - {"seed"}
    params = {key: value for key, value in vars(args).items()
              if key in names and value is not None}
    with job.stage("generate"):
        g = generate_graph(args.kind, params, rng_seed=args.seed)
        connected = g.is_connected()
    if args.coords_out and g.coords is None:
        raise ValidationError(
            f"generator '{args.kind}' provides no coordinates")
    job.write(fileio.save_edges_csv, args.out, g)
    if args.coords_out:
        job.write(fileio.save_coords_csv, args.coords_out, g.coords)
    return ({"kind": args.kind, "seed": args.seed, **params},
            {"num_vertices": g.N, "num_edges": g.num_edges,
             "lambda_max_bound": g.lmax, "connected": int(connected)})


def cmd_transform(args):
    job = args.job
    if args.inverse and not args.spectrum:
        raise ValidationError("--inverse needs --spectrum")
    if not args.inverse and not args.signal:
        raise ValidationError("forward transform needs --signal")
    with job.load() as g:
        if args.inverse:
            S = fileio.load_spectrum_csv(args.spectrum)
        else:
            X = fileio.load_signal(args.signal)
    eig = job.eig(g)
    if args.inverse:
        with job.stage("ijft"):
            X = ijft(S, eig, real=True)
        job.write(fileio.save_signal, args.out, X)
        metrics = {"signal_norm": float(np.linalg.norm(X))}
    else:
        with job.stage("jft"):
            S = jft(X, eig)
        job.write(fileio.save_spectrum_csv, args.out, S)
        norm_x = np.linalg.norm(X)
        metrics = {
            "signal_norm": float(norm_x),
            "parseval_gap": float(abs(np.linalg.norm(S) - norm_x)
                                  / max(norm_x, 1e-300)),
        }
    return {"inverse": bool(args.inverse)}, metrics


def cmd_dynamics(args):
    job = args.job
    with job.load() as g:
        x1 = fileio.load_signal(args.x1).ravel()
    eig = job.eig(g) if args.kind == "wave" or args.emit_spectrum else None
    with job.stage("evolve"):
        if args.kind == "heat":
            X = heat_evolve(x1, g, args.s, args.T)
        else:
            X = wave_evolve(x1, g, eig, args.s, args.T)
    if args.emit_spectrum:
        with job.stage("spectrum"):
            S = jft(X, eig)
    job.write(fileio.save_signal, args.out, X)
    if args.emit_spectrum:
        job.write(fileio.save_spectrum_csv, args.emit_spectrum, S)
    return ({"kind": args.kind, "s": args.s, "T": args.T},
            {"initial_norm": float(np.linalg.norm(x1)),
             "final_norm": float(np.linalg.norm(X[:, -1]))})


def cmd_filter(args):
    job = args.job
    with job.load() as g:
        X = fileio.load_signal(args.signal)
    kernel = named_response(args.kernel, _parse_params(args.param),
                            lmax=g.lmax, T=X.shape[1])
    eig = job.eig(g) if args.method == "exact" else None
    with job.stage("filter"):
        if args.method == "exact":
            Y = filter_exact(X, kernel, eig)
        elif args.method == "ffc":
            Y = filter_ffc(X, kernel, g, args.order, info=job.info)
        elif args.method == "cheby2d":
            order_t = args.order if args.order_t is None else args.order_t
            Y = filter_cheby2d(X, kernel, g, args.order, order_t)
        else:
            Y = filter_separable(X, kernel, None, g, args.order,
                                 info=job.info)
    Y = real_if_close(Y, strict=True)
    job.write(fileio.save_signal, args.out, Y)
    return ({"kernel": args.kernel, "params": kernel.params,
             "method": args.method, "order": args.order,
             "order_t": args.order_t},
            {"input_norm": float(np.linalg.norm(X)),
             "output_norm": float(np.linalg.norm(Y))})


def cmd_filter_bench(args):
    job = args.job
    if args.t < 0:  # T = 0 is the signal's own error, "no time samples"
        raise ValidationError(f"--t={args.t} must be nonnegative")
    if args.graph:
        with job.load() as g:
            pass  # the graph is the command's only input file
    else:
        with job.stage("fixture_graph"):
            g = generate_graph("knn_sensor", {"n": args.n, "k": args.knn},
                               rng_seed=args.seed)
    rng = default_rng(_seed(args.seed) + 1)  # checks --seed, not --seed + 1
    X = rng.standard_normal((g.N, args.t))
    eig = job.eig(g)
    presets = {
        "lp": ("lowpass_sigmoid",
               {"lambda_cut": g.lmax / 4.0, "omega_cut": np.pi / 2.0}),
        "wave": ("wave_gauss", {}),
        "tikhonov": ("tikhonov", {"tau1": 0.71, "tau2": 1.78}),
        "heat": ("heat", {"s": 1.0 / g.lmax}),
    }
    kernels = {}
    for name in args.kernels.split(","):
        if name not in presets:
            raise ValidationError(f"unknown benchmark kernel '{name}'; "
                                  f"available: {tuple(presets)}")
        kernels[name] = named_response(*presets[name], lmax=g.lmax, T=args.t)
    with job.stage("bench"):
        rows = reports.filter_error_table(
            X, g, eig, kernels, args.methods.split(","),
            _number_list(args.orders, "--orders", int))
    job.write(reports.write_filter_error_csv, args.emit, rows)
    worst = max((r[3] for r in rows), default=0.0)
    return ({"n": g.N, "t": args.t, "kernels": args.kernels,
             "methods": args.methods, "orders": args.orders,
             "seed": args.seed},
            {"max_rel_error": float(worst), "rows": len(rows)})


def cmd_frame_build(args):
    job = args.job
    with job.load() as g:
        spec = fileio.load_bank_spec(args.bank)
    with job.stage("build"):
        bank = fileio.build_bank(spec, g)
    eig = job.eig(g)
    with job.stage("bounds"):
        A, B = frame_bounds(bank, eig)
    if args.out:
        spec["computed"] = {"frame_bound_A": A, "frame_bound_B": B,
                            "certified": bank.bounds_certified}
        job.write(fileio.save_bank_spec, args.out, spec)
    return ({"bank": args.bank, "kind": bank.kind, "size": bank.size},
            {"frame_bound_A": A, "frame_bound_B": B,
             "bounds_certified": int(bank.bounds_certified)})


def cmd_analyze(args):
    job = args.job
    with job.load() as g:
        bank = fileio.load_bank(args.bank, g)
        X = fileio.load_signal(args.signal)
    eig = job.eig(g) if args.exact else None
    with job.stage("analyze"):
        C = frame_analyze(bank, X, g, eig=eig, order=args.order,
                          info=job.info)
    job.write(fileio.save_coefficients_binary, args.out, C)
    nx = np.linalg.norm(X)
    return ({"bank": args.bank, "exact": bool(args.exact),
             "order": args.order},
            {"coefficient_energy_ratio":
             float(np.linalg.norm(C) ** 2 / max(nx * nx, 1e-300))})


def cmd_synthesize(args):
    job = args.job
    with job.load() as g:
        bank = fileio.load_bank(args.bank, g)
        C = fileio.load_coefficients_binary(args.coeffs)
    eig = job.eig(g) if (args.exact or args.dual) else None
    if args.dual:
        with job.stage("dual"):
            bank = canonical_dual(bank, eig)
    with job.stage("synthesize"):
        Y = frame_synthesize(bank, C, g, eig=eig, order=args.order,
                             info=job.info)
    Y = real_if_close(Y, strict=True)
    job.write(fileio.save_signal, args.out, Y)
    return ({"bank": args.bank, "dual": bool(args.dual),
             "exact": bool(args.exact), "order": args.order},
            {"output_norm": float(np.linalg.norm(Y))})


def cmd_denoise(args):
    job = args.job
    with job.load() as g:
        Y = fileio.load_signal(args.signal)
    eig = job.eig(g) if args.exact else None
    with job.stage("denoise"):
        X = denoise_tikhonov(Y, g, args.tau1, args.tau2,
                             eig=eig, order=args.order, info=job.info)
    job.write(fileio.save_signal, args.out, X)
    objective = (float(np.linalg.norm(X - Y) ** 2)
                 + variation_norm(X, g, 2, 2, args.tau1, args.tau2))
    return ({"tau1": args.tau1, "tau2": args.tau2,
             "exact": bool(args.exact), "order": args.order},
            {"objective": objective, "iterations": 0})


def cmd_inpaint(args):
    job = args.job
    with job.load() as g:
        Y = fileio.load_signal(args.signal)
        M = fileio.load_mask_csv(args.mask)
    spec = InverseProblemSpec(
        observation=Y, mask=M,
        regularizer=Regularizer(p=args.p, q=args.q,
                                gamma_graph=args.gamma1,
                                gamma_time=args.gamma2),
        max_iters=args.max_iters, tol=args.tol)
    with job.stage("solve"):
        result = inpaint(spec, g)
    job.write(fileio.save_signal, args.out, result.signal)
    return ({"p": args.p, "q": args.q, "gamma1": args.gamma1,
             "gamma2": args.gamma2, "max_iters": args.max_iters,
             "tol": args.tol},
            {"objective": result.objective,
             "iterations": result.iterations,
             "converged": int(result.converged),
             "objective_gap": result.gap})


def cmd_sparse_code(args):
    job = args.job
    with job.load() as g:
        bank = fileio.load_bank(args.bank, g)
        X = fileio.load_signal(args.signal)
    spec = SparseCodingSpec(bank=bank, observation=X, gamma=args.gamma,
                            max_iters=args.max_iters, tol=args.tol)
    eig = job.eig(g)
    with job.stage("solve"):
        result = sparse_code(spec, g, eig)
    job.write(fileio.save_coefficients_binary, args.out, result.coeffs)
    support = int((np.abs(result.coeffs)
                   > 1e-12 * max(np.abs(result.coeffs).max(), 1e-300)).sum())
    return ({"bank": args.bank, "gamma": args.gamma,
             "max_iters": args.max_iters, "tol": args.tol},
            {"objective": result.objective,
             "iterations": result.iterations,
             "converged": int(result.converged),
             "restarts": result.restarts,
             "support_size": support})


def cmd_localize(args):
    job = args.job
    with job.load() as g:
        bank = fileio.load_bank(args.bank, g) if args.bank else None
        C = fileio.load_coefficients_binary(args.coeffs)
        X = fileio.load_signal(args.signal) if args.signal else None
    with job.stage("localize"):
        estimate = localize_source(C, bank, g, args.top_k)
    metrics = {"estimate_x": float(estimate[0]),
               "estimate_y": float(estimate[1])}
    if X is not None:
        baseline = signal_energy_centroid(X, g)
        metrics["baseline_x"] = float(baseline[0])
        metrics["baseline_y"] = float(baseline[1])
    return {"top_k": args.top_k}, metrics


def cmd_compaction(args):
    job = args.job
    with job.load() as g:
        X = fileio.load_signal(args.signal)
    percentiles = reports._percentiles(
        _number_list(args.percentiles, "--percentiles", float))
    eig = job.eig(g)
    with job.stage("experiment"):
        curve = reports.compaction_experiment(X, g, eig, percentiles)
    job.write(reports.write_compaction_csv, args.out, curve)
    metrics = {f"{name}_at_p{int(curve.percentiles[-1])}": errs[-1]
               for name, errs in curve.errors.items()}
    return {"percentiles": args.percentiles}, metrics


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports an argument error as one ``invalid_input:`` line with exit
    2; subparsers are built from the same class."""

    def error(self, message):
        self.exit(2, f"invalid_input: {message}".replace("\n", " ") + "\n")


@functools.cache
def build_parser():
    """The argument parser, built once per process (``run`` reuses it)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0)")
    common.add_argument("--threads", type=int, default=None,
                        help="cap numerical thread pools "
                             "(TVGSP_THREADS as fallback)")
    common.add_argument("--report", default=None,
                        help="write the JSON run report here "
                             "instead of stdout")

    graph_args = argparse.ArgumentParser(add_help=False)
    graph_args.add_argument("--graph", required=True)
    graph_args.add_argument("--num-vertices", type=int, default=None)

    engine = argparse.ArgumentParser(add_help=False)  # exact or Chebyshev
    engine.add_argument("--exact", action="store_true")
    engine.add_argument("--order", type=int, default=DEFAULT_ORDER)

    parser = _Parser(
        prog="tvgsp",
        description="Time-vertex signal processing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph-gen", parents=[common],
                       help="generate a synthetic graph")
    p.add_argument("--kind", required=True, choices=list(_KINDS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--coords-out", default=None)

    p = sub.add_parser("transform", parents=[common, graph_args],
                       help="joint Fourier transform (or inverse)")
    p.add_argument("--signal")
    p.add_argument("--spectrum")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("dynamics", parents=[common, graph_args],
                       help="evolve a PDE on the graph")
    p.add_argument("--kind", required=True, choices=["heat", "wave"])
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-spectrum", default=None)

    p = sub.add_parser("filter", parents=[common, graph_args],
                       help="apply a named joint filter")
    p.add_argument("--signal", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--param", action="append", default=[],
                   help="kernel parameter key=value (repeatable)")
    p.add_argument("--method", default="ffc",
                   choices=["exact", "ffc", "cheby2d", "separable"])
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--order-t", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("filter-bench", parents=[common],
                       help="accuracy/runtime table for filter methods")
    p.add_argument("--graph", default=None)
    p.add_argument("--num-vertices", type=int, default=None)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--t", type=int, default=128)
    p.add_argument("--knn", type=int, default=10)
    p.add_argument("--kernels", default="lp,wave")
    p.add_argument("--orders", default="5,10,20,40")
    p.add_argument("--methods", default="exact,ffc,cheby2d")
    p.add_argument("--emit", required=True)

    p = sub.add_parser("frame-build", parents=[common, graph_args],
                       help="build a bank spec and compute frame bounds")
    p.add_argument("--bank", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", parents=[common, graph_args, engine],
                       help="frame analysis coefficients")
    p.add_argument("--bank", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synthesize", parents=[common, graph_args, engine],
                       help="frame synthesis from coefficients")
    p.add_argument("--bank", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--dual", action="store_true",
                   help="synthesize with the canonical dual bank")
    p.add_argument("--out", required=True)

    p = sub.add_parser("denoise", parents=[common, graph_args, engine],
                       help="joint Tikhonov denoising")
    p.add_argument("--signal", required=True)
    p.add_argument("--tau1", type=float, default=0.71)
    p.add_argument("--tau2", type=float, default=1.78)
    p.add_argument("--out", required=True)

    p = sub.add_parser("inpaint", parents=[common, graph_args],
                       help="masked recovery with a mixed variation prior")
    p.add_argument("--signal", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma2", type=float, required=True)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sparse-code", parents=[common, graph_args],
                       help="sparse synthesis coding over a frame")
    p.add_argument("--bank", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)

    p = sub.add_parser("localize", parents=[common, graph_args],
                       help="source localization from coefficients")
    p.add_argument("--coords", required=True)
    p.add_argument("--bank", default=None)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--signal", default=None,
                   help="also report the energy-centroid baseline")

    p = sub.add_parser("compaction", parents=[common, graph_args],
                       help="energy compaction of DFT vs GFT vs JFT")
    p.add_argument("--signal", required=True)
    p.add_argument("--percentiles", default="50,75,90,95,99")
    p.add_argument("--out", required=True)

    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("invalid_input: --threads must be a positive integer",
              file=sys.stderr)
        return 2
    # looked up per call rather than bound into the cached parser, so that
    # rebinding a module-level cmd_* function takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    job = args.job = _Job(args)
    try:
        # no floating-point warning reaches stderr (a result that is not
        # finite fails the finite-metric check of its report), and no other
        # warning either: the report lists them
        with np.errstate(all="ignore"), \
                warnings.catch_warnings(record=True) as caught:
            params, metrics = command(args)
        text = reports.RunReport(
            command=args.command, params=params, timings_ms=job.timings_ms,
            metrics={**metrics, **job.info}, outputs=job.outputs,
            environment=reports.environment(), eigensystem=job.eigensystem,
            warnings=[str(w.message) for w in caught]).to_json()
        if args.report:
            with open(job.temporary(args.report), "w", newline="\n") as fh:
                fh.write(text + "\n")
        job.commit()
        if not args.report:
            print(text)
    except OSError as exc:
        if exc.filename2 is None:  # name the output, not its temporary file
            exc.filename = dict(job.pending).get(exc.filename, exc.filename)
        print(f"io_error: {exc}".replace("\n", " "), file=sys.stderr)
        return 2
    except TvgspError as exc:
        print(f"{exc.code}: {str(exc)}".replace("\n", " "), file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    except MemoryError as exc:  # numpy's names the allocation it refused
        print(f"out_of_memory: {job.running or args.command}: "
              f"{str(exc) or 'no memory left'}".replace("\n", " "),
              file=sys.stderr)
        return 3
    finally:
        job.discard()
    return 0
