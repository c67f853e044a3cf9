"""Command-line interface.

Subcommands cover graph generation, transforms, PDE dynamics, filtering
and its benchmark, frame construction/analysis/synthesis, the regression
solvers, source localization, and the energy-compaction experiment. Every
run emits a JSON report (stdout or ``--report``); numerical outputs are
CSV or the binary formats of :mod:`tvgsp.fileio`. All randomness is seeded
via ``--seed`` (default 0).

Exit codes: 0 success, 2 validation error (including bad flags), 3
numerical failure. Errors print a single ``code: message`` line.

A command times the files it reads in a ``load`` stage and the files it
writes (not the report) in a ``write`` stage; its work has stages between.
"""

import argparse
import functools
import sys

import numpy as np

from . import fileio, reports
from .errors import NumericalError, TvgspError, ValidationError
from .frames import analyze as frame_analyze
from .frames import canonical_dual, frame_bounds
from .frames import synthesize as frame_synthesize
from .graphs import build_graph, generate_graph
from .kernels import named_response
from .rng import default_rng
from .solvers import (InverseProblemSpec, Regularizer, SparseCodingSpec,
                      inpaint, denoise_tikhonov, localize_source,
                      signal_energy_centroid, sparse_code)
from .transforms import ijft, jft, real_if_close, variation_norm
from .dynamics import heat_evolve, wave_evolve
from .filtering import (filter_cheby2d, filter_exact, filter_ffc,
                        filter_separable)


def _load_graph(args):
    edges, n = fileio.load_edges_csv(args.graph, args.num_vertices)
    coords = None
    if getattr(args, "coords", None):
        coords = fileio.load_coords_csv(args.coords)
    return build_graph(edges, n, coords=coords)


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


def _eigensystem(g, timer):
    """The graph's (cached) eigensystem, timed as its own stage."""
    with timer.stage("eigendecomposition"):
        return g.eigensystem()


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a RunReport)
# ---------------------------------------------------------------------------

def cmd_graph_gen(args):
    timer = reports.StageTimer()
    params = {}
    for key in ("n", "k", "p", "rows", "cols", "sigma"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    with timer.stage("generate"):
        g = generate_graph(args.kind, params, rng_seed=args.seed)
    outputs = [args.out]
    with timer.stage("write"):
        fileio.save_edges_csv(args.out, g)
        if args.coords_out:
            if g.coords is None:
                raise ValidationError(
                    f"generator '{args.kind}' provides no coordinates")
            fileio.save_coords_csv(args.coords_out, g.coords)
            outputs.append(args.coords_out)
    return reports.RunReport(
        command="graph-gen",
        params={"kind": args.kind, "seed": args.seed, **params},
        timings_ms=timer.timings_ms,
        metrics={"num_vertices": g.N, "num_edges": g.num_edges,
                 "lambda_max_bound": g.lmax,
                 "connected": int(g.is_connected())},
        outputs=outputs)


def cmd_transform(args):
    timer = reports.StageTimer()
    if args.inverse and not args.spectrum:
        raise ValidationError("--inverse needs --spectrum")
    if not args.inverse and not args.signal:
        raise ValidationError("forward transform needs --signal")
    with timer.stage("load"):
        g = _load_graph(args)
        if args.inverse:
            S = fileio.load_spectrum_csv(args.spectrum)
        else:
            X = fileio.load_signal(args.signal)
    eig = _eigensystem(g, timer)
    if args.inverse:
        with timer.stage("ijft"):
            X = ijft(S, eig, real=True)
        with timer.stage("write"):
            fileio.save_signal(args.out, X)
        metrics = {"signal_norm": float(np.linalg.norm(X))}
    else:
        with timer.stage("jft"):
            S = jft(X, eig)
        with timer.stage("write"):
            fileio.save_spectrum_csv(args.out, S)
        norm_x = np.linalg.norm(X)
        metrics = {
            "signal_norm": float(norm_x),
            "parseval_gap": float(abs(np.linalg.norm(S) - norm_x)
                                  / max(norm_x, 1e-300)),
        }
    return reports.RunReport(
        command="transform",
        params={"inverse": bool(args.inverse)},
        timings_ms=timer.timings_ms, metrics=metrics, outputs=[args.out])


def cmd_dynamics(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        x1 = fileio.load_signal(args.x1).ravel()
    eig = (_eigensystem(g, timer)
           if args.kind == "wave" or args.emit_spectrum else None)
    with timer.stage("evolve"):
        if args.kind == "heat":
            X = heat_evolve(x1, g, args.s, args.T)
        elif args.kind == "wave":
            X = wave_evolve(x1, g, eig, args.s, args.T)
        else:
            raise ValidationError(f"unknown dynamics kind '{args.kind}'")
    if args.emit_spectrum:
        with timer.stage("spectrum"):
            S = jft(X, eig)
    outputs = [args.out]
    with timer.stage("write"):
        fileio.save_signal(args.out, X)
        if args.emit_spectrum:
            fileio.save_spectrum_csv(args.emit_spectrum, S)
            outputs.append(args.emit_spectrum)
    return reports.RunReport(
        command="dynamics",
        params={"kind": args.kind, "s": args.s, "T": args.T},
        timings_ms=timer.timings_ms,
        metrics={"initial_norm": float(np.linalg.norm(x1)),
                 "final_norm": float(np.linalg.norm(X[:, -1]))},
        outputs=outputs)


def cmd_filter(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        X = fileio.load_signal(args.signal)
    kernel = named_response(args.kernel, _parse_params(args.param),
                            lmax=g.lmax, T=X.shape[1])
    eig = _eigensystem(g, timer) if args.method == "exact" else None
    info = {}
    with timer.stage("filter"):
        if args.method == "exact":
            Y = filter_exact(X, kernel, eig)
        elif args.method == "ffc":
            Y = filter_ffc(X, kernel, g, args.order, info=info)
        elif args.method == "cheby2d":
            Y = filter_cheby2d(X, kernel, g, args.order,
                               args.order_t if args.order_t is not None
                               else args.order)
        elif args.method == "separable":
            Y = filter_separable(X, kernel, None, g, args.order)
        else:
            raise ValidationError(f"unknown filtering method '{args.method}'")
    Y = real_if_close(Y, strict=True)
    with timer.stage("write"):
        fileio.save_signal(args.out, Y)
    return reports.RunReport(
        command="filter",
        params={"kernel": args.kernel, "method": args.method,
                "order": args.order},
        timings_ms=timer.timings_ms,
        metrics={"input_norm": float(np.linalg.norm(X)),
                 "output_norm": float(np.linalg.norm(Y)), **info},
        outputs=[args.out])


def cmd_filter_bench(args):
    timer = reports.StageTimer()
    if args.graph:
        with timer.stage("load"):
            g = _load_graph(args)
    else:
        with timer.stage("fixture_graph"):
            g = generate_graph("knn_sensor", {"n": args.n, "k": args.knn},
                               rng_seed=args.seed)
    T = args.t
    rng = default_rng(args.seed + 1)
    X = rng.standard_normal((g.N, T))
    eig = _eigensystem(g, timer)
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
        kernels[name] = named_response(*presets[name], lmax=g.lmax, T=T)
    with timer.stage("bench"):
        rows = reports.filter_error_table(
            X, g, eig, kernels, args.methods.split(","),
            _number_list(args.orders, "--orders", int))
    with timer.stage("write"):
        reports.write_filter_error_csv(args.emit, rows)
    worst = max((r[3] for r in rows), default=0.0)
    return reports.RunReport(
        command="filter-bench",
        params={"n": g.N, "t": T, "kernels": args.kernels,
                "methods": args.methods, "orders": args.orders,
                "seed": args.seed},
        timings_ms=timer.timings_ms,
        metrics={"max_rel_error": float(worst), "rows": len(rows)},
        outputs=[args.emit])


def cmd_frame_build(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        spec = fileio.load_bank_spec(args.bank)
    with timer.stage("build"):
        bank = fileio.build_bank(spec, g)
    eig = _eigensystem(g, timer)
    with timer.stage("bounds"):
        A, B = frame_bounds(bank, eig)
    outputs = []
    if args.out:
        spec["computed"] = {"frame_bound_A": A, "frame_bound_B": B,
                            "certified": bank.bounds_certified}
        with timer.stage("write"):
            fileio.save_bank_spec(args.out, spec)
        outputs.append(args.out)
    return reports.RunReport(
        command="frame-build",
        params={"bank": args.bank, "kind": bank.kind, "size": bank.size},
        timings_ms=timer.timings_ms,
        metrics={"frame_bound_A": A, "frame_bound_B": B,
                 "bounds_certified": int(bank.bounds_certified)},
        outputs=outputs)


def cmd_analyze(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        bank = fileio.load_bank(args.bank, g)
        X = fileio.load_signal(args.signal)
    eig = _eigensystem(g, timer) if args.exact else None
    info = {}
    with timer.stage("analyze"):
        C = frame_analyze(bank, X, g, eig=eig, order=args.order, info=info)
    with timer.stage("write"):
        fileio.save_coefficients_binary(args.out, C)
    nx = np.linalg.norm(X)
    return reports.RunReport(
        command="analyze",
        params={"bank": args.bank, "exact": bool(args.exact),
                "order": args.order},
        timings_ms=timer.timings_ms,
        metrics={"coefficient_energy_ratio":
                 float(np.linalg.norm(C) ** 2 / max(nx * nx, 1e-300)),
                 **info},
        outputs=[args.out])


def cmd_synthesize(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        bank = fileio.load_bank(args.bank, g)
        C = fileio.load_coefficients_binary(args.coeffs)
    eig = _eigensystem(g, timer) if (args.exact or args.dual) else None
    if args.dual:
        with timer.stage("dual"):
            bank = canonical_dual(bank, eig)
    info = {}
    with timer.stage("synthesize"):
        Y = frame_synthesize(bank, C, g, eig=eig, order=args.order, info=info)
    Y = real_if_close(Y, strict=True)
    with timer.stage("write"):
        fileio.save_signal(args.out, Y)
    return reports.RunReport(
        command="synthesize",
        params={"bank": args.bank, "dual": bool(args.dual),
                "exact": bool(args.exact), "order": args.order},
        timings_ms=timer.timings_ms,
        metrics={"output_norm": float(np.linalg.norm(Y)), **info},
        outputs=[args.out])


def cmd_denoise(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        Y = fileio.load_signal(args.signal)
    eig = _eigensystem(g, timer) if args.exact else None
    info = {}
    with timer.stage("denoise"):
        X = denoise_tikhonov(Y, g, args.tau1, args.tau2,
                             eig=eig, order=args.order, info=info)
    with timer.stage("write"):
        fileio.save_signal(args.out, X)
    objective = (float(np.linalg.norm(X - Y) ** 2)
                 + args.tau1 * variation_norm(X, g, p=2, q=2,
                                              w_graph=1.0, w_time=0.0)
                 + args.tau2 * variation_norm(X, g, p=2, q=2,
                                              w_graph=0.0, w_time=1.0))
    return reports.RunReport(
        command="denoise",
        params={"tau1": args.tau1, "tau2": args.tau2,
                "exact": bool(args.exact), "order": args.order},
        timings_ms=timer.timings_ms,
        metrics={"objective": objective, "iterations": 0, **info},
        outputs=[args.out])


def cmd_inpaint(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        Y = fileio.load_signal(args.signal)
        M = fileio.load_mask_csv(args.mask)
    spec = InverseProblemSpec(
        observation=Y, mask=M,
        regularizer=Regularizer(p=args.p, q=args.q,
                                gamma_graph=args.gamma1,
                                gamma_time=args.gamma2),
        max_iters=args.max_iters, tol=args.tol)
    with timer.stage("solve"):
        result = inpaint(spec, g)
    with timer.stage("write"):
        fileio.save_signal(args.out, result.signal)
    return reports.RunReport(
        command="inpaint",
        params={"p": args.p, "q": args.q, "gamma1": args.gamma1,
                "gamma2": args.gamma2, "max_iters": args.max_iters,
                "tol": args.tol},
        timings_ms=timer.timings_ms,
        metrics={"objective": result.objective,
                 "iterations": result.iterations,
                 "converged": int(result.converged),
                 "objective_gap": result.gap},
        outputs=[args.out])


def cmd_sparse_code(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        bank = fileio.load_bank(args.bank, g)
        X = fileio.load_signal(args.signal)
    spec = SparseCodingSpec(bank=bank, observation=X, gamma=args.gamma,
                            max_iters=args.max_iters, tol=args.tol)
    eig = _eigensystem(g, timer)
    with timer.stage("solve"):
        result = sparse_code(spec, g, eig)
    with timer.stage("write"):
        fileio.save_coefficients_binary(args.out, result.coeffs)
    support = int((np.abs(result.coeffs)
                   > 1e-12 * max(np.abs(result.coeffs).max(), 1e-300)).sum())
    return reports.RunReport(
        command="sparse-code",
        params={"bank": args.bank, "gamma": args.gamma,
                "max_iters": args.max_iters, "tol": args.tol},
        timings_ms=timer.timings_ms,
        metrics={"objective": result.objective,
                 "iterations": result.iterations,
                 "converged": int(result.converged),
                 "restarts": result.restarts,
                 "support_size": support},
        outputs=[args.out])


def cmd_localize(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        if g.coords is None:
            raise ValidationError("localization needs --coords")
        bank = fileio.load_bank(args.bank, g) if args.bank else None
        C = fileio.load_coefficients_binary(args.coeffs)
        X = fileio.load_signal(args.signal) if args.signal else None
    with timer.stage("localize"):
        estimate = localize_source(C, bank, g, args.top_k)
    metrics = {"estimate_x": float(estimate[0]),
               "estimate_y": float(estimate[1])}
    if X is not None:
        baseline = signal_energy_centroid(X, g)
        metrics["baseline_x"] = float(baseline[0])
        metrics["baseline_y"] = float(baseline[1])
    return reports.RunReport(
        command="localize",
        params={"top_k": args.top_k},
        timings_ms=timer.timings_ms, metrics=metrics, outputs=[])


def cmd_compaction(args):
    timer = reports.StageTimer()
    with timer.stage("load"):
        g = _load_graph(args)
        X = fileio.load_signal(args.signal)
    percentiles = _number_list(args.percentiles, "--percentiles", float)
    eig = _eigensystem(g, timer)
    with timer.stage("experiment"):
        curve = reports.compaction_experiment(X, g, eig, percentiles)
    with timer.stage("write"):
        reports.write_compaction_csv(args.out, curve)
    metrics = {f"{name}_at_p{int(curve.percentiles[-1])}": errs[-1]
               for name, errs in curve.errors.items()}
    return reports.RunReport(
        command="compaction",
        params={"percentiles": args.percentiles},
        timings_ms=timer.timings_ms, metrics=metrics, outputs=[args.out])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

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

    parser = argparse.ArgumentParser(
        prog="tvgsp",
        description="Time-vertex signal processing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph-gen", parents=[common],
                       help="generate a synthetic graph")
    p.add_argument("--kind", required=True,
                   choices=["path", "ring", "grid2d", "knn_sensor",
                            "erdos_renyi"])
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

    p = sub.add_parser("analyze", parents=[common, graph_args],
                       help="frame analysis coefficients")
    p.add_argument("--bank", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--order", type=int, default=50)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synthesize", parents=[common, graph_args],
                       help="frame synthesis from coefficients")
    p.add_argument("--bank", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--dual", action="store_true",
                   help="synthesize with the canonical dual bank")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--order", type=int, default=50)
    p.add_argument("--out", required=True)

    p = sub.add_parser("denoise", parents=[common, graph_args],
                       help="joint Tikhonov denoising")
    p.add_argument("--signal", required=True)
    p.add_argument("--tau1", type=float, default=0.71)
    p.add_argument("--tau2", type=float, default=1.78)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--order", type=int, default=50)
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
    try:
        report = command(args)
    except OSError as exc:
        print(f"io_error: {exc}".replace("\n", " "), file=sys.stderr)
        return 2
    except TvgspError as exc:
        print(f"{exc.code}: {str(exc)}".replace("\n", " "), file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    if args.report:
        with open(args.report, "w", newline="\n") as fh:
            fh.write(report.to_json() + "\n")
    else:
        print(report.to_json())
    return 0
