"""Workload definitions: seeded inputs, stage chain, references and checks.

Each workload is one class holding everything that belongs to it:
:meth:`~Workload.prepare` writes the seeded inputs next to the graph that
the program's own ``graph-gen`` wrote, :meth:`~Workload.stages` lists the
CLI argument vectors of one full pipeline pass into a given output
directory, :meth:`~Workload.references` computes the independent
references of those inputs once per seed, and :meth:`~Workload.check`
judges the output directory of a pass against them. Inputs never depend on
anything but the seed.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

import refs
from checks import (EXACT_TOL, FFC_TOL, FFC_WAVE_TOL, INPAINT_TOL,
                    OBJECTIVE_TOL, Check, flag, read_reports)

#: Per-layer ``solvers.*`` values a check reports (0 where a workload has
#: no such stage).
SOLVER_OUTPUTS = ("solvers.inpaint_objective", "solvers.sparse_code_objective",
                  "solvers.denoise_objective", "solvers.denoise_rel_err")


def _save_signal(path, X):
    """Write a signal in the program's documented CSV or binary format."""
    X = np.ascontiguousarray(np.asarray(X, dtype="<f8"))
    if path.endswith(".bin"):
        with open(path, "wb") as fh:
            fh.write(b"TVSG" + np.array([X.shape[0], X.shape[1], 0],
                                        dtype="<u4").tobytes())
            fh.write(X.tobytes())
    else:
        with open(path, "w", newline="\n") as fh:
            for row in X:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


class _Paths:
    """Input and output file names of one pass."""

    def __init__(self, inputs, out):
        self.inputs, self.out = inputs, out
        self.graph = os.path.join(out, "g.csv")

    def i(self, name):
        return os.path.join(self.inputs, name)

    def o(self, name):
        return os.path.join(self.out, name)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int          # vertices of the kNN sensor graph
    k: int          # neighbours per vertex
    T: int          # time samples
    num_atoms: int  # |Z| of the STVWT bank
    order: int = 0  # Chebyshev order of the FFC stages
    signal_ext: str = ".bin"
    #: ``cli.<subcommand>`` spans a pass must contain, in order
    chain: tuple = ()
    #: eigendecompositions one pass is predicted to run (seed code)
    predicted_eig_calls: int = 0
    params: dict = field(default_factory=dict)

    def graph_gen_argv(self, seed, out):
        return ["graph-gen", "--kind", "knn_sensor", "--n", str(self.n),
                "--k", str(self.k), "--seed", str(seed),
                "--out", os.path.join(out, "g.csv"),
                "--coords-out", os.path.join(out, "coords.csv")]

    def prepare(self, seed, inputs):
        """Write the seeded inputs next to the graph in ``inputs``.

        ``inputs`` must already hold ``g.csv``/``coords.csv`` written by
        the program's ``graph-gen`` for the same seed. Returns the derived
        parameters the stage chain needs (a stable PDE step ``s``).
        """
        rng = np.random.Generator(np.random.Philox(seed))
        graph = refs.load_graph(os.path.join(inputs, "g.csv"), self.n)
        # 2 * max degree bounds lambda_max, so s * lambda <= 2: stable for
        # the wave (needs <= 4) and the heat (needs <= 2) recurrences.
        s = float(1.0 / graph.degrees.max())
        self._write_inputs(rng, graph, s, inputs)
        return {"s": s}

    def stages(self, seed, inputs, out, derived):
        """Argument vectors of one pipeline pass writing into ``out``."""
        argvs = ([self.graph_gen_argv(seed, out)]
                 + self._chain(_Paths(inputs, out), derived))
        return [argv + ["--report",
                        os.path.join(out, f"report-{n:02d}-{argv[0]}.json")]
                for n, argv in enumerate(argvs)]

    def check(self, ref, out):
        """Return ``(checks, solver_outputs)`` for the pass in ``out``."""
        outputs = dict.fromkeys(SOLVER_OUTPUTS, 0.0)
        checks = self._check(ref, _Paths(None, out), read_reports(out),
                             outputs)
        return checks, outputs

    # Per-workload parts.
    def _write_inputs(self, rng, graph, s, inputs):
        raise NotImplementedError

    def _chain(self, paths, derived):
        raise NotImplementedError

    def references(self, inputs, derived):
        """Independent references of the inputs, computed once per seed."""
        raise NotImplementedError

    def _check(self, ref, paths, reports, outputs):
        raise NotImplementedError


class _SpectralPath(Workload):
    """Shared parts of the two filtering pipelines: an evolved signal, one
    wave-ridge filter, an STVWT bank, and Tikhonov denoising of a noisy
    signal."""

    dynamics = ""     # "wave" or "heat"
    tol = 0.0         # tolerance of analyze/synthesize/denoise
    wave_tol = 0.0    # tolerance of the wave_gauss filter

    def bank_scales(self):
        return [float(z) for z in np.linspace(0.2, 2.0, self.num_atoms)]

    def mother(self):
        """Mother kernel entry of the bank spec."""
        raise NotImplementedError

    def bank_grid(self, lambdas):
        """Reference responses of the bank, shape ``(|Z|, N, T)``."""
        raise NotImplementedError

    def _write_inputs(self, rng, graph, s, inputs):
        ext = self.signal_ext
        _save_signal(os.path.join(inputs, "x1" + ext),
                     rng.standard_normal((self.n, 1)))
        t = np.arange(self.T)
        smooth = np.sin(2 * np.pi * np.outer(rng.random(self.n), t) / self.T)
        _save_signal(os.path.join(inputs, "noisy" + ext),
                     smooth + 0.5 * rng.standard_normal((self.n, self.T)))
        _write_json(os.path.join(inputs, "bank.json"), {
            "kind": "stvwt", "T": self.T,
            "mother": self.mother(),
            "scales_lambda": self.bank_scales(),
            "scales_omega": [1.0], "check_admissibility": False})

    def references(self, inputs, derived):
        p = self.params
        ext = self.signal_ext
        graph = refs.load_graph(os.path.join(inputs, "g.csv"), self.n)
        eig = refs.eigensystem(graph)
        x0 = refs.load_signal(os.path.join(inputs, "x1" + ext)).ravel()
        evolve = (refs.wave_reference if self.dynamics == "wave"
                  else refs.heat_reference)
        X = evolve(graph, x0, derived["s"], self.T)
        # The program's wave_gauss default: lmax is the degree bound.
        wave = refs.wave_gauss_grid(eig[0], self.T,
                                    2.0 * graph.degrees.max())
        bank = self.bank_grid(eig[0])
        noisy = refs.load_signal(os.path.join(inputs, "noisy" + ext))
        return {"eig": eig, "bank": bank, "X": X,
                "Y": refs.joint_filter(eig, wave, X).real,
                "C": refs.joint_filter(eig, bank, X),
                "denoised": refs.tikhonov_reference(graph, noisy, p["tau1"],
                                                    p["tau2"])}

    def _spectral_checks(self, ref, paths, reports, outputs):
        """Checks of the stages both pipelines run; the first is the
        dynamics output against its recurrence."""
        o, ext, tol = paths.o, self.signal_ext, self.tol
        X = refs.load_signal(o("X" + ext))
        denoise = Check("denoise_vs_sparse_solve",
                        refs.rel_err(refs.load_signal(o("X_denoised" + ext)),
                                     ref["denoised"]), tol)
        outputs["solvers.denoise_objective"] = (
            reports["denoise"]["metrics"]["objective"])
        outputs["solvers.denoise_rel_err"] = denoise.error
        return X, [
            Check(f"{self.dynamics}_vs_recurrence", refs.rel_err(X, ref["X"]),
                  EXACT_TOL),
            Check("filter_vs_exact_spectral",
                  refs.rel_err(refs.load_signal(o("Y" + ext)), ref["Y"]),
                  self.wave_tol),
            Check("analyze_vs_exact_spectral",
                  refs.rel_err(refs.load_coefficients(o("C.tvcf")), ref["C"]),
                  tol),
            denoise,
        ]


class ExactDesk(_SpectralPath):
    """The eigendecomposition path: every stage reloads the graph and
    decomposes it again, dual synthesis evaluates |Z|(|Z|+1) kernels on the
    joint grid, and signals travel as CSV text. No FFC work runs."""

    dynamics = "wave"
    tol = wave_tol = EXACT_TOL

    def mother(self):
        return {"name": "damped_wave", "params": {"beta": self.params["beta"]}}

    def bank_grid(self, lambdas):
        return refs.damped_wave_bank_grid(lambdas, self.T, self.bank_scales(),
                                          self.params["beta"])

    def _chain(self, paths, derived):
        g, i, o, ext, p = (paths.graph, paths.i, paths.o, self.signal_ext,
                           self.params)
        return [
            ["dynamics", "--kind", "wave", "--s", repr(derived["s"]),
             "--T", str(self.T), "--graph", g, "--x1", i("x1" + ext),
             "--out", o("X" + ext), "--emit-spectrum", o("spectrum.csv")],
            ["transform", "--graph", g, "--inverse",
             "--spectrum", o("spectrum.csv"), "--out", o("X_inverse" + ext)],
            ["filter", "--graph", g, "--signal", o("X" + ext),
             "--kernel", "wave_gauss", "--method", "exact",
             "--out", o("Y" + ext)],
            ["analyze", "--graph", g, "--bank", i("bank.json"),
             "--signal", o("X" + ext), "--exact", "--out", o("C.tvcf")],
            ["synthesize", "--graph", g, "--bank", i("bank.json"),
             "--coeffs", o("C.tvcf"), "--dual", "--exact",
             "--out", o("X_dual" + ext)],
            ["denoise", "--graph", g, "--signal", i("noisy" + ext),
             "--tau1", repr(p["tau1"]), "--tau2", repr(p["tau2"]),
             "--exact", "--out", o("X_denoised" + ext)],
            ["compaction", "--graph", g, "--signal", o("X" + ext),
             "--percentiles", ",".join(str(q) for q in p["percentiles"]),
             "--out", o("compaction.csv")],
        ]

    def references(self, inputs, derived):
        ref = super().references(inputs, derived)
        ref["compaction"] = refs.compaction_reference(
            ref["X"], ref["eig"], self.params["percentiles"])
        return ref

    def _check(self, ref, paths, reports, outputs):
        o, ext = paths.o, self.signal_ext
        X, checks = self._spectral_checks(ref, paths, reports, outputs)
        curve = {}
        with open(o("compaction.csv")) as fh:
            next(fh)
            for line in fh:
                name, pct, err = line.strip().split(",")
                curve[(name, float(pct))] = float(err)
        if sorted(curve) != sorted(ref["compaction"]):
            raise ValueError(f"compaction rows {sorted(curve)} differ from "
                             f"{sorted(ref['compaction'])}")
        # Distance of each error outside its reference interval.
        outside = max(max(low - curve[key], curve[key] - high, 0.0)
                      / max(high, 1e-300)
                      for key, (low, high) in ref["compaction"].items())
        return checks + [
            Check("inverse_jft_round_trip",
                  refs.rel_err(refs.load_signal(o("X_inverse" + ext)), X),
                  EXACT_TOL),
            Check("dual_round_trip",
                  refs.rel_err(refs.load_signal(o("X_dual" + ext)), X),
                  EXACT_TOL),
            Check("compaction_vs_reference", outside, EXACT_TOL),
        ]


class FfcLarge(_SpectralPath):
    """The mirror image: the eigendecomposition-free path on a larger graph,
    where Chebyshev recurrences dominate and signals travel as binary.
    Every FFC output is held to the exact spectral reference. The bank's
    mother is the smooth Mexican hat, which order 30 fits to about 1e-6;
    the damped-wave mother has a pole near ``z lambda = 2 (1 + cosh beta)``
    at ``omega = pi``, where no low-order polynomial fits it."""

    dynamics = "heat"
    tol = FFC_TOL
    wave_tol = FFC_WAVE_TOL

    def mother(self):
        return {"name": "mexican_hat", "params": {}}

    def bank_grid(self, lambdas):
        return refs.mexican_hat_bank_grid(lambdas, self.T, self.bank_scales())

    def _chain(self, paths, derived):
        g, i, o, ext, p = (paths.graph, paths.i, paths.o, self.signal_ext,
                           self.params)
        order = str(self.order)
        return [
            ["dynamics", "--kind", "heat", "--s", repr(derived["s"]),
             "--T", str(self.T), "--graph", g, "--x1", i("x1" + ext),
             "--out", o("X" + ext)],
            ["filter", "--graph", g, "--signal", o("X" + ext),
             "--kernel", "wave_gauss", "--method", "ffc", "--order", order,
             "--out", o("Y" + ext)],
            ["analyze", "--graph", g, "--bank", i("bank.json"),
             "--signal", o("X" + ext), "--order", order,
             "--out", o("C.tvcf")],
            ["synthesize", "--graph", g, "--bank", i("bank.json"),
             "--coeffs", o("C.tvcf"), "--order", order,
             "--out", o("X_synth" + ext)],
            ["denoise", "--graph", g, "--signal", i("noisy" + ext),
             "--tau1", repr(p["tau1"]), "--tau2", repr(p["tau2"]),
             "--order", order, "--out", o("X_denoised" + ext)],
        ]

    def _check(self, ref, paths, reports, outputs):
        o, ext = paths.o, self.signal_ext
        X, checks = self._spectral_checks(ref, paths, reports, outputs)
        C = refs.load_coefficients(o("C.tvcf"))
        synth = refs.load_signal(o("X_synth" + ext))
        energy = float(np.vdot(C, C).real)
        inner = float(np.vdot(X, synth).real)
        adjoint_gap = (abs(energy - inner) / energy if energy > 0
                       else np.inf)
        return checks + [
            Check("synthesize_vs_exact_spectral",
                  refs.rel_err(synth, refs.joint_synthesis(
                      ref["eig"], ref["bank"], C).real), FFC_TOL),
            Check("adjoint_identity", adjoint_gap, EXACT_TOL),
        ]


class SolveSeismic(Workload):
    """Iterative solvers: inpaint runs to a stated tolerance; sparse coding
    runs a fixed number of FISTA iterations (tol 0), so its work does not
    hinge on where a relative-change stopping rule happens to fire.
    Spectral analysis and synthesis repeat every iteration instead of
    running once. Both objectives are held to independent minimisers."""

    def bank_scales(self):
        """Graph scales of the Mexican-hat bank (the DC kernel is extra)."""
        return [float(z) for z in np.geomspace(0.25, 4.0, self.num_atoms - 1)]

    def _write_inputs(self, rng, graph, s, inputs):
        p = self.params
        n, T = self.n, self.T
        # Noisy wave from a smooth bump around a random epicentre, half
        # masked.
        centre = graph.coords[rng.integers(n)]
        dist2 = ((graph.coords - centre) ** 2).sum(axis=1)
        X = np.empty((n, T))
        X[:, 0] = np.exp(-dist2 / 0.01)
        X[:, 1] = X[:, 0] - 0.5 * s * (graph.L @ X[:, 0])
        for t in range(1, T - 1):
            X[:, t + 1] = 2 * X[:, t] - X[:, t - 1] - s * (graph.L @ X[:, t])
        noisy = X + p["noise"] * np.abs(X).max() * rng.standard_normal((n, T))
        mask = (rng.random((n, T)) < 0.5).astype(int)
        _save_signal(os.path.join(inputs, "observed.bin"), mask * noisy)
        with open(os.path.join(inputs, "mask.csv"), "w", newline="\n") as fh:
            for row in mask:
                fh.write(",".join(str(int(v)) for v in row) + "\n")
        # Planted source: heat-diffused spike at one vertex times a temporal
        # Gaussian pulse, plus noise.
        vertex = int(rng.integers(n))
        spike = np.zeros(n)
        spike[vertex] = 1.0
        for _ in range(4):
            spike = spike - 0.5 * s * (graph.L @ spike)
        pulse = np.exp(-0.5 * ((np.arange(T) - rng.integers(T // 4, 3 * T // 4))
                               / 3.0) ** 2)
        source = np.outer(spike, pulse)
        source += 0.05 * np.abs(source).max() * rng.standard_normal((n, T))
        _save_signal(os.path.join(inputs, "source.bin"), source)
        _write_json(os.path.join(inputs, "bank.json"), {
            "kind": "stvwt", "T": T,
            "mother": {"name": "mexican_hat", "params": {}},
            "dc_kernel": {"name": "tikhonov",
                          "params": {"tau1": p["dc_tau1"],
                                     "tau2": p["dc_tau2"]}},
            "scales_lambda": self.bank_scales(), "scales_omega": [1.0]})

    def _chain(self, paths, derived):
        g, i, o, p = paths.graph, paths.i, paths.o, self.params
        return [
            ["inpaint", "--graph", g, "--signal", i("observed.bin"),
             "--mask", i("mask.csv"), "--p", "1", "--q", "2",
             "--gamma1", repr(p["gamma1"]), "--gamma2", repr(p["gamma2"]),
             "--tol", repr(p["inpaint_tol"]), "--max-iters", "5000",
             "--out", o("X_inpainted.bin")],
            ["sparse-code", "--graph", g, "--bank", i("bank.json"),
             "--signal", i("source.bin"), "--gamma", repr(p["gamma"]),
             "--max-iters", str(p["sc_iters"]), "--tol", "0",
             "--out", o("C.tvcf")],
            ["localize", "--graph", g, "--coords", o("coords.csv"),
             "--bank", i("bank.json"), "--coeffs", o("C.tvcf"),
             "--top-k", str(p["top_k"]), "--signal", i("source.bin")],
        ]

    def references(self, inputs, derived):
        p = self.params
        graph = refs.load_graph(os.path.join(inputs, "g.csv"), self.n)
        eig = refs.eigensystem(graph)
        observed = refs.load_signal(os.path.join(inputs, "observed.bin"))
        mask = np.loadtxt(os.path.join(inputs, "mask.csv"), delimiter=",",
                          ndmin=2)
        source = refs.load_signal(os.path.join(inputs, "source.bin"))
        bank = np.concatenate([
            refs.mexican_hat_bank_grid(eig[0], self.T, self.bank_scales()),
            refs.tikhonov_grid(eig[0], self.T, p["dc_tau1"],
                               p["dc_tau2"])[None]])
        return {
            "graph": graph, "eig": eig, "bank": bank, "observed": observed,
            "mask": mask, "source": source,
            "inpaint_objective": refs.inpaint_reference(
                graph, float(eig[0][-1]), observed, mask, p["gamma1"],
                p["gamma2"]),
            "sparse_code_objective": refs.fista_reference(
                eig, bank, source, p["gamma"], p["sc_iters"]),
        }

    def _check(self, ref, paths, reports, outputs):
        p, o = self.params, paths.o
        inp = reports["inpaint"]["metrics"]
        inp_obj = refs.inpaint_objective(
            ref["graph"], refs.load_signal(o("X_inpainted.bin")),
            ref["observed"], ref["mask"], p["gamma1"], p["gamma2"])
        sc = reports["sparse-code"]["metrics"]
        C = refs.load_coefficients(o("C.tvcf"))
        sc_obj = refs.sparse_code_objective(ref["eig"], ref["bank"], C,
                                            ref["source"], p["gamma"])
        loc = reports["localize"]["metrics"]
        centroid = refs.centroid_reference(C, ref["graph"].coords, p["top_k"])
        outputs["solvers.inpaint_objective"] = inp["objective"]
        outputs["solvers.sparse_code_objective"] = sc["objective"]
        return [
            Check("inpaint_objective_recomputed",
                  abs(inp_obj - inp["objective"]) / inp_obj, OBJECTIVE_TOL),
            flag("inpaint_converged", inp["converged"] == 1),
            # Excess over a tightly converged minimiser: a solver that stops
            # early or lands worse fails here.
            Check("inpaint_objective_vs_reference",
                  inp_obj / ref["inpaint_objective"] - 1.0, INPAINT_TOL),
            Check("sparse_code_objective_recomputed",
                  abs(sc_obj - sc["objective"]) / sc_obj, OBJECTIVE_TOL),
            flag("sparse_code_iterations",
                 sc["iterations"] == p["sc_iters"]),
            Check("sparse_code_objective_vs_fista",
                  sc_obj / ref["sparse_code_objective"] - 1.0, OBJECTIVE_TOL),
            Check("localize_vs_centroid",
                  float(np.abs(np.array([loc["estimate_x"], loc["estimate_y"]])
                               - centroid).max()), EXACT_TOL),
        ]


WORKLOADS = {wl.name: wl for wl in (
    ExactDesk(
        name="exact_desk", n=400, k=10, T=64, num_atoms=10,
        signal_ext=".csv",
        chain=("graph-gen", "dynamics", "transform", "filter", "analyze",
               "synthesize", "denoise", "compaction"),
        predicted_eig_calls=7,
        params={"tau1": 0.71, "tau2": 1.78, "beta": 0.5,
                "percentiles": [50.0, 75.0, 90.0, 95.0, 99.0]}),
    FfcLarge(
        name="ffc_large", n=1000, k=10, T=64, num_atoms=4, order=30,
        chain=("graph-gen", "dynamics", "filter", "analyze", "synthesize",
               "denoise"),
        predicted_eig_calls=0,
        params={"tau1": 0.71, "tau2": 1.78}),
    SolveSeismic(
        name="solve_seismic", n=200, k=6, T=32, num_atoms=10,
        chain=("graph-gen", "inpaint", "sparse-code", "localize"),
        predicted_eig_calls=1,
        params={"gamma1": 0.2, "gamma2": 0.5, "inpaint_tol": 1e-4,
                "gamma": 0.05, "sc_iters": 100, "top_k": 3, "noise": 0.1,
                "dc_tau1": 1.0, "dc_tau2": 1.0}),
)}
