"""Time-vertex signal processing: joint harmonic analysis for signals on
graph vertices evolving over time.

Core surface: graph construction (:mod:`tvgsp.graphs`), joint transforms
and variation calculus (:mod:`tvgsp.transforms`), PDE spectral kernels
(:mod:`tvgsp.dynamics`), exact and fast joint filtering
(:mod:`tvgsp.filtering`), overcomplete dictionaries and frames
(:mod:`tvgsp.frames`), and regression solvers (:mod:`tvgsp.solvers`).

The public names below are resolved on first access, so ``import tvgsp``
loads no dependency: the console entry point (:mod:`tvgsp._main`) can cap
the numerical thread pools before numpy and its BLAS are loaded.
"""

import importlib

__version__ = "0.1.0"

#: Environment variables that cap the numerical thread pools.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

_EXPORTS = {
    "errors": ("EigendecompositionCapError", "ImaginaryResidueError",
               "NotAFrameError", "NumericalError", "SingularKernelError",
               "StabilityError", "TvgspError", "ValidationError"),
    "graphs": ("Graph", "GraphEigensystem", "build_graph", "eigendecompose",
               "erdos_renyi_graph", "estimate_lambda_max", "generate_graph",
               "grid2d_graph", "knn_sensor_graph", "path_graph",
               "ring_graph"),
    "transforms": ("dft", "gft", "idft", "igft", "ijft", "jft",
                   "joint_gradient", "joint_laplacian_apply", "omega_grid",
                   "time_diff", "time_laplacian",
                   "time_laplacian_eigenvalues", "unvec", "variation_norm",
                   "vec"),
    "kernels": ("JointKernel", "damped_wave_kernel", "damped_wave_response",
                "grid_eval", "heat_response", "lowpass_sigmoid_response",
                "mexican_hat_response", "named_response",
                "tikhonov_response", "wave_gauss_response"),
    "dynamics": ("heat_evolve", "heat_joint_spectrum", "wave_evolve",
                 "wave_joint_spectrum", "wave_kernel", "wave_response",
                 "wave_tau"),
    "filtering": ("ChebyshevApprox", "filter_cheby2d", "filter_exact",
                  "filter_ffc", "filter_separable", "fit_chebyshev",
                  "fit_joint_kernel"),
    "frames": ("FilterBank", "analyze", "bank_response_energy",
               "canonical_dual", "frame_bounds", "itersine",
               "itersine_graph_design", "localize", "make_stvft",
               "make_stvwt", "normalize_tight", "synthesize", "time_window",
               "time_window_kernel"),
    "solvers": ("InverseProblemSpec", "InpaintResult", "Regularizer",
                "SparseCodeResult", "SparseCodingSpec", "denoise_tikhonov",
                "inpaint", "localize_source", "signal_energy_centroid",
                "sparse_code"),
    "reports": ("CompactionCurve", "RunReport", "compaction_experiment",
                "filter_error_table"),
    "rng": ("default_rng",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    """Import the module that defines ``name`` (a public name or one of
    the modules above) and return it. Nothing is cached here, so the name
    always reads the module's current binding."""
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__),
                       name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
