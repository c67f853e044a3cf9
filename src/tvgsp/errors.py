"""Exception hierarchy shared by the library and the CLI.

Every error carries a short machine-parsable ``code``; the CLI prints
``code: message`` on a single line and maps :class:`ValidationError` to
exit status 2 and :class:`NumericalError` to exit status 3.
"""


class TvgspError(Exception):
    """Base class for all library errors."""

    code = "error"


class ValidationError(TvgspError):
    """Invalid inputs: bad parameters, malformed files, shape mismatches."""

    code = "invalid_input"


class NumericalError(TvgspError):
    """Numerical failure: instability, singularities, non-frames."""

    code = "numerical_failure"


class StabilityError(NumericalError):
    """PDE parameter outside its stability region."""

    code = "unstable_parameters"


class EigendecompositionCapError(ValidationError):
    """Graph too large for the dense eigendecomposition path."""

    code = "eigendecomposition_cap"


class NotAFrameError(NumericalError):
    """Filter bank lower frame bound is (numerically) zero."""

    code = "not_a_frame"


class SingularKernelError(NumericalError):
    """Kernel denominator vanished at some evaluation point."""

    code = "singular_kernel"


class ImaginaryResidueError(NumericalError):
    """Inverse transform of a spectrum that is not consistent with a real signal."""

    code = "imaginary_residue"
