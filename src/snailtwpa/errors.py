"""Exception types raised by the toolkit."""


class SnailTwpaError(Exception):
    """Base class for all package-specific errors."""


class NoConvergence(SnailTwpaError):
    """Root finding did not converge within the iteration budget."""


class NewtonDivergence(SnailTwpaError):
    """The per-step Newton solve of the transient integrator diverged.

    Usually means the time step is too large or the drive is outside the
    validity range of the model.  Carries the failing step index and the
    index of the failing run among those integrated together.
    """

    def __init__(self, message, step_index=None, member_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.member_index = member_index


class WindowTooShort(SnailTwpaError):
    """Time trace is shorter than settle time plus analysis window."""


class DegenerateBatch(SnailTwpaError):
    """Quadrature batch has fewer than two repetitions."""


class DimensionMismatch(SnailTwpaError):
    """Covariance matrices (or batch/matrix) have incompatible dimensions."""


class NonPositiveVariance(SnailTwpaError):
    """A diagonal covariance entry is <= 0 (unphysical over-subtraction)."""


class ComplexEigenvalue(SnailTwpaError):
    """The symplectic eigenvalue of the partial transpose is not real.

    Signals an unphysical covariance matrix; carries the magnitude of the
    violation.
    """

    def __init__(self, message, violation=None):
        super().__init__(message)
        self.violation = violation


class NotPSD(SnailTwpaError):
    """Target covariance matrix is not positive semidefinite."""


class FitDivergence(SnailTwpaError):
    """Least-squares fit failed to converge; carries the last iterate."""

    def __init__(self, message, last_params=None, last_residual=None):
        super().__init__(message)
        self.last_params = last_params
        self.last_residual = last_residual


class IllConditioned(SnailTwpaError):
    """Fit problem is (near-)degenerate, e.g. bias range too narrow to
    separate the electron temperature from the system noise temperature."""


class ConfigError(SnailTwpaError):
    """Invalid run configuration (schema violation, bad grid, ...)."""
