"""Exception types shared across the package."""


class NormShiftError(Exception):
    """Base class for all package-specific errors."""


class DegenerateVelocity(NormShiftError):
    """Velocity below the minimum speed; frame-dependent quantities undefined."""


class StepFailure(NormShiftError):
    """Adaptive integrator could not proceed (step underflow or step budget).

    ``rows`` lists the rows of a stacked state (counted over its leading
    axes) that went non-finite, when the failure is known to come from
    them, also for a state of one row.
    ``solution`` is the ``odesolve.OdeSolution`` of the steps accepted
    before the failure, when the integrator raised it.
    """

    def __init__(self, message: str = "", rows=(), solution=None):
        super().__init__(message)
        self.rows = tuple(int(i) for i in rows)
        self.solution = solution


class SingularCurve(NormShiftError):
    """Curve is not regular at the requested parameter (|r'(s)| ~ 0)."""


class NuBlowup(NormShiftError):
    """Initial-speed ODE left its domain; solution only covers a sub-interval."""


class InvalidParams(NormShiftError):
    """Parameters violate a field's precondition, or a field is evaluated
    outside its domain."""


class FormulationMismatch(NormShiftError):
    """Two formulations of the same residual disagree beyond their tolerance."""


class SingularDenominator(NormShiftError):
    """Closed-form expression evaluated where its denominator vanishes."""


class OutOfInterval(NormShiftError):
    """Time outside the interval on which the closed form is valid."""


class SingularQuadrature(NormShiftError):
    """Quadrature integrand is singular on the requested grid."""
