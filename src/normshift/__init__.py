"""normshift: simulation and verification lab for planar Newtonian systems
admitting the normal shift of curves.

Modules: geometry (metric primitives), forces (field constructors),
dynamics (phase flow and deviation equations), shift (the normal-shift
construction), normality (residual evaluators), closedform (analytic
oracles), experiment (the config schema and the field catalogue), cli
(command-line front end).
"""

from .errors import (DegenerateVelocity, InvalidParams, NuBlowup,
                     OutOfInterval, SingularCurve, SingularDenominator,
                     SingularQuadrature, StepFailure)

__all__ = [
    "DegenerateVelocity", "InvalidParams", "NuBlowup",
    "OutOfInterval", "SingularCurve", "SingularDenominator",
    "SingularQuadrature", "StepFailure",
]

__version__ = "0.1.0"
