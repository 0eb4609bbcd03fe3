"""normshift: simulation and verification lab for planar Newtonian systems
admitting the normal shift of curves.

Subpackages: geometry (metric primitives), forces (field constructors and
catalogue), dynamics (phase flow and deviation equations), shift (the
normal-shift construction), normality (residual evaluators), closedform
(analytic oracles), cli (command-line front end).
"""

from .errors import (DegenerateVelocity, InvalidParams, NuBlowup,
                     OutOfInterval, SingularCurve, SingularDenominator,
                     SingularQuadrature, StepFailure, UnknownCatalogueEntry)

__all__ = [
    "DegenerateVelocity", "InvalidParams", "NuBlowup",
    "OutOfInterval", "SingularCurve", "SingularDenominator",
    "SingularQuadrature", "StepFailure", "UnknownCatalogueEntry",
]

__version__ = "0.1.0"
