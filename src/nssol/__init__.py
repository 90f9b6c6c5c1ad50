"""Exact self-similar solutions of the radial compressible Navier-Stokes
equations with density-dependent viscosity, and a finite-difference
residual verifier for them.

The solution ansatz separates a density shape y(z), z = r/a(t), from a
time scaling a(t):

    rho(t, r) = shape(r/a(t)) / a(t)**N,    u(t, r) = (a'(t)/a(t)) * r.

The shape and scaling of each supported family are constructed here
(closed forms where they exist, adaptive ODE integration otherwise) and
verified independently by plugging the fields back into the PDE system
with centered finite differences.
"""

from .errors import (
    DomainError,
    NonFiniteFieldError,
    NssolError,
    OutOfRangeError,
    StencilOutOfDomainError,
    StepFailureError,
)
from .fields import SolutionField, eval_grid
from .model import (
    ModelParams,
    PressurelessTheta1,
    PressurelessThetaNot1,
    WithPressureIsothermal,
    WithPressurePolytropic,
    WithPressurePowerLaw,
    derived_s,
    theta_required,
    validate,
)
from .profiles import Profile
from .residuals import Window, verify_family, verify_window
from .scaling import ScalingFn, vanishing_time
from .solutions import build_solution

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "NonFiniteFieldError",
    "NssolError",
    "OutOfRangeError",
    "StencilOutOfDomainError",
    "StepFailureError",
    "SolutionField",
    "eval_grid",
    "ModelParams",
    "PressurelessTheta1",
    "PressurelessThetaNot1",
    "WithPressureIsothermal",
    "WithPressurePolytropic",
    "WithPressurePowerLaw",
    "derived_s",
    "theta_required",
    "validate",
    "Profile",
    "Window",
    "verify_family",
    "verify_window",
    "ScalingFn",
    "vanishing_time",
    "build_solution",
    "__version__",
]
