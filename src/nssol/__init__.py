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
from .fields import FieldGrid, SolutionField, eval_grid, eval_point
from .model import (
    DerivedConstants,
    Family,
    ModelParams,
    PressurelessTheta1,
    PressurelessThetaNot1,
    ValidationOutcome,
    WithPressureIsothermal,
    WithPressurePolytropic,
    WithPressurePowerLaw,
    derived_s,
    theta_required,
    validate,
)
from .profiles import (
    ExpQuadratic,
    ImplicitProfile,
    PowerRoot,
    Profile,
    powerlaw_profile,
)
from .residuals import (
    ResidualReport,
    ResolutionNorms,
    Window,
    mass_residual,
    momentum_residual,
    verify_family,
    verify_window,
)
from .scaling import (
    PowerLawScaling,
    ScalingFn,
    integrate_isothermal,
    integrate_polytropic,
    integrate_pressureless,
    vanishing_time,
)
from .solutions import Solution, build_solution

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "NonFiniteFieldError",
    "NssolError",
    "OutOfRangeError",
    "StencilOutOfDomainError",
    "StepFailureError",
    "FieldGrid",
    "SolutionField",
    "eval_grid",
    "eval_point",
    "DerivedConstants",
    "Family",
    "ModelParams",
    "PressurelessTheta1",
    "PressurelessThetaNot1",
    "ValidationOutcome",
    "WithPressureIsothermal",
    "WithPressurePolytropic",
    "WithPressurePowerLaw",
    "derived_s",
    "theta_required",
    "validate",
    "ExpQuadratic",
    "ImplicitProfile",
    "PowerRoot",
    "Profile",
    "powerlaw_profile",
    "ResidualReport",
    "ResolutionNorms",
    "Window",
    "mass_residual",
    "momentum_residual",
    "verify_family",
    "verify_window",
    "PowerLawScaling",
    "ScalingFn",
    "integrate_isothermal",
    "integrate_polytropic",
    "integrate_pressureless",
    "vanishing_time",
    "Solution",
    "build_solution",
    "__version__",
]
