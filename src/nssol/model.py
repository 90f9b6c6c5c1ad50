"""Model parameters, solution families, and parameter validation.

The fluid model is the radially symmetric compressible Navier-Stokes
system with gamma-law pressure P = K*rho**gamma (switchable via delta)
and density-dependent viscosity mu(rho) = kappa*rho**theta.  Each
solution family couples a density shape y(z), z = r/a(t), to a scaling
function a(t).  A family class holds all of its rules: its constants,
the admissible (gamma, theta) combinations, checked by :func:`validate`,
and the construction of its shape and scaling (see FAMILIES).
"""

import math
from dataclasses import dataclass, fields

from . import profiles, scaling
from .errors import DomainError

@dataclass(frozen=True)
class ModelParams:
    """Physical and dimensional constants of the fluid model.

    Attributes
    ----------
    N : int
        Spatial dimension, integer >= 1.
    gamma : float
        Adiabatic exponent, >= 1.
    theta : float
        Viscosity exponent, > 0.
    K : float
        Pressure constant, > 0.
    kappa : float
        Viscosity constant, > 0.
    delta : int
        Pressure switch: 1 with pressure, 0 pressureless.
    """

    N: int
    gamma: float
    theta: float
    K: float = 1.0
    kappa: float = 1.0
    delta: int = 1


class Family:
    """Base of the solution families (see FAMILIES)."""

    def describe(self, params):
        """Keys the describe command adds for a valid instance."""
        return {}


@dataclass(frozen=True)
class WithPressureIsothermal(Family):
    """Exponential-quadratic density family, requires theta = gamma = 1.

    Density shape A*exp(B*z**2 + C); a(t) solves a second-order ODE from
    the initial data (a0, a1).  A >= 0; B and C are free reals (B < 0
    gives a Gaussian-decaying density).
    """

    A: float
    B: float
    C: float
    a0: float
    a1: float

    tag = "with_pressure_isothermal"
    delta = 1
    positive = ("a0",)

    def violations(self, params):
        if not (params.theta == 1.0 and params.gamma == 1.0):
            yield ("theta=gamma=1 required for the isothermal family, got "
                   f"gamma={params.gamma}, theta={params.theta}")
        if self.A < 0.0:
            yield f"A must be >= 0, got {self.A}"

    def shape(self, params):
        return profiles.ExpQuadratic(self.A, self.B, self.C)

    def scale(self, params, t_end):
        return scaling.integrate_isothermal(self.B, params.K, params.kappa,
                                            params.N, self.a0, self.a1, t_end)


@dataclass(frozen=True)
class WithPressurePolytropic(Family):
    """Power-root density family, requires theta = gamma > 1."""

    alpha: float
    a0: float
    a1: float

    tag = "with_pressure_polytropic"
    delta = 1
    positive = ("alpha", "a0")

    def violations(self, params):
        if not (params.theta == params.gamma and params.gamma > 1.0):
            yield ("theta=gamma>1 required for the polytropic family, got "
                   f"gamma={params.gamma}, theta={params.theta}")

    def shape(self, params):
        # y**(theta-2)*dy/dz = z, y(0) = alpha: y grows from alpha
        return profiles.PowerRoot(params.theta - 2.0, 1.0, self.alpha)

    def scale(self, params, t_end):
        return scaling.integrate_polytropic(params.gamma, params.K, params.kappa,
                                            params.N, self.a0, self.a1, t_end)


@dataclass(frozen=True)
class WithPressurePowerLaw(Family):
    """Power-law scaling family, requires theta = gamma/2 + 1/2 - 1/N.

    a(t) = sigma*(m*t + n)**s with the similarity exponent s derived
    from (N, gamma); the density shape solves a separable ODE in closed
    form with y(0) = alpha.  m may be negative (collapsing scaling,
    finite-time blowup at t* = -n/m); n > 0, sigma > 0, alpha > 0.  The
    scaling is a closed form, so scale ignores t_end.
    """

    m: float
    n: float
    sigma: float
    alpha: float

    tag = "with_pressure_power_law"
    delta = 1
    positive = ("n", "sigma", "alpha")

    def violations(self, params):
        # its arithmetic overflows on an int past the float range
        if (isinstance(params.N, int) and params.N >= 1 and params.gamma >= 1.0
                and all(map(finite, (params.N, params.gamma, params.theta)))):
            # at gamma >= 1 this keeps theta >= 1 - 1/N as well
            theta_req = theta_required(params)
            if abs(params.theta - theta_req) > 1e-12 * max(1.0, abs(theta_req)):
                yield (f"theta must equal gamma/2 + 1/2 - 1/N = {theta_req} for "
                       f"the power-law family, got theta={params.theta}")
            # gamma*N - N + 2 >= 2, but s = 2/inf = 0 when gamma*N overflows
            s = derived_s(params)
            if not (0.0 < s <= 1.0):
                yield f"similarity exponent s={s} outside (0, 1]"

    def shape(self, params):
        return profiles.powerlaw_profile(params, self.m, self.sigma, self.alpha,
                                         derived_s(params))

    def scale(self, params, t_end):
        return scaling.PowerLawScaling(self.sigma, self.m, self.n, derived_s(params))

    def describe(self, params):
        t_star = self.scale(params, None).vanishing_time
        if t_star is None:
            return {"vanishing_time": None}
        return {"vanishing_time": t_star,
                "vanishing_time_note": "a(t) = sigma*(m*t+n)**s vanishes at the root "
                                       "of m*t+n, i.e. t* = -n/m (not -m/n)"}


@dataclass(frozen=True)
class PressurelessTheta1(Family):
    """Pressureless family for theta = 1.

    Density shape exp(lam/(2*N*kappa)*z**2 + alpha); lam and alpha are
    free reals.
    """

    lam: float
    alpha: float
    a0: float
    a1: float

    tag = "pressureless_theta1"
    delta = 0
    positive = ("a0",)

    def violations(self, params):
        if params.theta != 1.0:
            yield ("theta=1 required for this pressureless family, got "
                   f"theta={params.theta}")

    def shape(self, params):
        # density exp(lam/(2*N*kappa)*z**2 + alpha)/a**N folds into the
        # exponential-quadratic shape with A=1
        return profiles.ExpQuadratic(
            1.0, self.lam / (2.0 * params.N * params.kappa), self.alpha)

    def scale(self, params, t_end):
        return scaling.integrate_pressureless(1.0, self.lam, params.N,
                                              self.a0, self.a1, t_end)


@dataclass(frozen=True)
class PressurelessThetaNot1(Family):
    """Pressureless family for theta != 1, power-root density shape."""

    lam: float
    alpha: float
    a0: float
    a1: float

    tag = "pressureless_theta_not1"
    delta = 0
    positive = ("alpha", "a0")

    def violations(self, params):
        if params.theta == 1.0:
            yield "theta != 1 required for this pressureless family"

    def shape(self, params):
        xi = -self.lam / (params.N * params.kappa * params.theta)
        return profiles.PowerRoot(params.theta - 2.0, xi, self.alpha)

    def scale(self, params, t_end):
        return scaling.integrate_pressureless(params.theta, self.lam, params.N,
                                              self.a0, self.a1, t_end)


#: every solution family; a new family is one class and one entry here.
#: A family class is a frozen dataclass of its constants, derived from
#: Family, with a ``tag`` (its config name), its pressure switch
#: ``delta``, the constants that must be ``positive``, a generator
#: ``violations(params)`` of messages for its other constraints, and, for
#: a valid instance, ``shape(params)`` giving its density shape and
#: ``scale(params, t_end)`` its scaling, where t_end bounds an integrated
#: scaling: a shape alone integrates nothing.  Its
#: ``describe(params)`` hook gives the extra keys of ``nssol describe`` on
#: a valid instance (none by default; the power-law family's vanishing
#: time).
FAMILIES = (
    WithPressureIsothermal,
    WithPressurePolytropic,
    WithPressurePowerLaw,
    PressurelessTheta1,
    PressurelessThetaNot1,
)

FAMILY_TAGS = {cls.tag: cls for cls in FAMILIES}


@dataclass(frozen=True)
class ValidationOutcome:
    """Result of :func:`validate`: ok is true exactly when violations,
    the full list of violated constraints, is empty."""

    ok: bool
    violations: tuple


def finite(value):
    """Whether a number converts to a finite float; an int past the float
    range does not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def derived_s(params: ModelParams) -> float:
    """Similarity exponent s = 2/(gamma*N - N + 2), from (N, gamma) only.

    When theta equals gamma/2 + 1/2 - 1/N this is also 1/((gamma -
    theta)*N), but gamma - theta cancels (a relative error near eps*N),
    so that form is not evaluated.  Raises DomainError if
    gamma*N - N + 2 <= 0 (cannot happen for gamma >= 1, N >= 1, guarded
    anyway).
    """
    denom = params.gamma * params.N - params.N + 2.0
    if denom <= 0.0:
        raise DomainError(
            f"gamma*N - N + 2 = {denom} must be positive (N={params.N}, "
            f"gamma={params.gamma})"
        )
    return 2.0 / denom


def theta_required(params: ModelParams) -> float:
    """The viscosity exponent forced by the power-law family."""
    return params.gamma / 2.0 + 0.5 - 1.0 / params.N


def validate(params: ModelParams, family: Family) -> ValidationOutcome:
    """Check all model invariants and family-selection constraints.

    Total: never raises on bad input, and never stops at the first
    failure; every violated constraint is reported with the offending
    values, among them a NaN, an infinity or an int past the float
    range: every model and family number must convert to a finite float.
    Every constant that is not an int or a float (a bool included) is
    reported alone, as the rules compare numbers.
    """
    objs = (params, family) if type(family) in FAMILIES else (params,)
    values = [(field.name, getattr(obj, field.name)) for obj in objs for field in fields(obj)]
    bad = [f"{name} must be a number, got {value!r}" for name, value in values
           if isinstance(value, bool) or not isinstance(value, (int, float))]
    if bad:
        return ValidationOutcome(ok=False, violations=tuple(bad))
    if not isinstance(params.N, int) or params.N < 1:
        bad.append(f"N must be an integer >= 1, got {params.N!r}")
    if params.gamma < 1.0:
        bad.append(f"gamma must be >= 1, got {params.gamma}")
    if params.theta <= 0.0:
        bad.append(f"theta must be > 0, got {params.theta}")
    if params.K <= 0.0:
        bad.append(f"K must be > 0, got {params.K}")
    if params.kappa <= 0.0:
        bad.append(f"kappa must be > 0, got {params.kappa}")
    if params.delta not in (0, 1):
        bad.append(f"delta must be 0 or 1, got {params.delta!r}")
    if type(family) not in FAMILIES:
        bad.append(f"unknown family type {type(family).__name__}")
        return ValidationOutcome(ok=False, violations=tuple(bad))

    # NaN slips through every comparison above and below
    bad += [f"{name} must be finite, got {value!r}" for name, value in values
            if not finite(value)]

    if family.delta != params.delta:
        bad.append(
            f"family {family.tag!r} requires delta={family.delta}, "
            f"params have delta={params.delta}"
        )
    bad += family.violations(params)
    bad += [f"{name} must be > 0, got {getattr(family, name)}"
            for name in family.positive if getattr(family, name) <= 0.0]
    return ValidationOutcome(ok=not bad, violations=tuple(bad))
