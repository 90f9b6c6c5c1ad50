"""Canonical solution instances shared by the unit and acceptance tests."""

from nssol import (
    ModelParams,
    PressurelessTheta1,
    PressurelessThetaNot1,
    WithPressureIsothermal,
    WithPressurePolytropic,
    WithPressurePowerLaw,
)
from nssol.residuals import Window

#: coarse-then-fine differencing, h halved, as the order estimates expect
RESOLUTIONS = [(1e-3, 1e-3), (5e-4, 5e-4)]

#: integrate_pressureless arguments of a collapse at e ~ 283 whose a'
#: falls from -0.58 to -3.6e22 by t ~ 9e-71: its steps in t grow too
#: short for their quartic dense output (q/h**3 overflows) before the
#: tail's switch holds, and the build fails with StepFailureError
STEEP_COLLAPSE = dict(theta=95.12361954781429, lam=-6.2563369652546985, N=3,
                      a0=0.562885367455459, a1=-0.5818179439650379, t_end=1000.0)


def isothermal_stated():
    """Exponential family exactly as pinned by acceptance criterion 1.

    With B = +1 the pressure gradient points inward and the scaling
    collapses before the stated window ends; kept verbatim so the
    acceptance run reports the criterion honestly.
    """
    params = ModelParams(N=3, gamma=1.0, theta=1.0, K=1.0, kappa=1.0, delta=1)
    family = WithPressureIsothermal(A=1.0, B=1.0, C=0.0, a0=1.0, a1=0.0)
    return params, family, Window(0.1, 0.5, 0.1, 2.0)


def isothermal_gaussian():
    """Gaussian-decaying exponential family (B = -1): expanding scaling,
    exact solution on the full criterion-1 window."""
    params = ModelParams(N=3, gamma=1.0, theta=1.0, K=1.0, kappa=1.0, delta=1)
    family = WithPressureIsothermal(A=1.0, B=-1.0, C=0.0, a0=1.0, a1=0.0)
    return params, family, Window(0.1, 0.5, 0.1, 2.0)


def polytropic_n1():
    """theta = gamma = 2 family in one dimension (criterion 2); the
    window keeps a(t) within [0.5, 2] as required."""
    params = ModelParams(N=1, gamma=2.0, theta=2.0, K=1.0, kappa=1.0, delta=1)
    family = WithPressurePolytropic(alpha=1.0, a0=1.0, a1=0.5)
    return params, family, Window(0.1, 0.3, 0.1, 1.5)


def powerlaw_blowup():
    """Collapsing power-law scaling family (criterion 3): s = 1/2,
    a(t) = (1 - t)**0.5, vanishing at t* = 1."""
    params = ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, K=1.0, kappa=1.0,
                         delta=1)
    family = WithPressurePowerLaw(m=-1.0, n=1.0, sigma=1.0, alpha=1.0)
    return params, family, Window(0.05, 0.5, 0.1, 2.0)


def pressureless_theta1():
    """Pressureless theta = 1 instance (criterion 4a)."""
    params = ModelParams(N=3, gamma=1.0, theta=1.0, K=1.0, kappa=1.0, delta=0)
    family = PressurelessTheta1(lam=1.0, alpha=0.0, a0=1.0, a1=0.5)
    return params, family, Window(0.1, 0.5, 0.1, 2.0)


def pressureless_theta2():
    """Pressureless theta = 2 instance (criterion 4b); the window stays
    well inside the density support (boundary at z = sqrt(12))."""
    params = ModelParams(N=3, gamma=1.0, theta=2.0, K=1.0, kappa=1.0, delta=0)
    family = PressurelessThetaNot1(lam=1.0, alpha=1.0, a0=1.0, a1=0.5)
    return params, family, Window(0.1, 0.5, 0.1, 2.0)


def exact_families():
    """All instances that are exact solutions on their windows."""
    return [
        ("isothermal_gaussian", *isothermal_gaussian()),
        ("polytropic_n1", *polytropic_n1()),
        ("powerlaw_blowup_short", powerlaw_blowup()[0], powerlaw_blowup()[1],
         Window(0.05, 0.2, 0.1, 1.2)),
        ("pressureless_theta1", *pressureless_theta1()),
        ("pressureless_theta2", *pressureless_theta2()),
    ]
