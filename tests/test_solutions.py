"""Family-to-solution assembly."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssol import (
    ModelParams,
    NssolError,
    PressurelessTheta1,
    PressurelessThetaNot1,
    WithPressureIsothermal,
    WithPressurePolytropic,
    WithPressurePowerLaw,
    build_solution,
    theta_required,
    validate,
)
from nssol.profiles import ExpQuadratic, ImplicitProfile, PowerRoot
from nssol.scaling import NumericScaling, PowerLawScaling


def test_each_family_assembles():
    cases = [
        (ModelParams(N=3, gamma=1.0, theta=1.0, delta=1),
         WithPressureIsothermal(A=1.0, B=-1.0, C=0.0, a0=1.0, a1=0.0),
         ExpQuadratic, NumericScaling),
        (ModelParams(N=1, gamma=2.0, theta=2.0, delta=1),
         WithPressurePolytropic(alpha=1.0, a0=1.0, a1=0.5),
         PowerRoot, NumericScaling),
        (ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, delta=1),
         WithPressurePowerLaw(m=-1.0, n=1.0, sigma=1.0, alpha=1.0),
         ImplicitProfile, PowerLawScaling),
        (ModelParams(N=3, gamma=1.0, theta=1.0, delta=0),
         PressurelessTheta1(lam=1.0, alpha=0.0, a0=1.0, a1=0.5),
         ExpQuadratic, NumericScaling),
        (ModelParams(N=3, gamma=1.0, theta=2.0, delta=0),
         PressurelessThetaNot1(lam=1.0, alpha=1.0, a0=1.0, a1=0.5),
         PowerRoot, NumericScaling),
    ]
    for params, family, prof_type, scal_type in cases:
        sol = build_solution(params, family, t_end=0.3)
        assert isinstance(sol.profile, prof_type)
        assert isinstance(sol.scaling, scal_type)
        assert sol.family is family
        rho, u = sol.field()(0.1, 0.5)
        assert rho >= 0.0


def test_invalid_combination_raises_with_violations():
    params = ModelParams(N=3, gamma=2.0, theta=1.0, delta=1)
    family = WithPressureIsothermal(A=1.0, B=1.0, C=0.0, a0=1.0, a1=0.0)
    with pytest.raises(ValueError) as err:
        build_solution(params, family, t_end=0.5)
    assert "theta=gamma=1" in str(err.value)


def test_pressureless_theta1_shape_folds_exponent():
    # shape must be exp(lam/(2*N*kappa)*z**2 + alpha)
    params = ModelParams(N=3, gamma=1.0, theta=1.0, kappa=2.0, delta=0)
    family = PressurelessTheta1(lam=3.0, alpha=0.7, a0=1.0, a1=0.0)
    sol = build_solution(params, family, t_end=0.2)
    assert isinstance(sol.profile, ExpQuadratic)
    assert sol.profile.A == 1.0
    assert sol.profile.B == pytest.approx(3.0 / 12.0)
    assert sol.profile.C == pytest.approx(0.7)


def test_pressureless_shape_sign_convention():
    # theta != 1 shape uses xi = -lam/(N*kappa*theta)
    params = ModelParams(N=3, gamma=1.0, theta=2.0, delta=0)
    family = PressurelessThetaNot1(lam=1.0, alpha=1.0, a0=1.0, a1=0.0)
    sol = build_solution(params, family, t_end=0.2)
    assert sol.profile.xi == pytest.approx(-1.0 / 6.0)
    assert sol.profile.n_exp == pytest.approx(0.0)


@st.composite
def _valid_instances(draw):
    """(params, family) of a random valid instance of one of the five
    families, over moderate constants; either sign of a1 (or m), so
    collapses as well as expansions."""
    def u(lo, hi):
        return draw(st.floats(lo, hi))

    N, K, kappa = draw(st.sampled_from([1, 2, 3])), u(0.5, 2.0), u(0.5, 2.0)
    start = dict(a0=u(0.5, 2.0), a1=u(-1.5, 1.5))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        gamma = theta = 1.0
        family = WithPressureIsothermal(A=u(0.0, 2.0), B=u(-2.0, 2.0), C=u(-1.0, 1.0), **start)
    elif kind == 1:
        gamma = theta = u(1.05, 3.0)
        family = WithPressurePolytropic(alpha=u(0.2, 3.0), **start)
    elif kind == 2:
        # theta = gamma/2 + 1/2 - 1/N must be > 0, and at N = 1 it is
        # (gamma - 1)/2, which rounds to 0 for gamma within an ulp of 1
        gamma = u(1.05 if N == 1 else 1.0, 3.0)
        theta = theta_required(ModelParams(N=N, gamma=gamma, theta=1.0))
        family = WithPressurePowerLaw(m=u(-2.0, 2.0), n=u(0.2, 2.0), sigma=u(0.5, 2.0),
                                      alpha=u(0.2, 3.0))
    elif kind == 3:
        gamma, theta = 1.0, 1.0
        family = PressurelessTheta1(lam=u(-2.0, 2.0), alpha=u(-1.0, 1.0), **start)
    else:
        gamma, theta = 1.0, draw(st.one_of(st.floats(0.3, 0.95), st.floats(1.05, 3.0)))
        family = PressurelessThetaNot1(lam=u(-2.0, 2.0), alpha=u(0.2, 3.0), **start)
    params = ModelParams(N=N, gamma=gamma, theta=theta, K=K, kappa=kappa,
                         delta=family.delta)
    assert validate(params, family).ok, (params, family)
    return params, family


@settings(max_examples=60, deadline=None)
@given(instance=_valid_instances(),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 5.0)),
                       min_size=1, max_size=8))
def test_a_scalar_field_point_is_finite_and_non_negative_or_refused(instance, points):
    # a float (t, r) in [0, t_end] of the built scaling, a power law's
    # t_end short of its vanishing time included
    params, family = instance
    try:
        field = build_solution(params, family, t_end=1.0).field()
    except NssolError:
        return
    t_end = min(1.0, field.scaling.t_end)
    for frac, r in points:
        try:
            rho, u = field(frac * t_end, r)
        except NssolError:
            continue
        assert type(rho) is float and type(u) is float, (rho, u)
        assert math.isfinite(rho) and rho >= 0.0 and math.isfinite(u), (rho, u)
