"""Family-to-solution assembly."""

import pytest

from nssol import (
    ModelParams,
    PressurelessTheta1,
    PressurelessThetaNot1,
    WithPressureIsothermal,
    WithPressurePolytropic,
    WithPressurePowerLaw,
    build_solution,
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
