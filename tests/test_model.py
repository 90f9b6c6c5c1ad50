"""Parameter and family validation."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nssol import (
    DomainError,
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
from nssol.model import FAMILIES


def test_powerlaw_ok_with_derived_constants():
    params = ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, K=1.0, kappa=1.0,
                         delta=1)
    family = WithPressurePowerLaw(m=1.0, n=1.0, sigma=1.0, alpha=1.0)
    out = validate(params, family)
    assert out.ok
    assert derived_s(params) == pytest.approx(0.5, abs=1e-15)
    # gamma/2 + 1/2 - 1/N = 5/6 + 1/2 - 1/3 = 1
    assert theta_required(params) == pytest.approx(1.0, abs=1e-15)


def test_powerlaw_gamma1_gives_s_equal_one():
    params = ModelParams(N=2, gamma=1.0, theta=0.5, delta=1)
    family = WithPressurePowerLaw(m=1.0, n=1.0, sigma=1.0, alpha=1.0)
    out = validate(params, family)
    assert out.ok
    assert derived_s(params) == 1.0  # 2/(2 - 2 + 2)


def test_isothermal_requires_theta_gamma_one():
    params = ModelParams(N=3, gamma=2.0, theta=1.0, delta=1)
    family = WithPressureIsothermal(A=1.0, B=1.0, C=0.0, a0=1.0, a1=0.0)
    out = validate(params, family)
    assert not out.ok
    assert any("theta=gamma=1" in v for v in out.violations)


def test_isothermal_refuses_negative_a():
    params = ModelParams(N=3, gamma=1.0, theta=1.0, delta=1)
    out = validate(params, WithPressureIsothermal(A=-1.0, B=-1.0, C=0.0, a0=1.0, a1=0.0))
    assert out.violations == ("A must be >= 0, got -1.0",)
    assert validate(params, WithPressureIsothermal(A=0.0, B=-1.0, C=0.0, a0=1.0,
                                                   a1=0.0)).ok


def test_derived_s_values():
    assert derived_s(ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0)) == pytest.approx(0.5)
    assert derived_s(ModelParams(N=1, gamma=1.0, theta=1.0)) == 1.0
    # N=3, gamma=3: s = 2/(9-3+2) = 0.25, and the second closed form with
    # theta = 2 - 1/3 gives 1/((3 - 5/3)*3) = 0.25 as well
    s = derived_s(ModelParams(N=3, gamma=3.0, theta=2.0 - 1.0 / 3.0))
    assert s == pytest.approx(0.25, rel=1e-14)
    assert 1.0 / ((3.0 - (2.0 - 1.0 / 3.0)) * 3) == pytest.approx(s, rel=1e-14)


def test_derived_s_domain_guard():
    bad = ModelParams(N=3, gamma=-2.0, theta=1.0)  # gamma*N - N + 2 = -7
    with pytest.raises(DomainError):
        derived_s(bad)


def test_s_identity_sweep():
    # both closed forms of s agree to 1e-12 relative once theta sits at
    # its required value
    for N in range(1, 7):
        for gamma in np.linspace(1.0, 3.0, 41):
            theta = gamma / 2.0 + 0.5 - 1.0 / N
            s = 2.0 / (gamma * N - N + 2.0)
            s_alt = 1.0 / ((gamma - theta) * N)
            assert abs(s - s_alt) < 1e-12 * s


def test_validate_is_pure_and_idempotent():
    params = ModelParams(N=3, gamma=2.0, theta=1.0, delta=1)
    family = WithPressureIsothermal(A=1.0, B=1.0, C=0.0, a0=1.0, a1=0.0)
    first = validate(params, family)
    second = validate(params, family)
    assert first == second


def test_bad_params_all_reported():
    params = ModelParams(N=0, gamma=0.5, theta=-1.0, K=-1.0, kappa=0.0, delta=2)
    family = PressurelessTheta1(lam=1.0, alpha=0.0, a0=1.0, a1=0.0)
    out = validate(params, family)
    assert not out.ok
    joined = "\n".join(out.violations)
    for needle in ("N must be", "gamma must be", "theta must be",
                   "K must be", "kappa must be", "delta must be"):
        assert needle in joined


def test_delta_mismatch_reported():
    params = ModelParams(N=3, gamma=1.0, theta=1.0, delta=1)
    family = PressurelessTheta1(lam=1.0, alpha=0.0, a0=1.0, a1=0.0)
    out = validate(params, family)
    assert not out.ok
    assert any("delta" in v for v in out.violations)


def test_powerlaw_constraint_bounds():
    params = ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, delta=1)
    ok = validate(params, WithPressurePowerLaw(m=-2.0, n=1.0, sigma=1.0, alpha=1.0))
    assert ok.ok  # m < 0 is legitimate (collapsing scaling)
    assert 0.0 < derived_s(params) <= 1.0
    assert params.theta >= 1.0 - 1.0 / params.N

    for bad_family in (
            WithPressurePowerLaw(m=1.0, n=-1.0, sigma=1.0, alpha=1.0),
            WithPressurePowerLaw(m=1.0, n=1.0, sigma=0.0, alpha=1.0),
            WithPressurePowerLaw(m=1.0, n=1.0, sigma=1.0, alpha=0.0)):
        out = validate(params, bad_family)
        assert not out.ok


def test_powerlaw_wrong_theta_reported():
    params = ModelParams(N=3, gamma=5.0 / 3.0, theta=1.2, delta=1)
    out = validate(params, WithPressurePowerLaw(m=1.0, n=1.0, sigma=1.0, alpha=1.0))
    assert not out.ok
    assert any("gamma/2 + 1/2 - 1/N" in v for v in out.violations)


def test_powerlaw_theta_below_its_floor_gets_one_message():
    # gamma >= 1 keeps gamma/2 + 1/2 - 1/N >= 1 - 1/N, so the equality
    # alone refuses a theta below that floor, here 1/2 < 2/3
    params = ModelParams(N=3, gamma=1.0, theta=0.5, delta=1)
    out = validate(params, WithPressurePowerLaw(m=1.0, n=1.0, sigma=1.0, alpha=1.0))
    assert out.violations == (
        f"theta must equal gamma/2 + 1/2 - 1/N = {theta_required(params)} for "
        "the power-law family, got theta=0.5",)


def test_polytropic_requires_gamma_above_one():
    params = ModelParams(N=2, gamma=1.0, theta=1.0, delta=1)
    out = validate(params, WithPressurePolytropic(alpha=1.0, a0=1.0, a1=0.0))
    assert not out.ok


def test_pressureless_theta_split():
    p1 = ModelParams(N=3, gamma=1.0, theta=2.0, delta=0)
    out = validate(p1, PressurelessTheta1(lam=1.0, alpha=0.0, a0=1.0, a1=0.0))
    assert not out.ok  # needs theta = 1

    p2 = ModelParams(N=3, gamma=1.0, theta=1.0, delta=0)
    out = validate(p2, PressurelessThetaNot1(lam=1.0, alpha=1.0, a0=1.0, a1=0.0))
    assert not out.ok  # needs theta != 1


def test_theta_required_helper():
    assert theta_required(ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0)) == pytest.approx(1.0)
    assert theta_required(ModelParams(N=2, gamma=1.0, theta=0.5)) == pytest.approx(0.5)


def test_non_finite_inputs_reported():
    nan, inf = float("nan"), float("inf")
    params = ModelParams(N=3, gamma=1.0, theta=1.0)
    for family in (WithPressureIsothermal(A=nan, B=-1.0, C=0.0, a0=1.0, a1=0.0),
                   WithPressureIsothermal(A=1.0, B=-1.0, C=0.0, a0=1.0, a1=inf)):
        out = validate(params, family)
        assert not out.ok
        assert any("must be finite" in v for v in out.violations)
    out = validate(ModelParams(N=3, gamma=nan, theta=nan, delta=0),
                   PressurelessThetaNot1(lam=1.0, alpha=1.0, a0=1.0, a1=0.0))
    assert not out.ok
    assert sum("must be finite" in v for v in out.violations) == 2
    # an int past the float range converts to no finite float: the power
    # law's arithmetic on N would overflow, the isothermal build on A
    huge = 10**400
    for params, family in (
            (ModelParams(N=huge, gamma=5.0 / 3.0, theta=1.0),
             WithPressurePowerLaw(m=-1.0, n=1.0, sigma=1.0, alpha=1.0)),
            (params, WithPressureIsothermal(A=huge, B=-1.0, C=0.0, a0=1.0, a1=0.0))):
        out = validate(params, family)
        assert not out.ok
        assert [v for v in out.violations if "must be finite" in v] == [
            f"{'N' if params.N == huge else 'A'} must be finite, got {huge!r}"]
    # a constant that is not a number is reported before any rule compares it
    iso = WithPressureIsothermal(A=1.0, B=-1.0, C=0.0, a0=1.0, a1=0.0)
    for params, family, violation in (
            (ModelParams(N=3, gamma=1.0, theta=1.0), replace(iso, A=None),
             "A must be a number, got None"),
            (ModelParams(N=3, gamma="x", theta=1.0), iso, "gamma must be a number, got 'x'"),
            (ModelParams(N=3, gamma=1.0, theta=1.0, delta=True), iso,
             "delta must be a number, got True"),
            (ModelParams(N=3, gamma=1.0, theta=1.0), "x", "unknown family type str")):
        out = validate(params, family)
        assert not out.ok and out.violations == (violation,)


def test_power_law_family_valid_at_large_n():
    # theta = gamma/2 + 1/2 - 1/N exactly as required; gamma - theta
    # cancels at large N, which must not make s, or validate, refuse it
    for N in (10**6, 10**9):
        params = ModelParams(N=N, gamma=1.0, theta=1.0 - 1.0 / N)
        assert params.theta == theta_required(params)
        assert derived_s(params) == 1.0
        out = validate(params, WithPressurePowerLaw(m=1.0, n=1.0, sigma=1.0, alpha=1.0))
        assert out.ok, out.violations


def test_power_law_s_of_an_overflowing_gamma_n_is_refused():
    # gamma*N - N + 2 >= 2 in exact arithmetic, but gamma*N overflows to
    # inf here and s = 2/inf = 0, which the closed-form scaling refuses
    params = ModelParams(N=2, gamma=1e308, theta=5e307)
    assert params.theta == theta_required(params) and derived_s(params) == 0.0
    out = validate(params, WithPressurePowerLaw(m=-1.0, n=1.0, sigma=1.0, alpha=1.0))
    assert out.violations == ("similarity exponent s=0.0 outside (0, 1]",)


_special = st.sampled_from([float("nan"), float("inf"), -float("inf")])
_number = st.one_of(st.floats(-3.0, 3.0), _special,
                    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _inputs(draw):
    params = ModelParams(N=draw(st.integers(-1, 7)), gamma=draw(_number),
                         theta=draw(_number), K=draw(_number),
                         kappa=draw(_number), delta=draw(st.integers(0, 1)))
    cls = draw(st.sampled_from(FAMILIES))
    family = cls(**{f.name: draw(_number) for f in fields(cls)})
    return params, family


@given(_inputs())
def test_validate_is_total_and_refuses_non_finite(inputs):
    params, family = inputs
    out = validate(params, family)
    numbers = [getattr(obj, f.name) for obj in inputs for f in fields(obj)]
    if not all(math.isfinite(x) for x in numbers):
        assert not out.ok
