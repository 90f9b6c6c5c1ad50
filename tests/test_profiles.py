"""Density shape construction and evaluation."""

import math

import numpy as np
import pytest

from nssol import (
    ExpQuadratic,
    ModelParams,
    OutOfRangeError,
    PowerRoot,
    TabulatedProfile,
    polytropic_profile,
    powerlaw_profile,
)
from tests.oracles import rk4_first_order


# --- power-root closed form ------------------------------------------------

def test_power_root_basic_value():
    prof = PowerRoot(0.0, 1.0, 1.0)  # y = z**2/2 + 1
    y, dy = prof.evaluate(2.0)
    assert y == pytest.approx(3.0, abs=1e-14)
    assert dy == pytest.approx(2.0, abs=1e-14)
    assert prof.evaluate(3.0) == (pytest.approx(5.5), pytest.approx(3.0))


def test_power_root_constant_when_xi_zero():
    prof = PowerRoot(2.0, 0.0, 5.0)
    for z in (0.0, 0.7, 3.0, 10.0):
        y, dy = prof.evaluate(z)
        assert y == pytest.approx(5.0, abs=1e-12)
        assert dy == 0.0


def test_power_root_vacuum_clip():
    # n_exp=-3, xi=1, alpha=1: radicand = 1 - z**2, zero at z=1
    prof = PowerRoot(-3.0, 1.0, 1.0)
    assert prof.evaluate(1.0) == (0.0, 0.0)
    assert prof.evaluate(2.0) == (0.0, 0.0)
    y, _ = prof.evaluate(0.5)
    assert y > 0.0 and math.isfinite(y)


def test_power_root_rejects_excluded_exponent():
    with pytest.raises(ValueError):
        PowerRoot(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PowerRoot(0.0, 1.0, 0.0)  # alpha must be positive


def test_power_root_ode_identity_sweep():
    # dy/dz * y**n == xi*z on the support, using the analytic derivative
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 2000:
        n_exp = rng.uniform(-0.9, 3.0)
        xi = rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(0.1, 5.0)
        z = rng.uniform(0.0, 3.0)
        prof = PowerRoot(n_exp, xi, alpha)
        if not prof.in_support(z):
            continue
        y, dy = prof.evaluate(z)
        assert abs(dy * y ** n_exp - xi * z) < 1e-9 * (1.0 + abs(xi * z))
        checked += 1


def test_power_root_never_negative_or_non_finite():
    prof = PowerRoot(-0.5, -1.5, 2.0)
    zs = np.linspace(0.0, 10.0, 2001)
    for z in zs:
        y, dy = prof.evaluate(z)
        assert y >= 0.0 and math.isfinite(y) and math.isfinite(dy)


def test_support_radius_bisection():
    prof = PowerRoot(-3.0, 1.0, 1.0)  # radicand 1 - z**2
    assert prof.support_radius() == pytest.approx(1.0, abs=1e-10)

    # pressureless theta=1/2 shape with lam=-1: xi = 2/3 for N=3, kappa=1,
    # radicand 1 - z**2/6, boundary sqrt(6)
    xi = -(-1.0) / (3.0 * 1.0 * 0.5)
    prof2 = PowerRoot(0.5 - 2.0, xi, 1.0)
    assert prof2.support_radius() == pytest.approx(math.sqrt(6.0), abs=1e-10)

    grows = PowerRoot(0.0, 1.0, 1.0)
    assert grows.support_radius() is None


# --- exponential-quadratic shape -------------------------------------------

def test_isothermal_profile_values():
    flat = ExpQuadratic(1.0, 0.0, 0.0)
    assert flat.evaluate(3.7) == (1.0, 0.0)

    prof = ExpQuadratic(2.0, -1.0, 0.0)
    y, dy = prof.evaluate(1.0)
    assert y == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    assert dy == pytest.approx(-2.0 * y, rel=1e-12)

    vacuum = ExpQuadratic(0.0, 5.0, 3.0)
    assert vacuum.evaluate(0.3) == (0.0, 0.0)

    with pytest.raises(ValueError):
        ExpQuadratic(-1.0, 0.0, 0.0)


# --- polytropic shape -------------------------------------------------------

def test_polytropic_profile_values():
    prof = polytropic_profile(2.0, 1.0)  # y = z**2/2 + 1
    assert prof.evaluate(2.0)[0] == pytest.approx(3.0, abs=1e-14)
    assert polytropic_profile(3.0, 1.0).evaluate(0.0)[0] == pytest.approx(1.0)
    assert polytropic_profile(3.0, 2.0).evaluate(2.0)[0] == pytest.approx(
        math.sqrt(8.0), rel=1e-14)
    with pytest.raises(ValueError):
        polytropic_profile(1.0, 1.0)


def test_polytropic_monotone_growth():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = rng.uniform(1.05, 4.0)
        alpha = rng.uniform(0.2, 3.0)
        prof = polytropic_profile(theta, alpha)
        zs = np.linspace(0.0, 5.0, 301)
        ys = [prof.evaluate(z)[0] for z in zs]
        assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:]))
        assert all(y >= alpha - 1e-12 for y in ys)


# --- tabulated shape from the implicit profile ODE --------------------------

def _blowup_params():
    return ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, K=1.0, kappa=1.0,
                       delta=1)


def test_powerlaw_profile_constant_when_s_is_one():
    # gamma = 1 forces s = 1, so the forcing term vanishes and y == alpha
    params = ModelParams(N=2, gamma=1.0, theta=0.5, delta=1)
    prof = powerlaw_profile(params, m=1.0, sigma=1.0, alpha=2.0, s=1.0,
                            z_max=5.0)
    for z in (0.0, 1.3, 5.0):
        y, dy = prof.evaluate(z)
        assert y == pytest.approx(2.0, abs=1e-12)
        assert abs(dy) < 1e-12


def test_powerlaw_profile_constant_when_m_zero():
    prof = powerlaw_profile(_blowup_params(), m=0.0, sigma=1.0, alpha=1.5,
                            s=0.5, z_max=5.0)
    assert prof.evaluate(4.0)[0] == pytest.approx(1.5, abs=1e-12)


def test_powerlaw_profile_matches_fixed_step_oracle():
    # m = -1 gives a strictly increasing shape; the value at z = 1 is
    # cross-checked against a brute-force fixed-step RK4 run at h = 1e-6
    params = _blowup_params()
    s = 0.5
    prof = powerlaw_profile(params, m=-1.0, sigma=1.0, alpha=1.0, s=s,
                            z_max=2.0)

    def coeff(y):
        return (10.0 / 3.0) * y ** (-1.0 / 3.0) + 3.0 / y

    def slope(z, y):
        return 0.5 * z / coeff(y)

    y_oracle = rk4_first_order(slope, 1.0, 1.0, 1e-6)
    y_pkg, _ = prof.evaluate(1.0)
    assert y_pkg == pytest.approx(y_oracle, rel=1e-8)

    zs = np.linspace(0.0, 2.0, 101)
    ys = [prof.evaluate(z)[0] for z in zs]
    assert all(b > a for a, b in zip(ys, ys[1:]))  # strictly increasing


def test_powerlaw_profile_singular_start_truncates():
    # c(alpha) = K*gamma/s - m*N*kappa*theta = 10/3 - 3m vanishes at m=10/9
    params = _blowup_params()
    prof = powerlaw_profile(params, m=10.0 / 9.0, sigma=1.0, alpha=1.0, s=0.5)
    assert prof.truncated
    assert "singular" in prof.truncation_reason
    with pytest.raises(OutOfRangeError):
        prof.evaluate(0.5)


def test_powerlaw_profile_out_of_range():
    prof = powerlaw_profile(_blowup_params(), m=-1.0, sigma=1.0, alpha=1.0,
                            s=0.5, z_max=2.0)
    with pytest.raises(OutOfRangeError):
        prof.evaluate(2.5)


def test_tabulated_interpolation_order_at_least_four():
    # value interpolation error must drop ~16x when the spacing halves
    params = _blowup_params()
    build = lambda dz: powerlaw_profile(params, m=-1.0, sigma=1.0, alpha=1.0,
                                        s=0.5, z_max=4.0, dz=dz)
    reference = build(1e-3)
    probes = np.linspace(0.1, 3.9, 57) + 0.0005  # off-node points
    errs = []
    for dz in (0.4, 0.2, 0.1):
        prof = build(dz)
        err = max(abs(prof.evaluate(z)[0] - reference.evaluate(z)[0])
                  for z in probes)
        errs.append(err)
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 3.5
    assert order2 > 3.5


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedProfile([0.5, 1.0], [1.0, 1.0], [0.0, 0.0])  # must start at 0
    with pytest.raises(ValueError):
        TabulatedProfile([0.0, 1.0], [-1.0, 1.0], [0.0, 0.0])  # y(0) > 0
    with pytest.raises(ValueError):
        TabulatedProfile([0.0, 1.0, 0.5], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])


def test_negative_z_maps_to_absolute_value():
    prof = polytropic_profile(2.0, 1.0)
    assert prof.evaluate(-2.0) == prof.evaluate(2.0)


def test_growing_shapes_overflow_cleanly():
    from nssol import DomainError

    grower = ExpQuadratic(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        grower.evaluate(200.0)  # exp(4e4) exceeds float range
    shrinker = ExpQuadratic(1.0, -1.0, 0.0)
    assert shrinker.evaluate(200.0)[0] == 0.0  # clean underflow to vacuum
