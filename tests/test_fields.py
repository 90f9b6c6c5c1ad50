"""Field assembly from shapes and scalings."""

import math

import numpy as np
import pytest

from nssol import (
    ExpQuadratic,
    ModelParams,
    OutOfRangeError,
    PowerLawScaling,
    PowerRoot,
    PressurelessThetaNot1,
    build_solution,
    eval_grid,
    eval_point,
    integrate_pressureless,
    powerlaw_profile,
    vanishing_time,
)


def _static_scaling():
    return PowerLawScaling(sigma=1.0, m=0.0, n=1.0, s=1.0)


def test_eval_point_flat_static():
    prof = ExpQuadratic(1.0, 0.0, 0.0)
    rho, u = eval_point(prof, _static_scaling(), 3, 2.5, 1.7)
    assert rho == 1.0
    assert u == 0.0


def test_eval_point_polytropic_static():
    prof = PowerRoot(2.0 - 2.0, 1.0, 1.0)
    rho, u = eval_point(prof, _static_scaling(), 1, 0.0, 2.0)
    assert rho == pytest.approx(3.0, abs=1e-14)
    assert u == 0.0


def test_eval_point_linear_scaling():
    # a(t) = 1 + 2t via the trivial pressureless ODE with lam = 0
    prof = ExpQuadratic(1.0, 0.0, 0.0)
    scal = integrate_pressureless(theta=1.0, lam=0.0, N=2, a0=1.0, a1=2.0,
                                  t_end=1.5)
    rho, u = eval_point(prof, scal, 2, 1.0, 3.0)
    assert rho == pytest.approx(1.0 / 9.0, rel=1e-10)
    assert u == pytest.approx(2.0, rel=1e-10)


def test_eval_point_rejects_negative_radius():
    prof = ExpQuadratic(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        eval_point(prof, _static_scaling(), 3, 0.0, -1.0)


def test_grid_matches_point_evaluation():
    prof = PowerRoot(2.0 - 2.0, 1.0, 1.0)
    scal = integrate_pressureless(theta=1.0, lam=0.5, N=1, a0=1.0, a1=0.3,
                                  t_end=1.0)
    grid = eval_grid(prof, scal, 1, [0.4], [0.8])
    rho, u = eval_point(prof, scal, 1, 0.4, 0.8)
    assert grid.rho[0, 0] == rho
    assert grid.u[0, 0] == u


def test_velocity_linearity_across_grid():
    prof = ExpQuadratic(1.0, -0.5, 0.2)
    scal = integrate_pressureless(theta=1.0, lam=1.0, N=3, a0=1.0, a1=0.7,
                                  t_end=1.0)
    ts = np.linspace(0.1, 0.9, 7)
    rs = np.linspace(0.2, 2.0, 11)
    grid = eval_grid(prof, scal, 3, ts, rs)
    for i, t in enumerate(ts):
        ratio = scal.adot(t) / scal.a(t)
        for j, r in enumerate(rs):
            assert abs(grid.u[i, j] / r - ratio) < 1e-12 * (1.0 + abs(ratio))


def test_self_similar_collapse():
    # rho(t, r)*a(t)**N depends only on z = r/a(t)
    params = ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, delta=1)
    prof = powerlaw_profile(params, m=-1.0, sigma=1.0, alpha=1.0, s=0.5)
    scal = PowerLawScaling(1.0, -1.0, 1.0, 0.5)
    N = 3
    t1, t2 = 0.1, 0.4
    a1, a2 = scal.a(t1), scal.a(t2)
    z = 0.9
    r1, r2 = z * a1, z * a2
    rho1, _ = eval_point(prof, scal, N, t1, r1)
    rho2, _ = eval_point(prof, scal, N, t2, r2)
    v1 = rho1 * a1 ** N
    v2 = rho2 * a2 ** N
    assert abs(v1 - v2) < 1e-12 * abs(v1)


def test_vacuum_region_is_exactly_zero():
    # pressureless theta in (0,1) with lam < 0 has support |z| < z* with
    # z* = sqrt(2*N*kappa*theta*alpha**(theta-1)/((1-theta)*|lam|))
    N, kappa, theta, lam, alpha = 3, 1.0, 0.5, -1.0, 1.0
    z_star = math.sqrt(2 * N * kappa * theta * alpha ** (theta - 1)
                       / ((1 - theta) * abs(lam)))
    assert z_star == pytest.approx(math.sqrt(6.0), rel=1e-15)

    params = ModelParams(N=N, gamma=1.0, theta=theta, kappa=kappa, delta=0)
    family = PressurelessThetaNot1(lam=lam, alpha=alpha, a0=1.0, a1=0.0)
    sol = build_solution(params, family, t_end=0.5)
    assert sol.profile.support_radius() == pytest.approx(z_star, abs=1e-10)

    rs = np.linspace(0.1, 4.0, 40)
    grid = eval_grid(sol.profile, sol.scaling, N, [0.2], rs)
    a = sol.scaling.a(0.2)
    for j, r in enumerate(rs):
        if r / a > z_star:
            assert grid.rho[0, j] == 0.0
        elif r / a < z_star - 1e-9:
            assert grid.rho[0, j] > 0.0


def test_grid_validation():
    prof = ExpQuadratic(1.0, 0.0, 0.0)
    scal = _static_scaling()
    with pytest.raises(ValueError):
        eval_grid(prof, scal, 3, [0.1, 0.2], [0.0, 1.0])  # r_min must be > 0
    with pytest.raises(ValueError):
        eval_grid(prof, scal, 3, [0.2, 0.1], [0.5, 1.0])  # t not increasing
    with pytest.raises(ValueError):
        eval_grid(prof, scal, 3, [0.1, 0.2], [1.0, 0.5])  # r not increasing
    with pytest.raises(ValueError):
        eval_grid(prof, scal, 3, [], [1.0])


def test_grid_failure_names_offending_point():
    params = ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, delta=1)
    prof = powerlaw_profile(params, m=-1.0, sigma=1.0, alpha=1.0, s=0.5,
                            z_max=1.0)
    scal = PowerLawScaling(1.0, -1.0, 1.0, 0.5)
    with pytest.raises(OutOfRangeError) as err:
        eval_grid(prof, scal, 3, [0.1], [0.5, 2.0])  # z = 2/a > z_max
    assert "r=2.0" in str(err.value)


def test_grid_immutable_and_finite():
    prof = ExpQuadratic(2.0, -1.0, 0.0)
    scal = integrate_pressureless(theta=1.0, lam=0.3, N=3, a0=1.0, a1=0.2,
                                  t_end=1.0)
    grid = eval_grid(prof, scal, 3, np.linspace(0.1, 0.9, 5),
                     np.linspace(0.1, 2.0, 7))
    assert np.all(grid.rho >= 0.0)
    assert np.all(np.isfinite(grid.rho))
    assert np.all(np.isfinite(grid.u))
    with pytest.raises(ValueError):
        grid.rho[0, 0] = 99.0


def test_grid_leaves_caller_arrays_writeable():
    ts, rs = np.linspace(0.1, 0.9, 3), np.linspace(0.5, 1.0, 4)
    grid = eval_grid(ExpQuadratic(1.0, -1.0, 0.0),
                     PowerLawScaling(1.0, 1.0, 1.0, 0.5), 3, ts, rs)
    ts[0] = 0.0
    rs[0] = 0.0
    assert grid.t_values[0] == 0.1 and grid.r_values[0] == 0.5
    with pytest.raises(ValueError):
        grid.t_values[0] = 0.0


def test_center_density_grows_unbounded_before_blowup():
    # collapsing power-law scaling: rho(t, 0) = alpha/a(t)**N is strictly
    # increasing and exceeds 1e6 before t* = 1
    params = ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, delta=1)
    prof = powerlaw_profile(params, m=-1.0, sigma=1.0, alpha=1.0, s=0.5)
    scal = PowerLawScaling(1.0, -1.0, 1.0, 0.5)
    t_star = vanishing_time(scal)
    assert t_star == pytest.approx(1.0, abs=1e-15)
    ts = np.linspace(0.0, 0.999, 25)
    dens = [eval_point(prof, scal, 3, t, 0.0)[0] for t in ts]
    assert all(b > a for a, b in zip(dens, dens[1:]))
    t_late = 1.0 - 1e-5
    rho_late, _ = eval_point(prof, scal, 3, t_late, 0.0)
    assert rho_late > 1e6


def test_field_at_infinite_radius_is_refused():
    from nssol import DomainError
    from tests.cases import isothermal_gaussian

    params, family, window = isothermal_gaussian()
    field = build_solution(params, family, t_end=window.t_max).field()
    with pytest.raises(DomainError, match=r"\(t=0\.2, r=inf\)"):
        field(0.2, math.inf)
