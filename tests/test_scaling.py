"""Scaling functions: closed form, adaptive integration, event handling."""

import numpy as np
import pytest

from nssol import (
    DomainError,
    PowerLawScaling,
    integrate_isothermal,
    integrate_polytropic,
    integrate_pressureless,
    vanishing_time,
)
from nssol.scaling import EPS_A_FRAC, STATUS_VANISHED, NumericScaling
from tests.oracles import rk4_crossing_time, rk4_second_order


# --- trivial exact cases -----------------------------------------------------

def test_isothermal_b_zero_is_linear():
    fn = integrate_isothermal(B=0.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=2.0,
                              t_end=3.0)
    assert fn.a(3.0) == pytest.approx(7.0, abs=1e-10)
    assert fn.adot(1.7) == pytest.approx(2.0, abs=1e-10)
    assert fn.status == "completed"


def test_pressureless_lambda_zero_is_linear():
    fn = integrate_pressureless(theta=1.0, lam=0.0, N=3, a0=2.0, a1=3.0,
                                t_end=1.0)
    assert fn.a(1.0) == pytest.approx(5.0, abs=1e-10)


def test_pressureless_zero_velocity_is_fixed_point():
    fn = integrate_pressureless(theta=1.0, lam=1.0, N=3, a0=1.0, a1=0.0,
                                t_end=2.0)
    ts = np.linspace(0.0, 2.0, 41)
    assert max(abs(fn.a(t) - 1.0) for t in ts) < 1e-12


def test_zero_initial_data_stays_constant():
    # a1 = 0 with B = 0 (or lam = 0) must leave a exactly at a0
    iso = integrate_isothermal(B=0.0, K=1.0, kappa=1.0, N=3, a0=1.5, a1=0.0,
                               t_end=1.0)
    pl = integrate_pressureless(theta=2.0, lam=0.0, N=3, a0=1.5, a1=0.0,
                                t_end=1.0)
    for fn in (iso, pl):
        assert max(abs(a - 1.5) for a in fn.a_values) < 1e-12


# --- initial acceleration signs ---------------------------------------------

def test_isothermal_initial_acceleration_sign():
    # a'' (0) = -2*B*K/a0: B < 0 expands, B > 0 contracts
    grow = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                                t_end=0.2)
    assert grow.a(0.1) > 1.0
    shrink = integrate_isothermal(B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                                  t_end=0.2)
    assert shrink.a(0.1) < 1.0


def test_polytropic_initial_deceleration():
    # a''(0) = -K*gamma*a0**(N - theta*N - 1) = -2 < 0 here
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=0.0,
                              t_end=0.05)
    assert fn.a(0.01) < 1.0


def test_polytropic_viscous_term_keeps_positive_velocity():
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=2.0,
                              t_end=0.2)
    ts = np.linspace(0.0, 0.2, 21)
    adots = [fn.adot(t) for t in ts]
    assert all(v > 0.0 for v in adots)
    # with a' > 0 the viscous contribution N*kappa*theta*a'*a**(N-tN-2) > 0
    visc = [2.0 * v * fn.a(t) ** (1 - 2 - 2) for t, v in zip(ts, adots)]
    assert all(w > 0.0 for w in visc)


# --- fixed-step oracle agreement ----------------------------------------------

def _iso_accel(B, K, kappa, N):
    return lambda a, ad: -2.0 * B * K / a + 2.0 * B * N * kappa * ad / a ** 2


def _poly_accel(gamma, K, kappa, N):
    theta = gamma
    return lambda a, ad: (-K * gamma * a ** (N - theta * N - 1)
                          + N * kappa * theta * ad * a ** (N - theta * N - 2))


def test_isothermal_matches_rk4_oracle():
    fn = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                              t_end=0.25)
    a_oracle, _ = rk4_second_order(_iso_accel(-1.0, 1.0, 1.0, 3),
                                   1.0, 0.0, 0.25, 1e-6)
    assert abs(fn.a(0.25) - a_oracle) / abs(a_oracle) < 1e-8


def test_polytropic_matches_rk4_oracle():
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=0.0,
                              t_end=0.25)
    a_oracle, _ = rk4_second_order(_poly_accel(2.0, 1.0, 1.0, 1),
                                   1.0, 0.0, 0.25, 1e-6)
    assert abs(fn.a(0.25) - a_oracle) / abs(a_oracle) < 1e-8


def test_pressureless_matches_rk4_oracle():
    fn = integrate_pressureless(theta=2.0, lam=1.0, N=3, a0=1.0, a1=1.0,
                                t_end=1.0)
    accel = lambda a, ad: -1.0 * ad / a ** (3 * 2.0 - 3 + 2)
    a_oracle, _ = rk4_second_order(accel, 1.0, 1.0, 1.0, 1e-6)
    assert abs(fn.a(1.0) - a_oracle) / abs(a_oracle) < 1e-8


# --- vanishing detection -------------------------------------------------------

def test_polytropic_vanishes_with_negative_velocity():
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0,
                              a1=-1.0, t_end=2.0)
    assert fn.status == STATUS_VANISHED
    t_v = vanishing_time(fn)
    assert t_v is not None and 0.0 < t_v < 2.0

    t_oracle = rk4_crossing_time(_poly_accel(2.0, 1.0, 1.0, 1), 1.0, -1.0,
                                 EPS_A_FRAC * 1.0, 1e-6, 2.0)
    assert t_oracle is not None
    assert abs(t_v - t_oracle) < 1e-8

    # trajectory is clipped at the event; evaluating beyond raises
    with pytest.raises(Exception):
        fn.a(t_v + 0.1)


def test_vanished_trajectory_stays_positive_and_small():
    # this collapse is a viscous runaway (a ~ (t_v - t)**(1/3)); it ends
    # once the remaining time to a = 0 is below float resolution, with a
    # tiny but positive final value
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0,
                              a1=-1.0, t_end=2.0)
    assert fn.status == STATUS_VANISHED
    assert fn.a_values.min() > 0.0
    assert fn.a_values.min() < 1e-3
    # a smooth, non-runaway approach to zero does hit the 1e-8 threshold:
    # lam = 0 makes a(t) = 1 - t exactly
    lin = integrate_pressureless(theta=1.0, lam=0.0, N=1, a0=1.0, a1=-1.0,
                                 t_end=2.0)
    assert lin.status == STATUS_VANISHED
    assert lin.vanishing_time == pytest.approx(1.0 - EPS_A_FRAC, abs=1e-9)
    assert lin.a_values.min() >= 0.5 * EPS_A_FRAC
    assert lin.a_values.min() < 10.0 * EPS_A_FRAC


def test_steep_polytropic_collapse_matches_rk4_oracle():
    # N = 3, gamma = theta = 2 collapses so steeply that the step size
    # underflows with a still near 2e-3; the bound a/|a'| < 1e-10 alone
    # must report the vanishing
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=3, a0=1.0,
                              a1=0.0, t_end=1.2)
    assert fn.status == STATUS_VANISHED
    t_oracle = rk4_crossing_time(_poly_accel(2.0, 1.0, 1.0, 3), 1.0, 0.0,
                                 EPS_A_FRAC * 1.0, 1e-6, 1.2)
    assert t_oracle is not None
    assert abs(vanishing_time(fn) - t_oracle) < 1e-8


# --- power-law scaling ----------------------------------------------------------

def test_powerlaw_static():
    fn = PowerLawScaling(sigma=1.0, m=0.0, n=1.0, s=1.0)
    assert fn.a(5.0) == 1.0
    assert fn.adot(5.0) == 0.0


def test_powerlaw_values():
    fn = PowerLawScaling(sigma=2.0, m=1.0, n=1.0, s=0.5)
    assert fn.a(3.0) == pytest.approx(4.0, rel=1e-15)
    assert fn.adot(3.0) == pytest.approx(0.5, rel=1e-15)


def test_powerlaw_domain_error():
    fn = PowerLawScaling(sigma=1.0, m=-1.0, n=2.0, s=0.5)
    with pytest.raises(DomainError):
        fn.a(2.0)  # m*t + n = 0
    with pytest.raises(DomainError):
        fn.adot(3.0)


def test_powerlaw_parameter_validation():
    for bad in (dict(sigma=0.0, m=1.0, n=1.0, s=0.5),
                dict(sigma=1.0, m=1.0, n=0.0, s=0.5),
                dict(sigma=1.0, m=1.0, n=1.0, s=0.0),
                dict(sigma=1.0, m=1.0, n=1.0, s=1.5)):
        with pytest.raises(ValueError):
            PowerLawScaling(**bad)


def test_vanishing_time_dispatch():
    assert vanishing_time(PowerLawScaling(1.0, -1.0, 2.0, 0.5)) == pytest.approx(2.0)
    assert vanishing_time(PowerLawScaling(1.0, 1.0, 2.0, 0.5)) is None
    assert vanishing_time(PowerLawScaling(1.0, 0.0, 2.0, 0.5)) is None
    completed = integrate_pressureless(theta=1.0, lam=0.0, N=1, a0=1.0, a1=0.0,
                                       t_end=0.5)
    assert vanishing_time(completed) is None
    with pytest.raises(TypeError):
        vanishing_time(object())


def test_scalings_state_their_own_facts():
    # status, t_end and the blowup record, read without a type switch
    collapsing = PowerLawScaling(1.0, -1.0, 2.0, 0.5)
    assert collapsing.status == "completed"
    assert collapsing.t_end == 2.0 * (1.0 - 1e-9)
    assert collapsing.blowup() == {"vanishing_time": 2.0}
    assert PowerLawScaling(1.0, 0.0, 2.0, 0.5).t_end == np.inf
    fn = integrate_isothermal(B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                              t_end=1.5)
    assert fn.status == STATUS_VANISHED
    assert fn.t_end == fn.ts[-1] < 0.42
    assert list(fn.blowup().items()) == [("vanishing_time", fn.vanishing_time),
                                         ("status", STATUS_VANISHED),
                                         ("searched_until", fn.t_end)]
    with pytest.raises(ValueError):
        fn.a_values[0] = 2.0


# --- dense output consistency ----------------------------------------------------

def test_stored_adot_matches_centered_difference_of_a():
    fn = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                              t_end=0.5)
    ts, avals, advals = fn.ts, fn.a_values, fn.adot_values
    dt = ts[1] - ts[0]

    def err(k):  # centered difference of a over k node spacings
        diffs = (avals[2 * k:] - avals[:-2 * k]) / (2.0 * k * dt)
        return np.max(np.abs(diffs - advals[k:-k]))

    assert err(1) < 1e-5  # O(dt^2) with a''' of order one
    assert 2.5 < err(2) / err(1) < 6.0  # second-order rate in the spacing


def test_interpolated_values_between_nodes():
    fn = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                              t_end=0.4)
    accel = _iso_accel(-1.0, 1.0, 1.0, 3)
    # probe times sit between stored mesh nodes and are exact multiples
    # of the oracle step
    for t in (0.12345, 0.22715, 0.39995):
        a_oracle, ad_oracle = rk4_second_order(accel, 1.0, 0.0, t, 1e-5)
        assert fn.a(t) == pytest.approx(a_oracle, rel=1e-7)
        assert fn.adot(t) == pytest.approx(ad_oracle, rel=1e-6, abs=1e-9)


def test_numeric_scaling_rejects_bad_trajectories():
    with pytest.raises(ValueError):
        NumericScaling([0.0, 0.1, 0.05], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0], "completed")
    with pytest.raises(ValueError):
        NumericScaling([0.0, 0.1], [1.0, -1.0], [0.0, 0.0], [0.0, 0.0],
                       "completed")
