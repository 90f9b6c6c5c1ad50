"""Scaling functions: closed form, adaptive integration, event handling."""

import re

import numpy as np
import pytest

from nssol import (
    DomainError,
    OutOfRangeError,
    PowerLawScaling,
    build_solution,
    scaling,
    vanishing_time,
)
from nssol.scaling import (
    EPS_A_FRAC,
    STATUS_VANISHED,
    NumericScaling,
    integrate_isothermal,
    integrate_polytropic,
    integrate_pressureless,
)
from tests import cases
from tests.oracles import rk45_scaling, rk4_crossing_time, rk4_second_order


# --- trivial exact cases -----------------------------------------------------

def test_isothermal_b_zero_is_linear():
    fn = integrate_isothermal(B=0.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=2.0,
                              t_end=3.0)
    assert fn.pair(3.0)[0] == pytest.approx(7.0, abs=1e-10)
    assert fn.pair(1.7)[1] == pytest.approx(2.0, abs=1e-10)
    assert fn.status == "completed"


def test_pressureless_lambda_zero_is_linear():
    fn = integrate_pressureless(theta=1.0, lam=0.0, N=3, a0=2.0, a1=3.0,
                                t_end=1.0)
    assert fn.pair(1.0)[0] == pytest.approx(5.0, abs=1e-10)


def test_pressureless_zero_velocity_is_fixed_point():
    fn = integrate_pressureless(theta=1.0, lam=1.0, N=3, a0=1.0, a1=0.0,
                                t_end=2.0)
    ts = np.linspace(0.0, 2.0, 41)
    assert max(abs(fn.pair(t)[0] - 1.0) for t in ts) < 1e-12


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
    assert grow.pair(0.1)[0] > 1.0
    shrink = integrate_isothermal(B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                                  t_end=0.2)
    assert shrink.pair(0.1)[0] < 1.0


def test_polytropic_initial_deceleration():
    # a''(0) = -K*gamma*a0**(N - theta*N - 1) = -2 < 0 here
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=0.0,
                              t_end=0.05)
    assert fn.pair(0.01)[0] < 1.0


def test_polytropic_viscous_term_keeps_positive_velocity():
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=2.0,
                              t_end=0.2)
    ts = np.linspace(0.0, 0.2, 21)
    adots = [fn.pair(t)[1] for t in ts]
    assert all(v > 0.0 for v in adots)
    # with a' > 0 the viscous contribution N*kappa*theta*a'*a**(N-tN-2) > 0
    visc = [2.0 * v * fn.pair(t)[0] ** (1 - 2 - 2) for t, v in zip(ts, adots)]
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
    assert abs(fn.pair(0.25)[0] - a_oracle) / abs(a_oracle) < 1e-8


def test_polytropic_matches_rk4_oracle():
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=0.0,
                              t_end=0.25)
    a_oracle, _ = rk4_second_order(_poly_accel(2.0, 1.0, 1.0, 1),
                                   1.0, 0.0, 0.25, 1e-6)
    assert abs(fn.pair(0.25)[0] - a_oracle) / abs(a_oracle) < 1e-8


def test_pressureless_matches_rk4_oracle():
    fn = integrate_pressureless(theta=2.0, lam=1.0, N=3, a0=1.0, a1=1.0,
                                t_end=1.0)
    accel = lambda a, ad: -1.0 * ad / a ** (3 * 2.0 - 3 + 2)
    a_oracle, _ = rk4_second_order(accel, 1.0, 1.0, 1.0, 1e-6)
    assert abs(fn.pair(1.0)[0] - a_oracle) / abs(a_oracle) < 1e-8


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
        fn.pair(t_v + 0.1)[0]


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
    assert fn.pair(5.0)[0] == 1.0
    assert fn.pair(5.0)[1] == 0.0


def test_powerlaw_values():
    fn = PowerLawScaling(sigma=2.0, m=1.0, n=1.0, s=0.5)
    assert fn.pair(3.0)[0] == pytest.approx(4.0, rel=1e-15)
    assert fn.pair(3.0)[1] == pytest.approx(0.5, rel=1e-15)


def test_powerlaw_domain_error():
    fn = PowerLawScaling(sigma=1.0, m=-1.0, n=2.0, s=0.5)
    with pytest.raises(DomainError):
        fn.pair(2.0)[0]  # m*t + n = 0
    with pytest.raises(DomainError):
        fn.pair(3.0)[1]


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
    ts = np.linspace(0.0, 0.5, 501)
    avals, advals = fn.pair(ts)
    dt = ts[1] - ts[0]

    def err(k):  # centered difference of a over k grid spacings
        diffs = (avals[2 * k:] - avals[:-2 * k]) / (2.0 * k * dt)
        return np.max(np.abs(diffs - advals[k:-k]))

    assert err(1) < 1e-5  # O(dt^2) with a''' of order one
    assert 2.5 < err(2) / err(1) < 6.0  # second-order rate in the spacing


def test_interpolated_values_between_nodes():
    fn = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                              t_end=0.4)
    accel = _iso_accel(-1.0, 1.0, 1.0, 3)
    # probe times sit between stored nodes and are exact multiples
    # of the oracle step
    for t in (0.12345, 0.22715, 0.39995):
        a_oracle, ad_oracle = rk4_second_order(accel, 1.0, 0.0, t, 1e-5)
        assert fn.pair(t)[0] == pytest.approx(a_oracle, rel=1e-7)
        assert fn.pair(t)[1] == pytest.approx(ad_oracle, rel=1e-6, abs=1e-9)


def test_numeric_scaling_rejects_bad_trajectories():
    with pytest.raises(ValueError):
        NumericScaling([0.0, 0.1, 0.05], [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
                       np.zeros((4, 2, 3)), "completed")
    with pytest.raises(ValueError):
        NumericScaling([0.0, 0.1], [[1.0, -1.0], [0.0, 0.0]], np.zeros((4, 2, 2)),
                       "completed")


def test_numeric_scaling_refuses_nan_time():
    fn = integrate_pressureless(theta=2.0, lam=1.0, N=3, a0=1.0, a1=1.0,
                                t_end=1.0)
    with pytest.raises(OutOfRangeError, match="t nan"):
        fn.pair(np.nan)
    with pytest.raises(OutOfRangeError):
        fn.pair(np.array([0.5, np.nan]))


def test_powerlaw_scaling_refuses_nan_time():
    with pytest.raises(DomainError, match="t=nan"):
        PowerLawScaling(1.0, -1.0, 2.0, 0.5).pair(np.nan)


# --- the per-step quartic table and its interval lookup -----------------------

def _trajectories():
    """Completed and vanished trajectories."""
    return [
        integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                             t_end=0.5),
        integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=0.5,
                             t_end=0.8),
        integrate_pressureless(theta=2.0, lam=1.0, N=3, a0=1.0, a1=1.0,
                               t_end=1.0),
        integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=-1.0,
                             t_end=2.0),
    ]


def test_pair_returns_stored_node_values_exactly():
    for fn in _trajectories():
        for k in range(len(fn.ts)):
            assert fn.pair(fn.ts[k]) == (fn.a_values[k], fn.adot_values[k])


def test_batched_pair_matches_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(7)
    for fn in _trajectories():
        ts = rng.uniform(0.0, fn.t_end, 300)
        a, adot = fn.pair(ts)
        scalar = np.array([fn.pair(t) for t in ts])
        assert np.array_equal(a, scalar[:, 0]) and np.array_equal(adot, scalar[:, 1])


def test_table_agrees_with_rk45_dense_output(monkeypatch):
    # a vanished trajectory too: its last step's polynomial is served up
    # to the event node, and no other interpolant stands in between
    steps = []
    dopri45 = scaling._dopri45

    def spy(*args):
        out = dopri45(*args)
        steps.append(np.array(out[0]).T)
        return out

    monkeypatch.setattr(scaling, "_dopri45", spy)
    trajectories = _trajectories()
    rng = np.random.default_rng(11)
    for fn, (t_olds, t_news, a_olds, *slopes) in zip(trajectories, steps):
        # RK45's dense output y_old + h*(q0*x + q1*x**2 + q2*x**3 + q3*x**4),
        # x = (t - t_old)/h, on the step that holds t
        q = np.einsum("cjs,jk->kcs", np.reshape(slopes, (2, 7, -1)), scaling._P)
        ts = rng.uniform(0.0, fn.t_end, 100_000)
        i = np.minimum(t_news.searchsorted(ts), len(t_news) - 1)
        h = t_news[i] - t_olds[i]
        x = (ts - t_olds[i]) / h
        ref = np.array([a_olds, slopes[0]])[:, i] + h * (
            q[0][:, i] * x + q[1][:, i] * x ** 2 + q[2][:, i] * x ** 3 + q[3][:, i] * x ** 4)
        values = np.array([fn.a_values, fn.adot_values])
        err = np.max(np.abs(np.array(fn.pair(ts)) - ref), axis=-1)
        assert np.all(err <= 1e-15 * np.max(np.abs(values), axis=-1)), fn


def test_interval_lookup_edges():
    fn = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                              t_end=0.5)
    ts = fn.ts
    k = len(ts) // 2
    pad = 1e-12 * max(1.0, abs(ts[-1]))
    assert fn.pair(ts[0]) == (1.0, 0.0)
    assert fn.pair(ts[k]) == (fn.a_values[k], fn.adot_values[k])
    assert fn.pair(ts[-1]) == (fn.a_values[-1], fn.adot_values[-1])
    assert fn.pair(ts[-1] + 0.5 * pad)[0] == pytest.approx(fn.a_values[-1], rel=1e-14)
    past = float(ts[-1] + 2.0 * pad)
    with pytest.raises(OutOfRangeError, match=re.escape(f"t {past!r} outside")):
        fn.pair(past)
    with pytest.raises(OutOfRangeError):
        fn.pair(-2.0 * pad)


@pytest.mark.parametrize("name, params, family, window", cases.exact_families(),
                         ids=[case[0] for case in cases.exact_families()])
def test_pair_range_edges_and_batches(name, params, family, window):
    # the edge tolerance is served exactly to its last float, and an
    # array of times gives the scalar calls' values bit for bit
    fn = build_solution(params, family, t_end=window.t_max + 2e-3).scaling
    lo, hi = 0.0, min(fn.t_end, window.t_max + 2e-3)
    if isinstance(fn, NumericScaling):
        lo, hi = fn.ts[0], fn.ts[-1]
        pad = 1e-12 * max(1.0, abs(hi))
        assert np.isfinite(fn.pair(lo - pad)).all()
        assert fn.pair(hi + pad) == (fn.a_values[-1], fn.adot_values[-1])
        for t in (np.nextafter(lo - pad, -np.inf), np.nextafter(hi + pad, np.inf),
                  np.nan):
            with pytest.raises(OutOfRangeError, match="outside tabulated range"):
                fn.pair(t)
            with pytest.raises(OutOfRangeError):
                fn.pair(np.array([lo, t]))
    ts = np.random.default_rng(3).uniform(lo, hi, 1000)
    a, adot = fn.pair(ts)
    scalar = np.array([fn.pair(t) for t in ts])
    assert np.array_equal(a, scalar[:, 0]) and np.array_equal(adot, scalar[:, 1])


@pytest.mark.parametrize("where", ["values", "table"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_refuses_non_finite_nodes(where, bad):
    # NaN stands for "out of range" in the lookup: none may be built in
    nodes = {"values": np.array([[1.0, 4.0], [2.0, 4.0]]), "table": np.zeros((4, 2, 2))}
    nodes[where].flat[-1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        NumericScaling([0.0, 1.0], nodes["values"], nodes["table"], "completed")


def test_two_node_trajectory():
    # a = 1 + 2t + t**2 on one step, its quartic table exact
    table = np.zeros((4, 2, 2))
    table[:2, 0, 0] = 2.0, 1.0
    table[0, 1, 0] = 2.0
    fn = NumericScaling([0.0, 1.0], [[1.0, 4.0], [2.0, 4.0]], table, "completed")
    assert fn.pair(0.0) == (1.0, 2.0)
    assert fn.pair(0.5) == pytest.approx((2.25, 3.0), rel=1e-15)
    a, adot = fn.pair(np.array([0.25, 1.0]))
    np.testing.assert_allclose(a, [1.5625, 4.0], rtol=1e-15)
    np.testing.assert_allclose(adot, [2.5, 4.0], rtol=1e-15)


# --- the Dormand-Prince stepper ---------------------------------------------------

def _integrated_scalings(monkeypatch):
    """(scaling, accel, a0, a1, t_end) of each integration run by the
    five canonical ODE families and by both steep polytropic collapses."""
    runs = []
    integrate = scaling._integrate

    def spy(accel, a0, a1, t_end, label):
        fn = integrate(accel, a0, a1, t_end, label)
        runs.append((fn, accel, a0, a1, t_end))
        return fn

    monkeypatch.setattr(scaling, "_integrate", spy)
    for make in (cases.isothermal_stated, cases.isothermal_gaussian,
                 cases.polytropic_n1, cases.pressureless_theta1,
                 cases.pressureless_theta2):
        params, family, _ = make()
        build_solution(params, family, t_end=1.2)
    for gamma, N, a1 in ((2.0, 3, 0.0), (2.5, 2, -0.2)):
        integrate_polytropic(gamma=gamma, K=1.0, kappa=1.0, N=N, a0=1.0, a1=a1,
                             t_end=1.2)
    return runs


def test_stepper_matches_scipy_rk45(monkeypatch):
    pytest.importorskip("scipy.integrate")
    runs = _integrated_scalings(monkeypatch)
    assert [fn.status for fn, *_ in runs].count(STATUS_VANISHED) == 4
    for fn, accel, a0, a1, t_end in runs:
        status, t_v, sol = rk45_scaling(accel, a0, a1, t_end, scaling.RTOL, scaling.ATOL,
                                        EPS_A_FRAC * a0, scaling.CAP_A_FRAC * a0)
        assert fn.status == status, fn
        if t_v is None:
            assert fn.vanishing_time is None
        else:
            assert abs(fn.vanishing_time - t_v) <= 1e-14 * t_v, fn
        # a 1e-3 grid strictly inside, short of its last interval
        ts = 1e-3 * np.arange(1, int(fn.t_end / 1e-3))
        np.testing.assert_allclose(fn.pair(ts), sol.sol(ts), rtol=1e-11, atol=0.0)


def test_pair_is_scipys_dense_output_between_the_steps(monkeypatch):
    pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(3)
    for fn, accel, a0, a1, t_end in _integrated_scalings(monkeypatch):
        *_, sol = rk45_scaling(accel, a0, a1, t_end, scaling.RTOL, scaling.ATOL,
                               EPS_A_FRAC * a0, scaling.CAP_A_FRAC * a0)
        ts = rng.uniform(0.0, fn.ts[-2], 10_000)  # short of the last step
        err = np.max(np.abs(np.array(fn.pair(ts)) - sol.sol(ts)), axis=-1)
        size = np.max(np.abs([fn.a_values, fn.adot_values]), axis=-1)
        assert np.all(err <= 1e-9 * size), (fn, err / size)


def test_stats_count_the_steps_and_name_the_stop():
    completed = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0,
                                     a1=0.0, t_end=0.5)
    underflow = integrate_isothermal(B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0,
                                     a1=0.0, t_end=1.5)
    event = integrate_pressureless(theta=1.0, lam=0.0, N=1, a0=1.0, a1=-1.0,
                                   t_end=2.0)
    # theta = 0.1, N = 3: a' ~ a**1.7/1.7 runs away in finite time
    diverged = integrate_pressureless(theta=0.1, lam=-1.0, N=3, a0=1.0, a1=1.0,
                                      t_end=5.0)
    for fn, stop in ((completed, scaling.STOP_COMPLETED),
                     (underflow, scaling.STOP_UNDERFLOW),
                     (event, scaling.STOP_VANISH),
                     (diverged, scaling.STOP_DIVERGE)):
        stats = fn.stats
        assert sorted(stats) == ["accepted", "nfev", "rejected", "stop"]
        assert stats["stop"] == stop
        assert stats["accepted"] > 0 and stats["rejected"] >= 0
        # f at t = 0, the first-step probe, then six stages per attempt
        assert stats["nfev"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
    assert diverged.status == "diverged" and diverged.vanishing_time is None
    # a moves by ~6e3 per ulp of t there: the crossing is the nearest float
    assert diverged.a_values[-1] == pytest.approx(scaling.CAP_A_FRAC, rel=1e-8)
    assert NumericScaling([0.0, 1.0], [[1.0, 1.0], [0.0, 0.0]], np.zeros((4, 2, 2)),
                          "completed").stats is None


def test_negative_trial_stage_is_rejected_not_complex(monkeypatch):
    # with K and kappa tiny, a = 1 - t is nearly linear and the growing
    # steps overshoot a = 0: a**(-1.5) of a negative trial a is complex
    # on Python floats (and NaN with a RuntimeWarning on numpy floats),
    # and must reject the step
    def build():
        return integrate_polytropic(gamma=1.5, K=1e-9, kappa=1e-9, N=1, a0=1.0,
                                    a1=-1.0, t_end=2.0)

    fn = build()
    assert fn.stats["rejected"] > 0 and fn.stats["stop"] == scaling.STOP_VANISH
    assert fn.status == STATUS_VANISHED and 0.99999 < fn.vanishing_time < 1.0
    assert np.all(np.isfinite(fn.a_values)) and fn.a_values.min() > 0.0
    negative = []
    float_rhs = scaling._float_rhs

    def spy(accel):
        g = float_rhs(accel)

        def rhs(a, v):
            x = g(a, v)
            if a < 0.0:
                negative.append(x)
            return x
        return rhs

    monkeypatch.setattr(scaling, "_float_rhs", spy)
    assert build().stats == fn.stats
    assert negative and all(np.isnan(x) for x in negative)


#: the isothermal collapse, both steep polytropic collapses and the runaway
_EARLY_STOPS = pytest.mark.parametrize("build", [
    lambda: integrate_isothermal(B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                                 t_end=1.5),
    lambda: integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                                 t_end=1.2),
    lambda: integrate_polytropic(gamma=2.5, K=1.0, kappa=1.0, N=2, a0=1.0, a1=-0.2,
                                 t_end=1.2),
    lambda: integrate_pressureless(theta=0.1, lam=-1.0, N=3, a0=1.0, a1=1.0,
                                   t_end=5.0),
], ids=["isothermal", "steep_n3", "steep_n2", "runaway"])


@_EARLY_STOPS
def test_last_interval_of_an_early_stop_stays_between_its_nodes(build):
    # the integrator's steps are the nodes, so over the last 1e-3 before
    # the end the polynomials follow the collapse or the runaway instead
    # of swinging off (with one cubic there, the isothermal collapse gave
    # a ~ 1.1e3 and adot ~ 6.1e16 at t = 0.4098946, and the runaway a < 0)
    fn = build()
    assert fn.status != "completed"
    t0 = np.floor(fn.t_end / 1e-3) * 1e-3
    ts = np.random.default_rng(5).uniform(t0, fn.t_end, 100_000)
    a, adot = fn.pair(ts)
    lo, hi = sorted((fn.pair(t0)[0], fn.a_values[-1]))
    assert np.all((a >= lo) & (a <= hi))
    assert np.all(adot * fn.adot_values[-1] > 0.0)
    assert np.count_nonzero((fn.ts > t0) & (fn.ts < fn.t_end)) > 100  # step times


@_EARLY_STOPS
def test_end_values_hold_within_the_edge_tolerance(build):
    # the end node's tangent line gave a = -8.8e-6 at t_end + 5e-13
    # on the isothermal collapse, and its Gaussian field rho = -1.45e15
    fn = build()
    end = (fn.a_values[-1], fn.adot_values[-1])
    assert fn.pair(fn.t_end + 5e-13) == end
    a, adot = fn.pair(np.array([fn.t_end, fn.t_end + 5e-13]))
    assert np.all(a == end[0]) and np.all(adot == end[1])


def test_runaway_stays_positive_across_its_span():
    # a 1e-3 mesh refit gave a = -2.2e5 at t = 2.0694854, where a = +1.1e5
    fn = integrate_pressureless(theta=0.1, lam=-1.0, N=3, a0=1.0, a1=1.0, t_end=5.0)
    assert fn.status == "diverged"
    a, _ = fn.pair(np.random.default_rng(13).uniform(0.0, fn.t_end, 100_000))
    assert np.all(a > 0.0)
    assert fn.pair(2.0694854)[0] == pytest.approx(1.1048e5, rel=1e-4)


def test_collapse_matches_rk4_oracle_close_to_its_end():
    # polytropic_n1 vanishes at 1.0311; a 1e-3 mesh refit gave adot = +8.61
    # here, where it is -80.32, and a 6% off
    params, family, _ = cases.polytropic_n1()
    fn = build_solution(params, family, t_end=1.2).scaling
    assert fn.status == STATUS_VANISHED and 1.0306476 < fn.t_end < 1.0312
    # RK4 at h = 1e-6 to t = 1, then h = 1e-7 over the last 0.0306476, where
    # a falls fast: within 1.3e-10 of h = 1e-7 throughout, at a fifth of the cost
    accel = _poly_accel(2.0, 1.0, 1.0, 1)
    oracle = rk4_second_order(accel, *rk4_second_order(accel, 1.0, 0.5, 1.0, 1e-6),
                              0.0306476, 1e-7)
    assert fn.pair(1.0306476) == pytest.approx(oracle, rel=1e-6)
