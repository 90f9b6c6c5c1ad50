"""Scaling functions: closed form, adaptive integration, event handling."""

import math
import re
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nssol import (
    DomainError,
    ModelParams,
    OutOfRangeError,
    PressurelessThetaNot1,
    StepFailureError,
    build_solution,
    scaling,
    vanishing_time,
)
from nssol._interp import horner
from nssol.scaling import (
    STATUS_VANISHED,
    NumericScaling,
    PowerLawScaling,
    integrate_isothermal,
    integrate_polytropic,
    integrate_pressureless,
)
from tests import cases, oracles
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
        assert max(abs(a - 1.5) for a in fn.pair(fn.ts)[0]) < 1e-12


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
                                 1e-8, 1e-6, 2.0)
    assert t_oracle is not None
    assert abs(t_v - t_oracle) < 1e-8

    # trajectory is clipped at the event; evaluating beyond raises
    with pytest.raises(Exception):
        fn.pair(t_v + 0.1)[0]


def test_vanished_trajectory_stays_positive_and_small():
    # this collapse is a viscous runaway (a ~ (t_v - t)**(1/3)); its tail,
    # integrated in a, serves up to the last float short of t_v, with a
    # tiny but positive final value
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0,
                              a1=-1.0, t_end=2.0)
    assert fn.status == STATUS_VANISHED
    a, _ = fn.pair(fn.ts)
    assert a.min() > 0.0
    assert a.min() < 1e-3
    # a smooth, non-runaway approach to zero at V = 0 has no tail and
    # ends where the step falls below 10 ulp(t): lam = 0 makes
    # a(t) = 1 - t exactly, and the vanishing time is t* = 1 to the
    # resolution of t
    lin = integrate_pressureless(theta=1.0, lam=0.0, N=1, a0=1.0, a1=-1.0,
                                 t_end=2.0)
    assert lin.status == STATUS_VANISHED
    assert lin.vanishing_time == lin.t_end
    assert abs(lin.vanishing_time - 1.0) <= 1e-14
    a, _ = lin.pair(lin.ts)
    assert 0.0 < a[-1] <= 1e-14
    assert a.min() == a[-1]
    # theta = 0.4, N = 3: e = 0.2 and a'' = a'*a**-0.2 conserves
    # a' - a**0.8/0.8 = -1 - 1.25 from (1, -1), so a' = -2.25 + 1.25*a**0.8
    # and t* = integral of da/(2.25 - 1.25*a**0.8) over [0, 1], which is
    # 0.6760320404456746 (mpmath quadrature at 30 digits)
    gentle = integrate_pressureless(theta=0.4, lam=-1.0, N=3, a0=1.0, a1=-1.0,
                                    t_end=3.0)
    assert gentle.status == STATUS_VANISHED
    assert gentle.vanishing_time == gentle.t_end
    assert abs(gentle.vanishing_time - 0.6760320404456746) <= 1e-10
    assert gentle.pair(gentle.t_end)[0] > 0.0
    # the damped collapse lam = 1 (V = -1) from (1, -2) conserves
    # a' + a**0.8/0.8 = -0.75, so a' = -0.75 - 1.25*a**0.8 stays below 0
    # (e < 1 bounds the damping at a = 0), and t* = integral of
    # da/(0.75 + 1.25*a**0.8) over [0, 1] = 0.7390238058606226 (mpmath)
    damped = integrate_pressureless(theta=0.4, lam=1.0, N=3, a0=1.0, a1=-2.0,
                                    t_end=3.0)
    assert damped.status == STATUS_VANISHED
    assert damped.stats["stop"] == scaling.STOP_UNDERFLOW
    assert damped.vanishing_time == damped.t_end
    assert abs(damped.vanishing_time - 0.7390238058606226) <= 1e-10
    assert damped.pair(damped.t_end)[0] > 0.0


def test_steep_polytropic_collapse_matches_rk4_oracle():
    # N = 3, gamma = theta = 2 collapses so steeply that a stepper in t
    # fell below 10 ulp(t) with a still near 2e-3; its tail, integrated
    # in a, reaches a = 0
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=3, a0=1.0,
                              a1=0.0, t_end=1.2)
    assert fn.status == STATUS_VANISHED
    t_oracle = rk4_crossing_time(_poly_accel(2.0, 1.0, 1.0, 3), 1.0, 0.0,
                                 1e-8, 1e-6, 1.2)
    assert t_oracle is not None
    assert abs(vanishing_time(fn) - t_oracle) < 1e-8


def test_slow_polytropic_collapse_vanishes_at_a_large_time():
    # the steep collapse above at K = kappa = 1e-6 ends at t ~ 644, where
    # a step in t would fall below its floor 10 ulp(t), 2e4 times that at
    # t ~ 0.33: the tail, integrated in a, reaches a = 0 all the same
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    fn = integrate_polytropic(gamma=2.0, K=1e-6, kappa=1e-6, N=3, a0=1.0, a1=0.0,
                              t_end=1e9)
    assert fn.status == STATUS_VANISHED and fn.stats["stop"] == scaling.STOP_ZERO
    assert fn.t_end < fn.vanishing_time and fn.pair(fn.t_end)[0] > 0.0
    # scipy's DOP853 at rtol 1e-13, on the same right-hand side, stops on
    # its own step floor, where a/|a'| is 1e-13 of t
    F = scaling._ode(1e-6 * 2.0, 3 * 1e-6 * 2.0, 3 * 2.0 - 3 + 2.0)
    with np.errstate(all="ignore"):
        ref = solve_ivp(lambda t, y: F(t, *y), [0.0, 1e9], [1.0, 0.0],
                        method="DOP853", rtol=1e-13, atol=1e-15)
    assert ref.status == -1 and 644.0 < ref.t[-1] < 645.0
    assert abs(fn.vanishing_time - ref.t[-1]) <= 1e-9 * ref.t[-1]


#: each constant of the four integrated families scaled by 10**U(-8, 1),
#: and a1 by 10**U(-6, 0) in the test, so a collapse ends anywhere from
#: t ~ 0.1 to past t ~ 1e6, where ulp(t) is 1e-10.  V >= 0 throughout;
#: the damped builds, V < 0, follow
_SCALED = st.floats(-8.0, 1.0).map(lambda x: 10.0 ** x)
_UNDAMPED_BUILDS = st.one_of(
    st.builds(partial, st.just(integrate_isothermal), B=st.floats(0.0, 2.0),
              K=_SCALED, kappa=_SCALED, N=st.integers(1, 3)),
    st.builds(partial, st.just(integrate_polytropic), gamma=st.floats(1.05, 3.0),
              K=_SCALED, kappa=_SCALED, N=st.integers(1, 3)),
    st.builds(partial, st.just(integrate_pressureless), theta=st.just(1.0),
              lam=_SCALED, N=st.integers(1, 3)),
    st.builds(partial, st.just(integrate_pressureless),
              theta=st.floats(0.3, 3.0).filter(lambda x: x != 1.0),
              lam=_SCALED.map(lambda x: -x), N=st.integers(1, 3)),
)


def _tailed(build, **kwargs):
    """build(**kwargs), and whether _integrate was given a tail, as it
    is at V > 0 and e > 1."""
    tails, integrate = [], scaling._integrate

    def spy(F, a0, a1, t_end, label, tail=None):
        tails.append(tail is not None)
        return integrate(F, a0, a1, t_end, label, tail)

    with mock.patch.object(scaling, "_integrate", spy):
        fn = build(**kwargs)
    return fn, tails == [True]


@settings(max_examples=60, deadline=None)
@given(build=_UNDAMPED_BUILDS, a0=st.floats(0.5, 2.0), a1=st.floats(-1.5, 1.5),
       a1_scale=st.floats(-6.0, 0.0))
def test_every_collapse_ends_at_a_zero_or_on_the_step_floor(build, a0, a1, a1_scale):
    # a collapse at V > 0 and e > 1 ends at a = 0 on its tail, integrated
    # in a, and serves up to a float short of it.  Any other ends where the
    # step in t falls below 10 ulp(t), a bound in ulps of t that no
    # collapse at any time scale fails; so does one at V > 0 and e > 1
    # whose tail would start closer to a = 0 than that floor (a = 1 - t
    # at B = 1e-15, where a'*a**(e - 1) nears -V/(e - 1) at a ~ 2e-15)
    fn, tailed = _tailed(build, a0=a0, a1=a1 * 10.0 ** a1_scale, t_end=1e9)
    if fn.status == STATUS_VANISHED:
        assert fn.pair(fn.t_end)[0] > 0.0
        if fn.stats["stop"] == scaling.STOP_ZERO:
            assert tailed and fn.t_end < fn.vanishing_time
        else:
            assert fn.stats["stop"] == scaling.STOP_UNDERFLOW
            assert fn.vanishing_time == fn.t_end


_DAMPED_BUILDS = st.one_of(
    st.builds(partial, st.just(integrate_isothermal), B=st.floats(-2.0, 0.0),
              K=_SCALED, kappa=_SCALED, N=st.integers(1, 3)),
    st.builds(partial, st.just(integrate_pressureless), theta=st.just(1.0),
              lam=_SCALED.map(lambda x: -x), N=st.integers(1, 3)),
    st.builds(partial, st.just(integrate_pressureless),
              theta=st.floats(0.3, 3.0).filter(lambda x: x != 1.0),
              lam=_SCALED, N=st.integers(1, 3)),
)


@settings(max_examples=40, deadline=None)
@given(build=_DAMPED_BUILDS, a0=st.floats(0.5, 2.0), a1=st.floats(-1.5, -0.5))
def test_every_damped_build_ends_or_is_refused_as_stiff(build, a0, a1):
    # a V < 0 damps a' as a falls: at e < 1 a collapse still vanishes, on
    # the step floor; at e >= 1 a settles toward an equilibrium a*, where
    # RK45 steps at its stability limit, about 3.3*a*^e/|V|, and a
    # small a* makes that stiff.  In one run of 300 examples of these
    # builds, 45 vanished and 25 were refused as stiff
    try:
        with _budgeted(10 ** 6):
            fn = build(a0=a0, a1=a1, t_end=10.0)
    except StepFailureError as err:
        assert "the problem is stiff" in str(err)
        return
    if fn.status == STATUS_VANISHED:
        assert fn.stats["stop"] == scaling.STOP_UNDERFLOW
        assert fn.pair(fn.t_end)[0] > 0.0
        assert fn.vanishing_time == fn.t_end


# --- a collapse's tail, integrated in a -----------------------------------------

#: collapses at V > 0 and e > 1 from (1, 0) unless given: isothermal N = 3
#: and N = 1, polytropic N = 3 at gamma = 2, N = 2 at gamma = 2.5 from
#: (1, -0.2) and N = 1 at gamma = 2, and pressureless at e = 1.4, each
#: with its (P, V, e, a0, a1)
_COLLAPSES = [
    (partial(integrate_isothermal, B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0),
     (2.0, 6.0, 2.0, 1.0, 0.0)),
    (partial(integrate_isothermal, B=1.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=0.0),
     (2.0, 2.0, 2.0, 1.0, 0.0)),
    (partial(integrate_polytropic, gamma=2.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0),
     (2.0, 6.0, 5.0, 1.0, 0.0)),
    (partial(integrate_polytropic, gamma=2.5, K=1.0, kappa=1.0, N=2, a0=1.0, a1=-0.2),
     (2.5, 5.0, 5.0, 1.0, -0.2)),
    (partial(integrate_polytropic, gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=0.0),
     (2.0, 2.0, 3.0, 1.0, 0.0)),
    (partial(integrate_pressureless, theta=0.8, lam=-1.0, N=3, a0=1.0, a1=-1.0),
     (0.0, 1.0, 1.4, 1.0, -1.0)),
]
_COLLAPSE_IDS = ["isothermal_n3", "isothermal_n1", "polytropic_n3", "polytropic_n2",
                 "polytropic_n1", "pressureless_e1.4"]


def _dop853_vanishing_time(P, V, e, a0, a1):
    """t at a = 0 by scipy's DOP853 at rtol 1e-13: in t to a = a0/2, then
    t and w = a' + c*a**(1 - e), c = V/(e - 1), over a down to 0."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def half(t, y):
        return y[0] - 0.5 * a0

    half.terminal, half.direction = True, -1
    t_phase = solve_ivp(lambda t, y: [y[1], (V * y[1] - P * y[0]) * y[0] ** -e],
                        [0.0, 100.0], [a0, a1], method="DOP853", rtol=1e-13,
                        atol=1e-15, events=[half])
    t, (a, v) = t_phase.t_events[0][0], t_phase.y_events[0][0]
    c = V / (e - 1.0)

    def in_a(a, y):
        D = y[1] * a ** (e - 1.0) - c
        return [a ** (e - 1.0) / D, -P / D]

    a_phase = solve_ivp(in_a, [a, 0.0], [t, v + c * a ** (1.0 - e)], method="DOP853",
                        rtol=1e-13, atol=1e-15)
    return a_phase.y[0, -1]


@pytest.mark.parametrize("build, constants", _COLLAPSES, ids=_COLLAPSE_IDS)
def test_collapse_tail_reaches_a_zero_in_few_steps(build, constants):
    # a stepper in t took 540-770 accepted steps on these, ending 4.7e-12
    # to 8.7e-12 short of this reference; with the tail integrated in a
    # from where the collapse follows its law they take 101-161 in all
    fn = build(t_end=2.0)
    assert fn.status == STATUS_VANISHED and fn.stats["stop"] == scaling.STOP_ZERO
    assert fn.stats["accepted"] <= 200
    assert abs(fn.vanishing_time - _dop853_vanishing_time(*constants)) <= 1e-11


@pytest.mark.parametrize("build", [build for build, _ in _COLLAPSES], ids=_COLLAPSE_IDS)
def test_tail_continues_the_t_piece_and_falls_to_its_end(build):
    fn = build(t_end=2.0)
    t_switch = fn.ts[_t_piece(fn) - 1]
    assert 0.0 < t_switch < fn.t_end < fn.vanishing_time
    # the switch node is the t-piece's; the next float is the tail's
    (a, adot), (a_next, adot_next) = fn.pair(t_switch), fn.pair(math.nextafter(t_switch, 1.0))
    assert abs(a_next - a) <= 8 * math.ulp(a) and abs(adot_next - adot) <= 1e-14 * -adot
    ts = np.linspace(t_switch, fn.t_end, 4001)
    a, adot = fn.pair(ts)
    assert np.all(np.diff(a) < 0.0) and a[-1] > 0.0 and np.all(adot < 0.0)
    assert a[-1] == fn._tail.end[0] and np.isfinite(adot[-1])


def test_collapse_cut_by_the_requested_end_completes_there():
    # the polytropic N = 1 collapse from (1, -1) switches after one step,
    # and a tail that passes t_end before a = 0 completes at t_end
    whole = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=-1.0,
                                 t_end=2.0)
    t_stop = 0.5 * (whole.ts[1] + whole.vanishing_time)
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=1, a0=1.0, a1=-1.0,
                              t_end=t_stop)
    assert fn.status == "completed" and fn.stats["stop"] == scaling.STOP_COMPLETED
    assert fn.t_end == t_stop and fn.vanishing_time is None
    assert fn.pair(t_stop) == pytest.approx(whole.pair(t_stop), rel=1e-12)


def _tail_rows(monkeypatch, build):
    """build(), and the rows of its tail's _dopri45 call."""
    tails = []
    dopri45 = scaling._dopri45

    def spy(*args):
        out = dopri45(*args)
        if args[5] == scaling.TAIL_RTOL:
            tails.append(out[0])
        return out

    monkeypatch.setattr(scaling, "_dopri45", spy)
    fn = build()
    monkeypatch.undo()
    (rows,) = tails
    return fn, rows


def test_tail_nodes_that_round_to_one_time_are_dropped(monkeypatch):
    # at e = 119 the tail's t(a) ~ T - k*a**119 is T to the float below
    # a ~ 0.67: the steps that start there are no nodes, and the last
    # node is the largest float short of T, served at a > 0
    fn, rows = _tail_rows(monkeypatch, lambda: integrate_pressureless(
        theta=40.0, lam=-1.0, N=3, a0=1.0, a1=-1.0, t_end=2.0))
    assert fn.t_end == math.nextafter(fn.vanishing_time, 0.0)
    assert np.count_nonzero(rows[:, 2] >= fn.t_end) >= 2
    assert np.all(np.diff(fn.ts) > 0.0)
    a, adot = fn.pair(fn.t_end)
    assert 0.5 < a < 1.0 and np.isfinite(adot)


def test_tail_drops_a_step_that_starts_where_the_next_does(monkeypatch):
    # no t reads a step whose next one starts at the same float: with one
    # step of the isothermal collapse's tail given twice, the tail has the
    # same nodes and values
    fn, rows = _tail_rows(monkeypatch, lambda: integrate_isothermal(
        B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0, t_end=1.5))
    k = len(rows) // 2
    tails = [scaling._Tail(r, fn.vanishing_time, 1.5, 6.0, 2.0)
             for r in (rows, np.insert(rows, k, rows[k], axis=0))]
    assert _bits(tails[0].ts) == _bits(tails[1].ts)
    assert _bits(_tail_states(tails[0])) == _bits(_tail_states(tails[1]))
    ts = np.linspace(rows[0, 2], fn.t_end, 1001)[1:]
    assert _bits([tails[0].pair(t) for t in ts]) == _bits([tails[1].pair(t) for t in ts])
    assert _bits(fn.pair(ts)) == _bits(np.transpose([tails[0].pair(t) for t in ts]))


def test_blowup_states_the_collapse_law_of_its_tail():
    fn = integrate_polytropic(gamma=2.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                              t_end=2.0)
    doc = fn.blowup()
    # e = 5, V = 6: a ~ (e*V/(e - 1)*(T - t))**(1/e) = (7.5*(T - t))**0.2
    assert doc["collapse_exponent"] == 0.2
    assert doc["collapse_constant"] == pytest.approx(7.5 ** 0.2, rel=1e-15)
    # the law's error falls with T - t, until the tail's tolerance on t,
    # about 1e-12*T, takes over near 1e-9
    T = fn.vanishing_time
    for gap, rtol in ((1e-3, 1e-3), (1e-7, 1e-5)):
        law = doc["collapse_constant"] * gap ** doc["collapse_exponent"]
        assert fn.pair(T - gap)[0] == pytest.approx(law, rel=rtol)
    # a collapse that ends on the step floor states no law
    damped = integrate_pressureless(theta=0.4, lam=1.0, N=3, a0=1.0, a1=-2.0, t_end=3.0)
    assert damped.status == STATUS_VANISHED and "collapse_exponent" not in damped.blowup()


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
                                         ("searched_until", fn.t_end),
                                         ("collapse_exponent", 0.5),
                                         ("collapse_constant", 12.0 ** 0.5)]
    with pytest.raises(ValueError):
        fn.ts[0] = 2.0


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


def _table(a, adot):
    """The (2, 5, n) coefficient table of constant steps with these node
    values."""
    coef = np.zeros((2, 5, len(a)))
    coef[:, 0] = a, adot
    return coef


def test_numeric_scaling_rejects_bad_trajectories():
    with pytest.raises(ValueError):
        NumericScaling([0.0, 0.1, 0.05], _table([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
                       "completed")
    with pytest.raises(ValueError):
        NumericScaling([0.0, 0.1], _table([1.0, -1.0], [0.0, 0.0]), "completed")


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
        integrate_isothermal(B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                             t_end=1.5),
    ]


def _tail_states(tail):
    """(a, adot) at each node of a _Tail as it stores them: per kept
    step after the switch node its start, a = -x and a' = w - c/a**(e - 1),
    then the end state."""
    states = [(-x, w - tail.c / (-x) ** (tail.e - 1.0))
              for x, _, start, _, _, (w, *_) in tail._steps if start > tail.t0]
    if tail.t_end > tail.t0:
        states.append(tail.end)
    return np.reshape(states, (-1, 2)).T


def _stored_states(fn):
    """(a, adot) at each of fn.ts as the stepper stored them: the node
    values of its table, then its tail's."""
    states = fn._table.rows[1:-1, [1, 6]].T
    return states if fn._tail is None else np.concatenate((states, _tail_states(fn._tail)), 1)


def test_pair_returns_stored_node_values_exactly():
    for fn in _trajectories():
        a, adot = _stored_states(fn)
        assert len(a) == len(fn.ts)
        for k in range(len(fn.ts)):
            assert fn.pair(fn.ts[k]) == (a[k], adot[k])


def test_batched_pair_matches_scalar_calls_bit_for_bit():
    # both collapses have a tail, which gets a third of the times
    rng = np.random.default_rng(7)
    for fn in _trajectories():
        t_tail = fn.ts[_t_piece(fn) - 1]
        ts = np.concatenate((rng.uniform(0.0, fn.t_end, 200),
                             rng.uniform(t_tail, fn.t_end, 100)))
        a, adot = fn.pair(ts)
        scalar = np.array([fn.pair(t) for t in ts])
        assert np.array_equal(a, scalar[:, 0]) and np.array_equal(adot, scalar[:, 1])


def test_table_agrees_with_rk45_dense_output(monkeypatch):
    # a vanished trajectory too: its last step's polynomial in t is served
    # up to the switch node, and no other interpolant stands in between
    steps = []
    dopri45 = scaling._dopri45

    def spy(*args):
        out = dopri45(*args)
        if args[5] == scaling.RTOL:  # the t-piece
            steps.append(np.array(out[0]).T)
        return out

    monkeypatch.setattr(scaling, "_dopri45", spy)
    trajectories = _trajectories()
    rng = np.random.default_rng(11)
    for fn, (t_olds, t_news, a_olds, v_olds, *slopes) in zip(trajectories, steps):
        # RK45's dense output y_old + h*(q0*x + q1*x**2 + q2*x**3 + q3*x**4),
        # x = (t - t_old)/h, on the step that holds t
        assert np.array_equal(v_olds, slopes[0])
        q = np.einsum("cjs,jk->kcs", np.reshape(slopes, (2, 7, -1)), scaling._P)
        ts = rng.uniform(0.0, min(fn.t_end, t_news[-1]), 100_000)
        i = np.minimum(t_news.searchsorted(ts), len(t_news) - 1)
        h = t_news[i] - t_olds[i]
        x = (ts - t_olds[i]) / h
        ref = np.array([a_olds, v_olds])[:, i] + h * (
            q[0][:, i] * x + q[1][:, i] * x ** 2 + q[2][:, i] * x ** 3 + q[3][:, i] * x ** 4)
        values = np.array(fn.pair(fn.ts))[:, :len(t_olds) + 1]
        err = np.max(np.abs(np.array(fn.pair(ts)) - ref), axis=-1)
        assert np.all(err <= 1e-15 * np.max(np.abs(values), axis=-1)), fn


def test_interval_lookup_edges():
    fn = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0, a1=0.0,
                              t_end=0.5)
    ts = fn.ts
    k = len(ts) // 2
    pad = 1e-12 * max(1.0, abs(ts[-1]))
    a, adot = _stored_states(fn)
    assert fn.pair(ts[0]) == (1.0, 0.0)
    assert fn.pair(ts[k]) == (a[k], adot[k])
    assert fn.pair(ts[-1]) == (a[-1], adot[-1])
    assert fn.pair(ts[-1] + 0.5 * pad)[0] == pytest.approx(a[-1], rel=1e-14)
    past = float(ts[-1] + 2.0 * pad)
    with pytest.raises(OutOfRangeError, match=re.escape(f"t {past!r} outside")):
        fn.pair(past)
    with pytest.raises(OutOfRangeError):
        fn.pair(-2.0 * pad)


#: the exact families, and the collapse of criterion 1, whose tail is
#: integrated in a
_RANGE_CASES = cases.exact_families() + [("isothermal_stated", *cases.isothermal_stated())]


@pytest.mark.parametrize("name, params, family, window", _RANGE_CASES,
                         ids=[case[0] for case in _RANGE_CASES])
def test_pair_range_edges_and_batches(name, params, family, window):
    # the edge tolerance is served exactly to its last float, and an
    # array of times gives the scalar calls' values bit for bit
    fn = build_solution(params, family, t_end=window.t_max + 2e-3).scaling
    lo, hi = 0.0, min(fn.t_end, window.t_max + 2e-3)
    if isinstance(fn, NumericScaling):
        lo, hi = fn.ts[0], fn.ts[-1]
        pad = 1e-12 * max(1.0, abs(hi))
        assert np.isfinite(fn.pair(lo - pad)).all()
        assert fn.pair(hi + pad) == tuple(_stored_states(fn)[:, -1])
        for t in (np.nextafter(lo - pad, -np.inf), np.nextafter(hi + pad, np.inf),
                  np.nan):
            with pytest.raises(OutOfRangeError, match="outside tabulated range"):
                fn.pair(t)
            with pytest.raises(OutOfRangeError):
                fn.pair(np.array([lo, t]))
    ts = np.random.default_rng(3).uniform(lo, hi, 1000)
    if name == "isothermal_stated":  # its tail gets times of its own
        assert fn.stats["stop"] == scaling.STOP_ZERO
        ts = np.append(ts, np.random.default_rng(4).uniform(fn.ts[_t_piece(fn) - 1], hi, 200))
    a, adot = fn.pair(ts)
    scalar = np.array([fn.pair(t) for t in ts])
    assert np.array_equal(a, scalar[:, 0]) and np.array_equal(adot, scalar[:, 1])


@pytest.mark.parametrize("where", ["values", "table"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_refuses_non_finite_nodes(where, bad):
    # NaN stands for "out of range" in the lookup: none may be built in
    coef = _table([1.0, 4.0], [2.0, 4.0])
    coef[1, 0 if where == "values" else 4, -1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        NumericScaling([0.0, 1.0], coef, "completed")


def test_two_node_trajectory():
    # a = 1 + 2t + t**2 on one step, its quartic table exact
    coef = _table([1.0, 4.0], [2.0, 4.0])
    coef[0, 1:3, 0] = 2.0, 1.0
    coef[1, 1, 0] = 2.0
    fn = NumericScaling([0.0, 1.0], coef, "completed")
    assert fn.pair(0.0) == (1.0, 2.0)
    assert fn.pair(0.5) == pytest.approx((2.25, 3.0), rel=1e-15)
    a, adot = fn.pair(np.array([0.25, 1.0]))
    np.testing.assert_allclose(a, [1.5625, 4.0], rtol=1e-15)
    np.testing.assert_allclose(adot, [2.5, 4.0], rtol=1e-15)


# --- the Dormand-Prince stepper ---------------------------------------------------

def _integrated_scalings(monkeypatch):
    """(scaling, F, a0, a1, t_end, tail) of each integration run by the
    five canonical ODE families and by both steep polytropic collapses."""
    runs = []
    integrate = scaling._integrate

    def spy(F, a0, a1, t_end, label, tail=None):
        fn = integrate(F, a0, a1, t_end, label, tail)
        runs.append((fn, F, a0, a1, t_end, tail))
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


def _accel(F):
    """a'' = accel(a, a') of the first order system F of the scaling ODE."""
    return lambda a, v: F(0.0, a, v)[1]


def _t_piece(fn):
    """The number of nodes of fn's table in t, which a collapse's tail
    follows."""
    return len(fn._table.nodes) - 2


def test_stepper_matches_scipy_rk45(monkeypatch):
    pytest.importorskip("scipy.integrate")
    runs = _integrated_scalings(monkeypatch)
    assert [fn.status for fn, *_ in runs].count(STATUS_VANISHED) == 4
    for fn, F, a0, a1, t_end, tail in runs:
        status, t_v, sol = rk45_scaling(_accel(F), a0, a1, t_end, scaling.RTOL,
                                        scaling.ATOL, scaling.CAP_A_FRAC * a0)
        assert fn.status == status, fn
        t_last = fn.ts[_t_piece(fn) - 1]
        if t_v is None:
            assert fn.vanishing_time is None
        elif fn.stats["stop"] == scaling.STOP_UNDERFLOW:
            assert abs(fn.vanishing_time - t_v) <= 1e-14 * t_v, fn
        else:
            # RK45 follows the collapse in t past the switch node to its
            # step floor; the tail's t at a = 0 is held to DOP853 in
            # test_collapse_tail_reaches_a_zero_in_few_steps
            assert t_last < t_v and fn.t_end < fn.vanishing_time, fn
        # a 1e-3 grid strictly inside the table in t, short of its last
        # interval
        ts = 1e-3 * np.arange(1, int(t_last / 1e-3))
        np.testing.assert_allclose(fn.pair(ts), sol.sol(ts), rtol=1e-11, atol=0.0)


def test_pair_is_scipys_dense_output_between_the_steps(monkeypatch):
    pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(3)
    for fn, F, a0, a1, t_end, tail in _integrated_scalings(monkeypatch):
        *_, sol = rk45_scaling(_accel(F), a0, a1, t_end, scaling.RTOL, scaling.ATOL,
                               scaling.CAP_A_FRAC * a0)
        n = _t_piece(fn)
        ts = rng.uniform(0.0, fn.ts[n - 2], 10_000)  # short of its last step in t
        err = np.max(np.abs(np.array(fn.pair(ts)) - sol.sol(ts)), axis=-1)
        size = np.max(np.abs(fn.pair(fn.ts[:n])), axis=-1)
        assert np.all(err <= 1e-9 * size), (fn, err / size)


def test_stats_count_the_steps_and_name_the_stop():
    completed = integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0,
                                     a1=0.0, t_end=0.5)
    collapse = integrate_isothermal(B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0,
                                    a1=0.0, t_end=1.5)
    linear = integrate_pressureless(theta=1.0, lam=0.0, N=1, a0=1.0, a1=-1.0,
                                    t_end=2.0)
    # theta = 0.1, N = 3: a' ~ a**1.7/1.7 runs away in finite time
    diverged = integrate_pressureless(theta=0.1, lam=-1.0, N=3, a0=1.0, a1=1.0,
                                      t_end=5.0)
    for fn, stop, pieces in ((completed, scaling.STOP_COMPLETED, 1),
                             (collapse, scaling.STOP_ZERO, 2),
                             (linear, scaling.STOP_UNDERFLOW, 1),
                             (diverged, scaling.STOP_DIVERGE, 1)):
        stats = fn.stats
        assert sorted(stats) == ["accepted", "nfev", "rejected", "stop"]
        assert stats["stop"] == stop
        assert stats["accepted"] > 0 and stats["rejected"] >= 0
        # per piece f at its start and the first-step probe, then six
        # stages per attempt
        assert stats["nfev"] == 2 * pieces + 6 * (stats["accepted"] + stats["rejected"])
    assert diverged.status == "diverged" and diverged.vanishing_time is None
    # a moves by ~6.5e4 per ulp of t there: the crossing is the float
    # nearest to the cap on the last step's quartic, whose end node it is
    t_end, t_old, cap = diverged.t_end, diverged.ts[-2], scaling.CAP_A_FRAC
    quartic = diverged._table.coef[0, :, -3].tolist()
    a_end, adot_end = _stored_states(diverged)[:, -1]
    assert horner(quartic, t_end - t_old) == a_end
    gaps = [abs(horner(quartic, t - t_old) - cap)
            for t in (math.nextafter(t_end, 0.0), t_end, math.nextafter(t_end, 3.0))]
    assert gaps[1] <= min(gaps[0], gaps[2])
    assert abs(a_end - cap) <= adot_end * math.ulp(t_end) / 2
    assert NumericScaling([0.0, 1.0], _table([1.0, 1.0], [0.0, 0.0]),
                          "completed").stats is None


def test_negative_trial_stage_is_rejected_not_complex(monkeypatch):
    # with K and kappa tiny, a = 1 - t is nearly linear and the growing
    # steps overshoot a = 0: a negative trial a has no a**(-1.5) on
    # Python floats, and must reject the step
    def build():
        return integrate_polytropic(gamma=1.5, K=1e-9, kappa=1e-9, N=1, a0=1.0,
                                    a1=-1.0, t_end=2.0)

    fn = build()
    assert fn.stats["rejected"] > 0 and fn.stats["stop"] == scaling.STOP_ZERO
    assert fn.status == STATUS_VANISHED and 0.99999 < fn.vanishing_time < 1.0
    a, _ = fn.pair(fn.ts)
    assert np.all(np.isfinite(a)) and a.min() > 0.0
    negative = []
    ode = scaling._ode

    def spy(P, V, e):
        F = ode(P, V, e)

        def rhs(t, a, v):
            x = F(t, a, v)
            if a < 0.0:
                negative.append(x[1])
            return x
        return rhs

    monkeypatch.setattr(scaling, "_ode", spy)
    assert build().stats == fn.stats
    assert negative and all(np.isnan(x) for x in negative)


def test_a_tail_whose_first_slope_norm_overflows_steps_from_its_floor():
    # a' = -1e-200 at V = 1e-200, e = 2.25 meets the tail's switch after
    # one step in t; there dt/dx ~ 1e200 overflows the first step's slope
    # norm, so Hairer's first step is 0 and the stepper starts from its
    # floor, as RK45 would, where it raised ZeroDivisionError
    fn = integrate_pressureless(theta=1.25, lam=-1e-200, N=1, a0=1.0, a1=-1e-200,
                                t_end=1.0)
    assert fn.status == "completed" and fn.stats["stop"] == scaling.STOP_COMPLETED
    assert fn._tail is not None and fn.t_end == 1.0
    assert fn.pair(0.5) == fn.pair(1.0) == (1.0, -1e-200)


def _first_integral_drift(fn, lam, e, a0, a1):
    """Largest relative change of a' + lam*a**(1 - e)/(1 - e), which
    a'' = -lam*a'*a**-e conserves, over the nodes of fn."""
    def first_integral(a, adot):
        return adot + lam * a ** (1.0 - e) / (1.0 - e)
    start = first_integral(a0, a1)
    return np.max(np.abs(first_integral(*fn.pair(fn.ts)) / start - 1.0))


def test_fast_expansion_at_a_large_exponent_builds():
    # N = 3, theta = 100: e = 299, and a**299 overflowed at a = 10.74 when
    # the right-hand side divided by it; a**-299 underflows to 0 instead,
    # and a runs almost straight from (1, 20)
    params = ModelParams(N=3, gamma=1.0, theta=100.0, delta=0)
    family = PressurelessThetaNot1(lam=1.0, alpha=1.0, a0=1.0, a1=20.0)
    fn = build_solution(params, family, t_end=1.0).scaling
    assert fn.status == "completed" and fn.t_end == 1.0
    assert fn.pair(fn.t_end)[0] == pytest.approx(21.0, rel=1e-3)
    assert _first_integral_drift(fn, 1.0, 299.0, 1.0, 20.0) <= 1e-9


def test_a_trial_stage_that_overflows_is_rejected(monkeypatch):
    # e = 299: a**-299 raises OverflowError for |a| below about 0.093.
    # The braking term lam*a'*a**-299 stops the collapse from (1, -3) at
    # a* ~ 0.208, and the first long steps reach past it into that band
    small = 0.09
    raised = []
    ode = scaling._ode

    def spy(P, V, e):
        F = ode(P, V, e)

        def rhs(t, a, v):
            x = F(t, a, v)
            if abs(a) < small:
                raised.append(x[1])
            return x
        return rhs

    monkeypatch.setattr(scaling, "_ode", spy)
    fn = integrate_pressureless(theta=100.0, lam=1e-200, N=3, a0=1.0, a1=-3.0,
                                t_end=0.5)
    assert raised and all(np.isnan(x) for x in raised)
    assert fn.status == "completed" and fn.stats["rejected"] > 0
    a, adot = fn.pair(fn.ts)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(adot))
    assert a.min() > 0.2
    assert _first_integral_drift(fn, 1e-200, 299.0, 1.0, -3.0) <= 1e-9


def test_a_long_step_does_not_jump_a_braking_layer():
    # e = 299 is an integer, so a**-299 of a negative trial a is a float.
    # The braking term holds a above a* ~ 0.1003, yet a step from
    # a = 0.525 put its stages at a < 0 and ended on a false vanishing
    # at t = 0.99999999; a trial a <= 0 must reject the step instead
    fn = integrate_pressureless(theta=100.0, lam=1e-295, N=3, a0=1.0, a1=-1.0,
                                t_end=2.0)
    assert fn.status == "completed" and fn.t_end == 2.0
    assert fn.pair(fn.ts)[0].min() > 0.1
    assert _first_integral_drift(fn, 1e-295, 299.0, 1.0, -1.0) <= 1e-9


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
    a_end, adot_end = fn.pair(fn.t_end)
    lo, hi = sorted((fn.pair(t0)[0], a_end))
    assert np.all((a >= lo) & (a <= hi))
    assert np.all(adot * adot_end > 0.0)
    # step times, where a 1e-3 mesh would have none: a stepper in t
    # shrinks its steps toward the end, a collapse's tail in a does not
    steps = 2 if fn.stats["stop"] == scaling.STOP_ZERO else 100
    assert np.count_nonzero((fn.ts > t0) & (fn.ts < fn.t_end)) > steps


@_EARLY_STOPS
def test_end_values_hold_within_the_edge_tolerance(build):
    # the end node's tangent line gave a = -8.8e-6 at t_end + 5e-13
    # on the isothermal collapse, and its Gaussian field rho = -1.45e15
    fn = build()
    end = tuple(_stored_states(fn)[:, -1])
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


def _pole(t, a, v):
    return v, -1.0 / (a - 0.5) ** 2


def test_step_size_underflow_off_a_collapse_raises_step_failure():
    # a'' = -1/(a - 1/2)**2 from (1, 0) conserves a'**2/2 - 1/(a - 1/2) = -2:
    # a reaches the pole at 1/2, not 0, near t = pi/8, where the step falls
    # below the spacing of t with a far above the vanishing threshold
    with pytest.raises(StepFailureError) as err:
        scaling._integrate(_pole, 1.0, 0.0, 2.0, "test")
    assert str(err.value) == ("scaling integration (test) failed: Required step size"
                              " is less than spacing between numbers.")
    assert err.value.t == pytest.approx(0.3926990816940043, rel=1e-12)
    a, v = err.value.state
    assert 0.0 < a - 0.5 < 1e-8
    assert v == pytest.approx(-math.sqrt(2.0 / (a - 0.5) - 4.0), rel=1e-3)
    assert v == pytest.approx(-4.77e4, rel=1e-2)


def test_steep_collapse_too_short_for_its_quartic_raises_step_failure():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailureError) as err:
            integrate_pressureless(**cases.STEEP_COLLAPSE)
    assert re.fullmatch(r"scaling integration \(pressureless\) failed: the step at "
                        r"t=\S+ is too short for its dense output\.", str(err.value))
    assert 0.0 < err.value.t < 1e-69 and f"t={err.value.t!r}" in str(err.value)
    a, v = err.value.state
    assert a == pytest.approx(cases.STEEP_COLLAPSE["a0"], rel=1e-12) and v < -1e22


def _budgeted(calls):
    """A patch under which a test fails once the builds' right-hand
    sides are called more than calls times in all, so that a run the
    stepper does not bound fails instead of running on."""
    ode, count = scaling._ode, [0]

    def budgeted_ode(P, V, e):
        F = ode(P, V, e)

        def rhs(t, a, v):
            count[0] += 1
            assert count[0] <= calls, "the stepper ran past the test's budget"
            return F(t, a, v)
        return rhs
    return mock.patch.object(scaling, "_ode", budgeted_ode)


@pytest.mark.parametrize("build", [
    # a'' = lam*a'/a**2 at theta = 1 conserves a' + lam/a: from (1, -1) at
    # lam = -1e-9, a' = 1e-9/a - (1 + 1e-9) relaxes a toward
    # a* = 1e-9/(1 + 1e-9) at a rate |lam|/a*^2 ~ 1e9, and never to 0.
    # RK45 holds it only at steps of about 3e-9, some 3e8 of them to t_end
    partial(integrate_pressureless, theta=1.0, lam=-1e-9, N=1, a0=1.0, a1=-1.0,
            t_end=2.0),
    # a* ~ 1e-7: about 3e6 steps
    partial(integrate_pressureless, theta=1.0, lam=-1e-7, N=1, a0=1.0, a1=-1.0,
            t_end=2.0),
    # damped builds that take about 8e7, 1.3e6 and 1.8e6 steps
    partial(integrate_pressureless, theta=2.9676758208408756, lam=2.1134628881933883,
            N=3, a0=0.10296249123195082, a1=0.04497138529114988, t_end=2.0),
    partial(integrate_isothermal, B=-0.5, K=1.0, kappa=1.0, N=3, a0=1e-3, a1=2.0,
            t_end=7.0),
    partial(integrate_isothermal, B=-1.0, K=1.0, kappa=100.0, N=3, a0=0.01, a1=0.0,
            t_end=1.0),
])
def test_stiff_build_is_refused_within_a_few_thousand_steps(build):
    with _budgeted(30_000), pytest.raises(StepFailureError) as err:
        build()
    assert str(err.value).endswith(
        " failed: the problem is stiff, h*lambda over 3.25 on 15 steps.")
    a, v = err.value.state
    assert err.value.t > 0.0 and a > 0.0 and math.isfinite(v)


def test_stiff_relaxation_is_refused_only_with_many_steps_left():
    # the relaxation above is refused at its equilibrium a*
    with pytest.raises(StepFailureError) as err:
        integrate_pressureless(theta=1.0, lam=-1e-9, N=1, a0=1.0, a1=-1.0,
                               t_end=2.0)
    a, v = err.value.state
    assert 1.0 < err.value.t < 1.001
    assert a == pytest.approx(1e-9 / (1.0 + 1e-9), rel=1e-6)
    assert abs(v) < 1e-9
    # at lam = -1e-4 the steps are held near 3.3/(|lam|/a*^2) ~ 3.3e-4:
    # some 3000 of them to t_end, under STIFF_STEPS, so the build runs on
    # through the stiffness test's checks and completes at a*
    fn = integrate_pressureless(theta=1.0, lam=-1e-4, N=1, a0=1.0, a1=-1.0,
                                t_end=2.0)
    assert fn.status == "completed" and fn.stats["accepted"] > 3000
    assert fn.pair(fn.t_end)[0] == pytest.approx(1e-4 / (1.0 + 1e-4), rel=1e-6)


# --- the stepper against the stepper as first written -------------------------

def _stepper_runs(*builds):
    """(F, a0, a1, t_end, cap_a, switch) of every _dopri45 call in t, the
    t-piece, that the builds make."""
    runs = []
    dopri45 = scaling._dopri45

    def spy(F, x, y, z, x_end, rtol, atol, cap, switch=None):
        if rtol == scaling.RTOL:
            runs.append((F, y, z, x_end, cap, switch))
        return dopri45(F, x, y, z, x_end, rtol, atol, cap, switch)

    with mock.patch.object(scaling, "_dopri45", spy):
        for build in builds:
            build()
    return runs


def _recorded(F, calls):
    """F, appending each call's a, a' and a'' to calls."""
    def rhs(t, a, v):
        x = F(t, a, v)
        calls.append((a, v, x[1]))
        return x
    return rhs


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _same_steps_as_first_written(F, a0, a1, t_end, cap_a, switch=None):
    """Run _dopri45 and tests.oracles.dopri45, at eps_a = 0, on one
    problem that the stiffness test lets through, and assert that both
    give the same rows, stop, rejected count and last state, and call the
    right-hand side alike, bit for bit.  Where switch stops _dopri45 at a
    collapse's tail, its rows, calls and last state are those of the
    oracle up to there.  Returns (stop, rejected)."""
    calls, ref_calls = [], []
    rows, stop, rejected, last = scaling._dopri45(
        _recorded(F, calls), 0.0, a0, a1, t_end, scaling.RTOL, scaling.ATOL, cap_a,
        switch)
    ref_rows, ref_stop, ref_rejected, ref_last = oracles.dopri45(
        _recorded_accel(F, ref_calls), a0, a1, t_end, 0.0, cap_a)
    # a row (t_old, t_new, a_old, v_old, the slopes of a, those of v), where
    # the first slope of a is v_old, and the oracle's has no v_old
    n = len(rows)
    assert rows.shape == (n, 18) and _bits(rows[:, 3]) == _bits(rows[:, 4])
    rows = np.delete(rows, 3, axis=1)
    if stop == scaling.STOP_SWITCH:
        assert n < len(ref_rows)
        ref_last = ref_rows[n][0], ref_rows[n][2], ref_rows[n][3]
        ref_rows, ref_stop, ref_calls = ref_rows[:n], stop, ref_calls[:len(calls)]
        assert rejected <= ref_rejected
    else:
        assert rejected == ref_rejected
    assert _bits(rows) == _bits(ref_rows)
    assert stop == ref_stop
    assert _bits(last) == _bits(ref_last)
    assert len(calls) == len(ref_calls) and _bits(calls) == _bits(ref_calls)
    return stop, rejected


def _recorded_accel(F, calls):
    """a'' of F as the oracle's g(a, a'), appending each call's a, a'
    and a'' to calls."""
    def g(a, v):
        x = F(0.0, a, v)[1]
        calls.append((a, v, x))
        return x
    return g


def test_stepper_keeps_every_bit_of_the_stepper_as_first_written(monkeypatch):
    def pole():
        with pytest.raises(StepFailureError):
            scaling._integrate(_pole, 1.0, 0.0, 2.0, "test")

    runs = [(F, a0, a1, t_end, scaling.CAP_A_FRAC * a0, tail and tail[0])
            for _, F, a0, a1, t_end, tail in _integrated_scalings(monkeypatch)]
    runs += _stepper_runs(
        # the runs of test_stats_count_the_steps_and_name_the_stop;
        # lam = 0 is linear, so its error norm is exactly 0
        lambda: integrate_isothermal(B=-1.0, K=1.0, kappa=1.0, N=3, a0=1.0,
                                     a1=0.0, t_end=0.5),
        lambda: integrate_isothermal(B=1.0, K=1.0, kappa=1.0, N=3, a0=1.0,
                                     a1=0.0, t_end=1.5),
        lambda: integrate_pressureless(theta=1.0, lam=0.0, N=1, a0=1.0, a1=-1.0,
                                       t_end=2.0),
        lambda: integrate_pressureless(theta=0.1, lam=-1.0, N=3, a0=1.0, a1=1.0,
                                       t_end=5.0),
        # NaN stages: a negative trial a, a**-299 overflowing, a braking layer
        lambda: integrate_polytropic(gamma=1.5, K=1e-9, kappa=1e-9, N=1, a0=1.0,
                                     a1=-1.0, t_end=2.0),
        lambda: integrate_pressureless(theta=100.0, lam=1e-200, N=3, a0=1.0,
                                       a1=-3.0, t_end=0.5),
        lambda: integrate_pressureless(theta=100.0, lam=1e-295, N=3, a0=1.0,
                                       a1=-1.0, t_end=2.0),
        # 3323 steps at RK45's stability limit, too few left for the
        # stiffness test to stop it
        lambda: integrate_pressureless(theta=1.0, lam=-1e-4, N=1, a0=1.0,
                                       a1=-1.0, t_end=2.0),
        pole)
    assert len(runs) == 16
    outcomes = [_same_steps_as_first_written(*args) for args in runs]
    stops = {stop for stop, _ in outcomes}
    assert stops == {scaling.STOP_COMPLETED, scaling.STOP_DIVERGE,
                     scaling.STOP_UNDERFLOW, scaling.STOP_SWITCH}
    assert sum(rejected > 0 for _, rejected in outcomes) >= 3


_FAMILY_ODES = st.one_of(
    # isothermal, B of either sign
    st.builds(lambda B, K, kappa, N: (2.0 * B * K, 2.0 * B * N * kappa, 2.0),
              st.floats(-2.0, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
              st.integers(1, 3)),
    # polytropic; a collapse or an expansion by the sign of a1
    st.builds(lambda gamma, K, kappa, N: (K * gamma, N * kappa * gamma,
                                          N * gamma - N + 2.0),
              st.floats(1.05, 3.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
              st.integers(1, 3)),
    # pressureless at theta = 1 and off it
    st.builds(lambda lam: (0.0, lam, 2.0), st.floats(-2.0, 2.0)),
    st.builds(lambda theta, lam, N: (0.0, -lam, N * theta - N + 2.0),
              st.floats(0.3, 3.0).filter(lambda x: x != 1.0), st.floats(-2.0, 2.0),
              st.integers(1, 3)),
)


@settings(max_examples=25, deadline=None)
@given(ode=_FAMILY_ODES, a0=st.floats(0.5, 2.0), a1=st.floats(-1.5, 1.5),
       t_end=st.floats(0.1, 2.0))
def test_stepper_keeps_every_bit_on_random_instances(ode, a0, a1, t_end):
    # the first-written stepper has no stiffness test: on a stiff draw (a
    # lam near -1e-9 at theta = 1, say) it would step to t_end at RK45's
    # stability limit, so such a draw is left out
    F, cap_a = scaling._ode(*ode), scaling.CAP_A_FRAC * a0
    switch = (scaling._tail_ode(*ode) or [None])[0]
    assume(scaling._dopri45(F, 0.0, a0, a1, t_end, scaling.RTOL, scaling.ATOL,
                            cap_a)[1] != scaling.STOP_STIFF)
    _same_steps_as_first_written(F, a0, a1, t_end, cap_a, switch)
