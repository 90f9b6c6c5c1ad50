"""Independent numerical oracles used by the tests.

Everything here is deliberately dumb and self-contained: fixed-step
classical RK4 in pure Python, plus a crossing locator, and scipy's RK45
as the reference the package's own Dormand-Prince stepper must match.
These never call into the package's adaptive integrators, so agreement
between the routes is a real check rather than a tautology.  The one
exception is ``dopri45``, a verbatim copy of the package's own stepper
as first written, which the tuned stepper must equal bit for bit, up to
where a collapse's tail takes over.
"""

import math

from nssol.scaling import (
    _A2, _A3, _A4, _A5, _A6, _B, _E, ATOL, RTOL, STOP_COMPLETED, STOP_DIVERGE,
    STOP_UNDERFLOW,
)


def rk4_second_order(accel, a0, a1, t_end, h):
    """Integrate a'' = accel(a, a') from (a0, a1) with fixed-step RK4.

    Returns (a, adot) at t_end (t_end is rounded to a whole number of
    steps; callers pick t_end as an exact multiple of h).
    """
    n = int(round(t_end / h))
    a, v = float(a0), float(a1)
    # 0.5*h*k parses as (0.5*h)*k, and the velocity at which each later
    # stage is taken is that stage's slope of a (k2a, k3a, k4a; k1a = v):
    # each is computed once, to the same bits
    half_h = 0.5 * h
    for _ in range(n):
        k1v = accel(a, v)
        k2a = v + half_h * k1v
        k2v = accel(a + half_h * v, k2a)
        k3a = v + half_h * k2v
        k3v = accel(a + half_h * k2a, k3a)
        k4a = v + h * k3v
        k4v = accel(a + h * k3a, k4a)
        a += h * (v + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
    return a, v


def rk4_first_order(slope, y0, z_end, h):
    """Integrate y' = slope(z, y) from y(0) = y0 with fixed-step RK4."""
    n = int(round(z_end / h))
    y = float(y0)
    z = 0.0
    for _ in range(n):
        k1 = slope(z, y)
        k2 = slope(z + 0.5 * h, y + 0.5 * h * k1)
        k3 = slope(z + 0.5 * h, y + 0.5 * h * k2)
        k4 = slope(z + h, y + h * k3)
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        z += h
    return y


def _rk4_step(accel, a, v, h):
    k1a = v
    k1v = accel(a, v)
    k2a = v + 0.5 * h * k1v
    k2v = accel(a + 0.5 * h * k1a, v + 0.5 * h * k1v)
    k3a = v + 0.5 * h * k2v
    k3v = accel(a + 0.5 * h * k2a, v + 0.5 * h * k2v)
    k4a = v + h * k3v
    k4v = accel(a + h * k3a, v + h * k3v)
    return (a + h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)


def rk4_crossing_time(accel, a0, a1, threshold, h, t_max):
    """Time at which a(t) first falls to `threshold`, by fixed-step RK4.

    Marches at step h until a <= threshold, then re-integrates the
    bracketing step with h/100 repeatedly (down to 1e-12) before a final
    linear interpolation, so collapses much faster than linear are still
    located to ~1e-12 in t.  Returns None if there is no crossing before
    t_max.
    """
    def crossing_ahead(a, v, a_next, v_next, h_loc):
        # a fixed step lands on plausible-looking values even after
        # passing a collapse singularity, so the reliable trigger is the
        # predicted time-to-zero dropping inside one step, checked BEFORE
        # trusting the landing point
        if a_next != a_next or abs(a_next) == float("inf"):
            return True
        if a_next <= threshold:
            return True
        if v < 0.0 and a_next > 2.0 * a + 1e-12:
            return True  # bounced off the singularity
        return v_next < 0.0 and (a_next - threshold) / (-v_next) < h_loc

    def march(a, v, t, h_loc, t_stop):
        while t < t_stop - 0.5 * h_loc:
            a_next, v_next = _rk4_step(accel, a, v, h_loc)
            if crossing_ahead(a, v, a_next, v_next, h_loc):
                return a, v, t, t + h_loc
            a, v, t = a_next, v_next, t + h_loc
        return None

    state = march(float(a0), float(a1), 0.0, h, t_max)
    if state is None:
        return None
    while True:
        a_pre, v_pre, t_pre, t_post = state
        h_loc = (t_post - t_pre) / 100.0
        if h_loc <= 1e-13:
            break
        refined = march(a_pre, v_pre, t_pre, h_loc, t_post + 0.6 * h_loc)
        if refined is None:
            break  # keep the current bracket
        state = refined
    a_pre, v_pre, t_pre, t_post = state
    if v_pre < 0.0:
        dt = (a_pre - threshold) / (-v_pre)
        return t_pre + min(dt, t_post - t_pre)
    return t_pre + 0.5 * (t_post - t_pre)


def rk45_scaling(accel, a0, a1, t_end, rtol, atol, cap_a):
    """a'' = accel(a, a') from (a0, a1) with scipy's solve_ivp RK45,
    stopped by the terminal event a = cap_a (rising), the way the
    package's scalings were built on scipy.

    Returns (status, vanishing time or None, solve_ivp's result): a
    step-size underflow counts as a vanishing at the last accepted
    time, as a collapse of the package's stepper in t ends.  Imports
    scipy.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    def diverge(t, y):
        return y[0] - cap_a

    diverge.terminal, diverge.direction = True, 1
    with np.errstate(all="ignore"):  # numpy's NaN for a trial a < 0
        sol = solve_ivp(lambda t, y: [y[1], accel(y[0], y[1])], [0.0, t_end],
                        [a0, a1], method="RK45", rtol=rtol, atol=atol,
                        dense_output=True, events=[diverge])
    if sol.status == -1:
        return "vanished", float(sol.t[-1]), sol
    return ("diverged" if sol.status == 1 else "completed"), None, sol


# --- the package's Dormand-Prince stepper as it was first written -------------
#
# A verbatim copy of nssol.scaling._dopri45 before its loop was tuned
# for speed, kept as the reference the tuned stepper must equal bit for
# bit: same rows, stop reason, rejected count and last state.  The
# package's stepper now takes any first order system (y, z)' = F(x, y, z);
# on the scaling ODE from t = 0 it must make this one's steps, and where
# a collapse switches to its tail integrated in a (STOP_SWITCH), its rows
# are this one's up to there.  It shares the package's tableau and
# tolerances, so it checks the loop, not the constants.  It also stopped
# after a step that ends with a <= eps_a (STOP_VANISH), a stop the
# package has no more: at eps_a = 0 it never fires on a g that is NaN at
# a <= 0, as the package's _ode is, since a NaN stage rejects the step,
# so every accepted a is > 0.

#: the stop after a step that ends with a <= eps_a
STOP_VANISH = "vanish_event"


def _rms(x, y):
    return math.sqrt(x * x + y * y) / 2 ** 0.5


def dopri45(g, a, v, t_end, eps_a, cap_a):
    """Dormand-Prince 5(4) steps of (a, v)' = (v, g(a, v)) from t = 0,
    with the arithmetic and the step control of scipy's RK45.

    The first step is Hairer's choice (Solving ODEs I, II.4).  The error
    norm is the RMS of err/(ATOL + max(|y|, |y_new|)*RTOL); a step is
    accepted below 1 and the next one scaled by 0.9*norm**(-1/5) within
    [0.2, 10], not grown right after a rejection; a NaN stage rejects
    with 0.2.  Stepping stops at t_end, after the first step that ends
    with a <= eps_a or a >= cap_a, or when the step falls below
    10 ulp(t) (STOP_UNDERFLOW: the caller decides whether that is a
    vanishing).  Returns (rows, stop, rejected, (t, a, v)): one row
    (t_old, t_new, a_old, the seven stage slopes of a, the first of them
    v_old, then those of v) per accepted step, the STOP_* reason, the
    count of rejected steps and the last accepted state.
    """
    f = g(a, v)
    sa, sv = ATOL + abs(a) * RTOL, ATOL + abs(v) * RTOL
    d0, d1 = _rms(a / sa, v / sv), _rms(v / sa, f / sv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    v1 = v + h0 * f
    d2 = _rms((v1 - v) / sa, (g(a + h0 * v, v1) - f) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_end)

    a31, a32 = _A3
    a41, a42, a43 = _A4
    a51, a52, a53, a54 = _A5
    a61, a62, a63, a64, a65 = _A6
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E
    rows = []
    rejected = 0
    t = 0.0
    while True:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        retry = False
        while True:
            if h_abs < min_step:
                return rows, STOP_UNDERFLOW, rejected, (t, a, v)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            v2 = v + f * _A2 * h
            g2 = g(a + v * _A2 * h, v2)
            v3 = v + (f * a31 + g2 * a32) * h
            g3 = g(a + (v * a31 + v2 * a32) * h, v3)
            v4 = v + (f * a41 + g2 * a42 + g3 * a43) * h
            g4 = g(a + (v * a41 + v2 * a42 + v3 * a43) * h, v4)
            v5 = v + (f * a51 + g2 * a52 + g3 * a53 + g4 * a54) * h
            g5 = g(a + (v * a51 + v2 * a52 + v3 * a53 + v4 * a54) * h, v5)
            v6 = v + (f * a61 + g2 * a62 + g3 * a63 + g4 * a64 + g5 * a65) * h
            g6 = g(a + (v * a61 + v2 * a62 + v3 * a63 + v4 * a64 + v5 * a65) * h, v6)
            a_new = a + h * (v * b1 + v3 * b3 + v4 * b4 + v5 * b5 + v6 * b6)
            v_new = v + h * (f * b1 + g3 * b3 + g4 * b4 + g5 * b5 + g6 * b6)
            g7 = g(a_new, v_new)
            err = _rms(
                (v * e1 + v3 * e3 + v4 * e4 + v5 * e5 + v6 * e6 + v_new * e7) * h
                / (ATOL + max(abs(a), abs(a_new)) * RTOL),
                (f * e1 + g3 * e3 + g4 * e4 + g5 * e5 + g6 * e6 + g7 * e7) * h
                / (ATOL + max(abs(v), abs(v_new)) * RTOL))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if retry else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)  # max() drops a NaN norm
            retry = True
            rejected += 1
        rows.append((t, t_new, a, v, v2, v3, v4, v5, v6, v_new,
                     f, g2, g3, g4, g5, g6, g7))
        t, a, v, f = t_new, a_new, v_new, g7
        if a <= eps_a:
            return rows, STOP_VANISH, rejected, (t, a, v)
        if a >= cap_a:
            return rows, STOP_DIVERGE, rejected, (t, a, v)
        if t >= t_end:
            return rows, STOP_COMPLETED, rejected, (t, a, v)
