"""Independent numerical oracles used by the tests.

Everything here is deliberately dumb and self-contained: fixed-step
classical RK4 in pure Python, plus a crossing locator, and scipy's RK45
as the reference the package's own Dormand-Prince stepper must match.
These never call into the package's adaptive integrators, so agreement
between the routes is a real check rather than a tautology.
"""


def rk4_second_order(accel, a0, a1, t_end, h):
    """Integrate a'' = accel(a, a') from (a0, a1) with fixed-step RK4.

    Returns (a, adot) at t_end (t_end is rounded to a whole number of
    steps; callers pick t_end as an exact multiple of h).
    """
    n = int(round(t_end / h))
    a, v = float(a0), float(a1)
    for _ in range(n):
        k1a = v
        k1v = accel(a, v)
        k2a = v + 0.5 * h * k1v
        k2v = accel(a + 0.5 * h * k1a, v + 0.5 * h * k1v)
        k3a = v + 0.5 * h * k2v
        k3v = accel(a + 0.5 * h * k2a, v + 0.5 * h * k2v)
        k4a = v + h * k3v
        k4v = accel(a + h * k3a, v + h * k3v)
        a += h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
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


def rk45_scaling(accel, a0, a1, t_end, rtol, atol, eps_a, cap_a):
    """a'' = accel(a, a') from (a0, a1) with scipy's solve_ivp RK45,
    stopped by the terminal events a = eps_a (falling) and a = cap_a
    (rising), the way the package's scalings were built on scipy.

    Returns (status, vanishing time or None, solve_ivp's result): a
    vanishing found by the event is refined to 1e-10 by bisection on
    the dense output, and a step-size underflow counts as a vanishing
    at the last accepted time.  Imports scipy.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    def vanish(t, y):
        return y[0] - eps_a

    def diverge(t, y):
        return y[0] - cap_a

    vanish.terminal, vanish.direction = True, -1
    diverge.terminal, diverge.direction = True, 1
    with np.errstate(all="ignore"):  # numpy's NaN for a trial a < 0
        sol = solve_ivp(lambda t, y: [y[1], accel(y[0], y[1])], [0.0, t_end],
                        [a0, a1], method="RK45", rtol=rtol, atol=atol,
                        dense_output=True, events=[vanish, diverge])
    if sol.status == -1:
        return "vanished", float(sol.t[-1]), sol
    if sol.status == 1 and len(sol.t_events[0]):
        lo, hi = float(sol.t[-2]), float(sol.t_events[0][0])
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if sol.sol(mid)[0] > eps_a:
                lo = mid
            else:
                hi = mid
        return "vanished", 0.5 * (lo + hi), sol
    return ("diverged" if sol.status == 1 else "completed"), None, sol
