"""Scaling functions a(t) and their time derivatives.

The power-law family has the closed form a(t) = sigma*(m*t + n)**s; all
other families integrate a second-order ODE in a(t) reduced to the first
order system (a, a').  Integration is forward from t = 0, adaptive
(rtol 1e-10, atol 1e-12), with early termination when a(t) falls to the
vanishing threshold or exceeds a divergence cap.  Dense trajectories are
stored on a uniform mesh and interpolated with cubic Hermite polynomials.
"""

import math

import numpy as np

from ._interp import hermite, unbox
from .errors import DomainError, StepFailureError, refuse

#: a(t) <= EPS_A_FRAC * a0 terminates integration with status "vanished"
EPS_A_FRAC = 1e-8

#: a(t) >= CAP_A_FRAC * a0 terminates integration with status "diverged"
CAP_A_FRAC = 1e12

#: spacing of the stored dense trajectory
DEFAULT_DT = 1e-3

RTOL = 1e-10
ATOL = 1e-12

STATUS_COMPLETED = "completed"
STATUS_VANISHED = "vanished"
STATUS_DIVERGED = "diverged"


class ScalingFn:
    """Base class: a positive scaling a(t) with derivative adot(t).

    A subclass implements pair(t) and overrides what differs of:

    status          how its construction ended, STATUS_COMPLETED unless
                    an integrated trajectory vanished or diverged
    t_end           the last time it is sampled at, inf if unbounded
    vanishing_time  the time t* where a reaches 0, or None if never
    """

    status = STATUS_COMPLETED
    t_end = math.inf
    vanishing_time = None

    def blowup(self):
        """The record of where a vanishes, as ``nssol blowup`` writes it."""
        return {"vanishing_time": self.vanishing_time}

    def pair(self, t):
        """(a, adot) at t, a scalar (floats back) or an array of times."""
        raise NotImplementedError

    def a(self, t):
        return self.pair(t)[0]

    def adot(self, t):
        return self.pair(t)[1]


class PowerLawScaling(ScalingFn):
    """Closed form a(t) = sigma*(m*t + n)**s on {t : m*t + n > 0}.

    For m < 0 the scaling vanishes at t* = -n/m, the root of m*t + n,
    and the core density shape(0)/a(t)**N grows without bound as
    t -> t*.
    """

    def __init__(self, sigma, m, n, s):
        if not 0.0 < sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {sigma}")
        if not 0.0 < n < np.inf:
            raise ValueError(f"n must be finite and > 0, got {n}")
        if not 0.0 < s <= 1.0:
            raise ValueError(f"s must be in (0, 1], got {s}")
        if not np.isfinite(m):
            raise ValueError(f"m must be finite, got {m}")
        self.sigma = float(sigma)
        self.m = float(m)
        self.n = float(n)
        self.s = float(s)

    def pair(self, t):
        t = np.asarray(t, dtype=float)
        base = self.m * t + self.n
        refuse(DomainError, base <= 0.0,
               "m*t + n = {base} <= 0 at t={t!r}; scaling undefined", base=base, t=t)
        return (unbox(self.sigma * np.power(base, self.s)),
                unbox(self.s * self.m * self.sigma * np.power(base, self.s - 1.0)))

    @property
    def vanishing_time(self):
        if self.m < 0.0:
            return -self.n / self.m
        return None

    @property
    def t_end(self):
        """Just short of t*, where a is still defined, or inf."""
        t_star = self.vanishing_time
        return math.inf if t_star is None else t_star * (1.0 - 1e-9)

    def __repr__(self):
        return (f"PowerLawScaling(sigma={self.sigma}, m={self.m}, "
                f"n={self.n}, s={self.s})")


class NumericScaling(ScalingFn):
    """Dense (t, a, adot) trajectory with cubic Hermite interpolation.

    The acceleration values at the nodes come from the generating ODE,
    so both a and adot interpolate at O(dt^4) / O(dt^3).  Evaluation
    outside [0, t_last] raises OutOfRangeError; t_last is shorter than the
    requested span when the trajectory vanished or diverged.
    """

    def __init__(self, ts, a_values, adot_values, accel_values, status,
                 vanishing_time=None, label=""):
        ts = np.array(ts, dtype=float)
        # a and adot are one stack of curves: t is located once for both
        values = np.array([a_values, adot_values], dtype=float)
        slopes = np.array([adot_values, accel_values], dtype=float)
        if not np.all(np.diff(ts) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(values[0] > 0.0):
            raise ValueError("trajectory a values must stay positive")
        for arr in (ts, values, slopes):
            arr.flags.writeable = False
        self.ts = ts
        self._values = values
        self._slopes = slopes
        self.a_values, self.adot_values = values
        self.status = status
        self.vanishing_time = vanishing_time
        self.label = label

    @property
    def t_end(self):
        return float(self.ts[-1])

    def blowup(self):
        return {**super().blowup(), "status": self.status,
                "searched_until": self.t_end}

    def pair(self, t):
        a, adot = hermite(self.ts, self._values, self._slopes, t, "t")
        return unbox(a), unbox(adot)

    def __repr__(self):
        return (f"NumericScaling({self.label}, {len(self.ts)} nodes, "
                f"t_end={self.t_end}, status={self.status})")


def _bisect_vanishing(dense, t_lo, t_hi, eps_a):
    """Refine the time where a(t) = eps_a to 1e-10 on the dense output."""
    while t_hi - t_lo > 1e-10:
        mid = 0.5 * (t_lo + t_hi)
        if dense(mid)[0] - eps_a > 0.0:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def _integrate(accel, a0, a1, t_end, label):
    """Integrate a'' = accel(a, a') from (a0, a1) over [0, t_end].

    Returns a NumericScaling.  Terminates early with status "vanished"
    when a <= EPS_A_FRAC*a0 (the vanishing time is then bracketed to
    1e-10 by bisection on the dense output) or "diverged" when
    a >= CAP_A_FRAC*a0.
    """
    if not (0.0 < a0 < np.inf and 0.0 < t_end < np.inf):
        raise ValueError(f"a0 and t_end must be finite and > 0, got {a0}, {t_end}")
    if not np.isfinite(accel(a0, a1)):  # NaN constants stall solve_ivp
        raise ValueError(f"a'' is not finite at t=0 (a0={a0}, a1={a1})")
    from scipy.integrate import solve_ivp

    eps_a = EPS_A_FRAC * a0
    cap_a = CAP_A_FRAC * a0

    def rhs(t, state):
        return [state[1], accel(state[0], state[1])]

    def vanish_event(t, state):
        return state[0] - eps_a

    vanish_event.terminal = True
    vanish_event.direction = -1

    def diverge_event(t, state):
        return state[0] - cap_a

    diverge_event.terminal = True
    diverge_event.direction = 1

    sol = solve_ivp(rhs, [0.0, t_end], [a0, a1], method="RK45",
                    rtol=RTOL, atol=ATOL, dense_output=True,
                    events=[vanish_event, diverge_event])

    status = STATUS_COMPLETED
    t_v = None
    t_stop = t_end
    if sol.status == -1:
        # Step-size underflow during a fast collapse means the remaining
        # time to a = 0 fell below the float64 resolution of t itself
        # (a ~ (t_v - t)**(1/3) from the viscous runaway, or the steep
        # collapse at N = 3, gamma = 2, which stalls near a = 2e-3*a0).
        # When the linear-extrapolation bound a/|a'| already localizes the
        # vanishing time tighter than the 1e-10 bracket, report it as
        # vanished; anything else is a genuine failure.
        a_last = float(sol.y[0, -1])
        v_last = float(sol.y[1, -1])
        t_last = float(sol.t[-1])
        remaining = a_last / abs(v_last) if v_last < 0.0 else np.inf
        if remaining < 1e-10:
            status = STATUS_VANISHED
            t_v = t_last
            t_stop = t_last
        else:
            raise StepFailureError(
                f"scaling integration ({label}) failed: {sol.message}",
                t=t_last, state=(a_last, v_last))
    elif sol.status == 1:
        if len(sol.t_events[0]):
            status = STATUS_VANISHED
            te = float(sol.t_events[0][0])
            t_prev = float(sol.t[-2]) if len(sol.t) > 1 else 0.0
            t_v = _bisect_vanishing(sol.sol, t_prev, te, eps_a)
            t_stop = te
        else:
            status = STATUS_DIVERGED
            t_stop = float(sol.t_events[1][0])

    n_nodes = max(int(np.floor(t_stop / DEFAULT_DT)), 1)
    ts = np.linspace(0.0, n_nodes * DEFAULT_DT, n_nodes + 1)
    if ts[-1] < t_stop - 1e-15 * max(1.0, t_stop):
        ts = np.append(ts, t_stop)
    else:
        ts[-1] = t_stop
    states = sol.sol(ts)
    a_vals = states[0]
    adot_vals = states[1]
    # the event node can undershoot eps_a by the root-finder tolerance
    a_vals = np.maximum(a_vals, 0.5 * eps_a)
    accel_vals = accel(a_vals, adot_vals)
    return NumericScaling(ts, a_vals, adot_vals, accel_vals, status,
                          vanishing_time=t_v, label=label)


def integrate_isothermal(B, K, kappa, N, a0, a1, t_end):
    """Scaling ODE of the exponential-quadratic (theta = gamma = 1) family.

    Momentum balance for the shape A*exp(B*z**2 + C) requires

        a'' = -2*B*K/a + 2*B*N*kappa*a'/a**2 .

    For B < 0 the pressure gradient drives expansion; for B > 0 it
    drives collapse and the trajectory can vanish in finite time.
    """

    def accel(a, ad):
        return -2.0 * B * K / a + 2.0 * B * N * kappa * ad / a ** 2

    return _integrate(accel, a0, a1, t_end, "isothermal")


def integrate_polytropic(gamma, K, kappa, N, a0, a1, t_end):
    """Scaling ODE of the power-root (theta = gamma > 1) family:

        a'' = -K*gamma*a**(N - theta*N - 1)
              + N*kappa*theta*a'*a**(N - theta*N - 2),   theta = gamma.
    """
    if not gamma > 1.0:
        raise ValueError(f"gamma must be > 1, got {gamma}")
    theta = gamma

    def accel(a, ad):
        return (-K * gamma * a ** (N - theta * N - 1)
                + N * kappa * theta * ad * a ** (N - theta * N - 2))

    return _integrate(accel, a0, a1, t_end, "polytropic")


def integrate_pressureless(theta, lam, N, a0, a1, t_end):
    """Scaling ODE of the pressureless families:

        a'' = lam*a'/a**2                      for theta = 1,
        a'' = -lam*a'/a**(N*theta - N + 2)     for theta != 1.
    """
    if theta == 1.0:
        def accel(a, ad):
            return lam * ad / a ** 2

        label = "pressureless_theta1"
    else:
        expo = N * theta - N + 2.0

        def accel(a, ad):
            return -lam * ad / a ** expo

        label = "pressureless"
    return _integrate(accel, a0, a1, t_end, label)


def vanishing_time(fn):
    """Time t* where a -> 0, or None if the scaling never vanishes.

    For a power law with m < 0 this is the exact root -n/m of m*t + n;
    for a numeric trajectory it is the bisection-refined time where a
    reached the vanishing threshold.
    """
    if not isinstance(fn, ScalingFn):
        raise TypeError(f"not a scaling function: {fn!r}")
    return fn.vanishing_time
