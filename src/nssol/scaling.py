"""Scaling functions a(t) and their time derivatives.

The power-law family has the closed form a(t) = sigma*(m*t + n)**s; all
other families integrate a second-order ODE in a(t) reduced to the first
order system (a, a').  Integration is forward from t = 0 with the
package's own Dormand-Prince 5(4) stepper, scipy's RK45 redone on Python
floats (rtol 1e-10, atol 1e-12), with early termination when a(t) falls
to the vanishing threshold or exceeds a divergence cap.  A trajectory is
served by the stepper's own quartic dense output: each accepted step is
a node, and between nodes a(t) and a'(t) are that step's polynomials.
"""

import math

import numpy as np

from ._interp import hermite, unbox
from .errors import DomainError, StepFailureError, refuse

#: a(t) <= EPS_A_FRAC * a0 terminates integration with status "vanished"
EPS_A_FRAC = 1e-8

#: a(t) >= CAP_A_FRAC * a0 terminates integration with status "diverged"
CAP_A_FRAC = 1e12

RTOL = 1e-10
ATOL = 1e-12

STATUS_COMPLETED = "completed"
STATUS_VANISHED = "vanished"
STATUS_DIVERGED = "diverged"


class ScalingFn:
    """Base class: a positive scaling a(t), read with its derivative
    a'(t) through pair(t), the one evaluation entry point.

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
        refuse(DomainError, ~(base > 0.0),
               "m*t + n = {base} not > 0 at t={t!r}; scaling undefined", base=base, t=t)
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
    """An integrated trajectory, served by its integrator's dense output.

    ts are the accepted steps' start times and the end, values the stack
    (a, adot) there, and table, shape (4, 2, len(ts)), the coefficients
    of s, s**2, s**3 and s**4, s = t - ts[i], of each step's quartic in
    a and in adot (zero in the column of the end), all finite.  They are
    held in _interp.hermite's layout, one (2, 5, len(ts) + 2) table that
    ts, a_values and adot_values view read-only.  Evaluation is one
    lookup and one four-term Horner, so pair(t) is the integrator's own
    dense output to rounding.
    Evaluation outside [0, t_last], up to an edge tolerance of
    1e-12*max(1, t_last) that serves the end values, raises
    OutOfRangeError; t_last is shorter than the requested span when the
    trajectory vanished or diverged.  ``stats`` holds the integrator's
    counts when it built the trajectory: ``nfev``, ``accepted`` and
    ``rejected`` steps, and the ``stop`` reason (one of the STOP_*
    values), else None.
    """

    def __init__(self, ts, values, table, status, vanishing_time=None,
                 label="", stats=None):
        # a NaN column at each end, where hermite puts t out of range;
        # a and adot are one stack of curves: t is located once for both
        self._nodes = np.full(len(ts) + 2, np.nan)
        self._coef = np.full((2, 5, len(ts) + 2), np.nan)
        self._nodes[1:-1] = ts
        self._coef[:, 0, 1:-1] = values
        self._coef[:, 1:, 1:-1] = np.swapaxes(table, 0, 1)
        self._nodes.flags.writeable = self._coef.flags.writeable = False
        ts, values = self._nodes[1:-1], self._coef[:, :, 1:-1]
        if not np.all(np.diff(ts) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(values[0, 0] > 0.0):
            raise ValueError("trajectory a values must stay positive")
        # NaN is what hermite serves out of range: none may sit in range
        if not (np.isfinite(ts).all() and np.isfinite(values).all()):
            raise ValueError("trajectory nodes must be finite")
        pad = 1e-12 * max(1.0, abs(ts[-1]))
        self._edges = np.concatenate(
            ([ts[0] - pad], ts[1:], [np.nextafter(ts[-1] + pad, np.inf)]))
        self._edges.flags.writeable = False
        self.ts = ts
        self.a_values, self.adot_values = values[:, 0]
        self.status = status
        self.vanishing_time = vanishing_time
        self.label = label
        self.stats = stats

    @property
    def t_end(self):
        return float(self.ts[-1])

    def blowup(self):
        return {**super().blowup(), "status": self.status,
                "searched_until": self.t_end}

    def pair(self, t):
        a, adot = hermite(self._edges, self._nodes, self._coef, t, "t")
        return unbox(a), unbox(adot)

    def __repr__(self):
        return (f"NumericScaling({self.label}, {len(self.ts)} nodes, "
                f"t_end={self.t_end}, status={self.status})")


#: Dormand & Prince's 5(4) pair (J. Comput. Appl. Math. 6, 1980) as
#: scipy's RK45 states it: the stage rows A, the fifth-order weights B
#: (the zero weight of stage 2 left out), the error weights E over the
#: seven stages of a step (likewise), and P, which maps the seven stages
#: to the coefficients of x, x**2, x**3, x**4 of Shampine's quartic
#: dense output, x = (t - t_old)/h
_A2 = 1 / 5
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])

#: why an integration stopped, NumericScaling.stats["stop"]
STOP_COMPLETED = "completed"
STOP_VANISH = "vanish_event"
STOP_DIVERGE = "diverge_event"
STOP_UNDERFLOW = "underflow_vanished"


def _float_rhs(accel):
    """accel on Python floats as numpy would compute it on float64: a
    complex power of a negative a, a ZeroDivisionError or an
    OverflowError gives NaN, which rejects the step that met it."""
    def g(a, v):
        try:
            x = accel(a, v)
        except (ZeroDivisionError, OverflowError):
            return math.nan
        return math.nan if isinstance(x, complex) else x
    return g


def _rms(x, y):
    return math.sqrt(x * x + y * y) / 2 ** 0.5


def _dopri45(g, a, v, t_end, eps_a, cap_a):
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


def _bisect(before, lo, hi, width=0.0):
    """Narrow [lo, hi], with before(lo) true and before(hi) false, by
    bisection until hi - lo <= width, or to adjacent floats."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if before(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _integrate(accel, a0, a1, t_end, label):
    """Integrate a'' = accel(a, a') from (a0, a1) over [0, t_end].

    Returns a NumericScaling.  Terminates early with status "vanished"
    when a <= EPS_A_FRAC*a0 (the vanishing time is then bracketed to
    1e-10 by bisection on the dense output) or "diverged" when
    a >= CAP_A_FRAC*a0; the crossing that ends the trajectory is the
    float nearest to it on the last step's dense output.
    """
    if not (0.0 < a0 < np.inf and 0.0 < t_end < np.inf):
        raise ValueError(f"a0 and t_end must be finite and > 0, got {a0}, {t_end}")
    a0, a1, t_end = float(a0), float(a1), float(t_end)
    g = _float_rhs(accel)
    if not math.isfinite(g(a0, a1)):  # NaN constants stall the stepper
        raise ValueError(f"a'' is not finite at t=0 (a0={a0}, a1={a1})")
    eps_a = EPS_A_FRAC * a0
    cap_a = CAP_A_FRAC * a0
    rows, stop, rejected, (t_last, a_last, v_last) = _dopri45(
        g, a0, a1, t_end, eps_a, cap_a)
    stats = {"nfev": 2 + 6 * (len(rows) + rejected), "accepted": len(rows),
             "rejected": rejected, "stop": stop}
    status = STATUS_COMPLETED
    t_v = None
    t_stop = t_last
    if stop == STOP_UNDERFLOW:
        # Step-size underflow during a fast collapse means the remaining
        # time to a = 0 fell below the float64 resolution of t itself
        # (a ~ (t_v - t)**(1/3) from the viscous runaway, or the steep
        # collapse at N = 3, gamma = 2, which stalls near a = 2e-3*a0).
        # When the linear-extrapolation bound a/|a'| already localizes the
        # vanishing time tighter than the 1e-10 bracket, report it as
        # vanished; anything else is a genuine failure.
        remaining = a_last / abs(v_last) if v_last < 0.0 else np.inf
        if not remaining < 1e-10:
            raise StepFailureError(
                f"scaling integration ({label}) failed: Required step size"
                " is less than spacing between numbers.",
                t=t_last, state=(a_last, v_last))
        status = STATUS_VANISHED
        t_v = t_last
    t_olds, t_news, a_olds, *slopes = np.array(rows).T
    # table[k, c, i]: the coefficient of s**(k+1), s = t - t_olds[i], in a
    # (c = 0) or a' on step i; RK45's dense output y_old + h*sum q[k]*x**(k+1),
    # x = s/h, has it as q[k]/h**k
    q = np.einsum("cjs,jk->kcs", np.reshape(slopes, (2, 7, -1)), _P)
    table = q / (t_news - t_olds) ** np.arange(4.0)[:, None, None]
    t_old, _, a_old, v_old = rows[-1][:4]
    c_a, c_v = table[..., -1].T.tolist()

    def horner(y, c, t):  # the last step's polynomial, as hermite computes it
        s = t - t_old
        return y + s * (c[0] + s * (c[1] + s * (c[2] + s * c[3])))

    if stop in (STOP_VANISH, STOP_DIVERGE):
        sign, level = (1.0, eps_a) if stop == STOP_VANISH else (-1.0, cap_a)

        def gap(t):  # > 0 until a crosses the level
            return sign * (horner(a_old, c_a, t) - level)

        def before(t):
            return gap(t) > 0.0

        lo, hi = _bisect(before, t_old, t_stop)
        t_stop = lo if abs(gap(lo)) < abs(gap(hi)) else hi
        if stop == STOP_VANISH:
            status = STATUS_VANISHED
            t_v = 0.5 * sum(_bisect(before, t_old, t_stop, 1e-10))
        else:
            status = STATUS_DIVERGED
    # the end node's column is zero, so t within NumericScaling's edge
    # tolerance past it gets the end values; the event node can undershoot
    # eps_a by the root-finder tolerance
    a_end = max(horner(a_old, c_a, t_stop), 0.5 * eps_a)
    values = np.append([a_olds, slopes[0]], [[a_end], [horner(v_old, c_v, t_stop)]], axis=1)
    return NumericScaling(np.append(t_olds, t_stop), values,
                          np.append(table, np.zeros((4, 2, 1)), axis=2), status,
                          vanishing_time=t_v, label=label, stats=stats)


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
