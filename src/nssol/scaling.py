"""Scaling functions a(t) and their time derivatives.

The power-law family has the closed form a(t) = sigma*(m*t + n)**s; the
other four families integrate one second-order ODE,

    a'' = (V*a' - P*a)*a**(-e),   e = N*theta - N + 2,

with a pressure coefficient P and a viscous one V per family:

    family                        P          V
    isothermal (theta = 1)        2*B*K      2*B*N*kappa
    polytropic (theta = gamma)    K*gamma    N*kappa*gamma
    pressureless, theta = 1       0          lam
    pressureless, theta != 1      0          -lam

as the first order system (a, a').  Integration is forward from t = 0
with the package's own Dormand-Prince 5(4) stepper, scipy's RK45 redone
on Python floats (rtol 1e-10, atol 1e-12), ending early where a(t)
exceeds a divergence cap or vanishes, and refusing a stiff problem
(_integrate).  A trajectory is served by the stepper's own quartic dense
output: each accepted step is a node, and between nodes a(t) and a'(t)
are that step's polynomials.
"""

import math

import numpy as np

from ._interp import hermite, horner, unbox
from .errors import DomainError, StepFailureError, refuse

#: a(t) >= CAP_A_FRAC * a0 terminates integration with status "diverged"
CAP_A_FRAC = 1e12

#: a step floor is a vanishing when a/|a'| < VANISH_ULPS * ulp(t) there
VANISH_ULPS = 1e5

#: a stiff problem is refused with more than STIFF_STEPS steps left
STIFF_STEPS = 1e5

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

    ts are the accepted steps' start times and the end, and coef the one
    table of a (row 0) and adot, in _interp.hermite's layout, shape
    (2, 5, len(ts)): per node the value and the coefficients of s**1..4,
    s = t - ts[i], of its step's quartic (zero at the end), all finite.
    A copy between two NaN columns is viewed read-only by ts, a_values
    and adot_values.  Evaluation is one lookup and one four-term Horner,
    so pair(t) is the integrator's own dense output to rounding.
    Evaluation outside [0, t_last], up to an edge tolerance of
    1e-12*max(1, t_last) that serves the end values, raises
    OutOfRangeError; t_last is shorter than the requested span when the
    trajectory vanished or diverged.  ``stats`` holds the integrator's
    counts when it built the trajectory: ``nfev``, ``accepted`` and
    ``rejected`` steps, and the ``stop`` reason (one of the STOP_*
    values), else None.
    """

    def __init__(self, ts, coef, status, label="", stats=None):
        # a NaN column at each end, where hermite puts t out of range;
        # a and adot are one stack of curves: t is located once for both
        self._nodes = np.full(len(ts) + 2, np.nan)
        self._coef = np.full((2, 5, len(ts) + 2), np.nan)
        self._nodes[1:-1] = ts
        self._coef[:, :, 1:-1] = coef
        self._nodes.flags.writeable = self._coef.flags.writeable = False
        ts, values = self._nodes[1:-1], self._coef[:, :, 1:-1]
        if not (ts[1:] > ts[:-1]).all():
            raise ValueError("trajectory times must be strictly increasing")
        if not (values[0, 0] > 0.0).all():
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
        self.label = label
        self.stats = stats

    @property
    def t_end(self):
        return float(self.ts[-1])

    @property
    def vanishing_time(self):
        """t_end when the trajectory vanished: its last node is where
        the step size fell below 10 ulp(t), VANISH_ULPS ulp(t) or less
        short of a = 0."""
        return self.t_end if self.status == STATUS_VANISHED else None

    def blowup(self):
        return {**super().blowup(), "status": self.status,
                "searched_until": self.t_end}

    def pair(self, t):
        a, adot = hermite(self._edges, self._nodes, self._coef, t)
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
STOP_DIVERGE = "diverge_event"
STOP_UNDERFLOW = "underflow_vanished"
STOP_STIFF = "stiff"
#: the status a trajectory ends with after each stop
_STATUS = {STOP_COMPLETED: STATUS_COMPLETED, STOP_DIVERGE: STATUS_DIVERGED,
           STOP_UNDERFLOW: STATUS_VANISHED}


def _ode(P, V, e):
    """g(a, v) = (V*v - P*a)*a**-e on Python floats, the scaling ODE
    a'' = g(a, a') of every integrated family.  At a trial a that is not
    > 0, where the scaling has no meaning even when a**-e is a float (an
    integer e), and where a**-e overflows, g is NaN, which rejects the
    step that met it."""
    P, V, minus_e = float(P), float(V), -float(e)

    def g(a, v):
        if not a > 0.0:
            return math.nan
        try:
            return (V * v - P * a) * a ** minus_e
        except OverflowError:
            return math.nan
    return g


def _rms(x, y):
    return math.sqrt(x * x + y * y) / 2 ** 0.5


def _dopri45(g, a, v, t_end, cap_a):
    """Dormand-Prince 5(4) steps of (a, v)' = (v, g(a, v)) from t = 0,
    with the arithmetic and the step control of scipy's RK45.

    The first step is Hairer's choice (Solving ODEs I, II.4).  The error
    norm is the RMS of err/(ATOL + max(|y|, |y_new|)*RTOL); a step is
    accepted below 1 and the next one scaled by 0.9*norm**(-1/5) within
    [0.2, 10], not grown right after a rejection; a NaN stage rejects
    with 0.2.  Stepping stops at t_end, after the first step that ends
    with a >= cap_a, when the step falls below 10 ulp(t) (STOP_UNDERFLOW:
    the caller decides whether that is a vanishing), or when Hairer's
    stiffness test finds the steps held at RK45's stability limit with
    more than STIFF_STEPS of them left (STOP_STIFF).  Returns (rows,
    stop, rejected, (t, a, v)): an (n, 17) array with one row (t_old,
    t_new, a_old, the seven stage slopes of a, the first of them v_old,
    then those of v) per accepted step, the STOP_* reason, the count of
    rejected steps and the last accepted state.

    Each step makes the float operations and the g calls of the stepper
    as first written (tests/oracles.py keeps it), on the same operands
    in the same order, so every row is the same to the bit: the loop only
    spends less interpreter work around them (locals, max, min, abs and
    the RMS norm written out, |a| and |a'| carried, one flat list of
    rows), and the stiffness test adds arithmetic beside them.
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

    # max(p, q) is q if q > p else p and min(p, q) is q if q < p else p,
    # NaN included: the loop writes max, min, abs and _rms out as the
    # comparisons and float operations they make
    atol, rtol, a21, sqrt, ulp = ATOL, RTOL, _A2, math.sqrt, math.ulp
    a31, a32 = _A3
    a41, a42, a43 = _A4
    a51, a52, a53, a54 = _A5
    a61, a62, a63, a64, a65 = _A6
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E
    flat = []  # the rows' 17 values each, end to end
    extend = flat.extend
    rejected = stiff = calm = 0
    check = 1000
    t = 0.0
    abs_a, abs_v = abs(a), abs(v)
    while True:
        min_step = 10 * ulp(t)
        if min_step > h_abs:
            h_abs = min_step
        retry = False
        while not h_abs < min_step:
            t_new = t + h_abs
            if t_end < t_new:
                t_new = t_end
            h = t_new - t
            v2 = v + f * a21 * h
            g2 = g(a + v * a21 * h, v2)
            v3 = v + (f * a31 + g2 * a32) * h
            g3 = g(a + (v * a31 + v2 * a32) * h, v3)
            v4 = v + (f * a41 + g2 * a42 + g3 * a43) * h
            g4 = g(a + (v * a41 + v2 * a42 + v3 * a43) * h, v4)
            v5 = v + (f * a51 + g2 * a52 + g3 * a53 + g4 * a54) * h
            g5 = g(a + (v * a51 + v2 * a52 + v3 * a53 + v4 * a54) * h, v5)
            v6 = v + (f * a61 + g2 * a62 + g3 * a63 + g4 * a64 + g5 * a65) * h
            a6 = a + (v * a61 + v2 * a62 + v3 * a63 + v4 * a64 + v5 * a65) * h
            g6 = g(a6, v6)
            a_new = a + h * (v * b1 + v3 * b3 + v4 * b4 + v5 * b5 + v6 * b6)
            v_new = v + h * (f * b1 + g3 * b3 + g4 * b4 + g5 * b5 + g6 * b6)
            g7 = g(a_new, v_new)
            abs_a_new = a_new if a_new >= 0.0 else -a_new
            abs_v_new = v_new if v_new >= 0.0 else -v_new
            x = ((v * e1 + v3 * e3 + v4 * e4 + v5 * e5 + v6 * e6 + v_new * e7) * h
                 / (atol + (abs_a_new if abs_a_new > abs_a else abs_a) * rtol))
            y = ((f * e1 + g3 * e3 + g4 * e4 + g5 * e5 + g6 * e6 + g7 * e7) * h
                 / (atol + (abs_v_new if abs_v_new > abs_v else abs_v) * rtol))
            err = sqrt(x * x + y * y) / 2 ** 0.5
            if err < 1.0:
                if err == 0.0:
                    factor = 10.0
                else:
                    factor = 0.9 * err ** -0.2
                    if not factor < 10.0:
                        factor = 10.0
                if retry and not factor < 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = 0.9 * err ** -0.2
            h_abs *= factor if factor > 0.2 else 0.2  # a NaN norm gives 0.2
            retry = True
            rejected += 1
        else:  # the step fell below min_step
            stop = STOP_UNDERFLOW
            break
        extend((t, t_new, a, v, v2, v3, v4, v5, v6, v_new,
                f, g2, g3, g4, g5, g6, g7))
        t, a, v, f = t_new, a_new, v_new, g7
        abs_a, abs_v = abs_a_new, abs_v_new
        if a >= cap_a:
            stop = STOP_DIVERGE
            break
        if t >= t_end:
            stop = STOP_COMPLETED
            break
        # Hairer's stiffness test (DOPRI5), on each 1000th step and on
        # every step while some are stiff: h*lambda from stages 6 and 7,
        # which both sit at t
        check -= 1
        if check and not stiff:
            continue
        check = 1000
        dv = v - v6
        den = (a - a6) * (a - a6) + dv * dv
        if (den > 0.0 and t_end - t > STIFF_STEPS * h
                and h * sqrt((dv * dv + (f - g6) * (f - g6)) / den) > 3.25):
            stiff, calm = stiff + 1, 0
            if stiff == 15:
                stop = STOP_STIFF
                break
        elif stiff:
            calm += 1
            if calm == 6:
                stiff = 0
    rows = np.fromiter(flat, float, len(flat)).reshape(-1, 17)
    return rows, stop, rejected, (t, a, v)


def _integrate(g, a0, a1, t_end, label):
    """Integrate a'' = g(a, a') from (a0, a1) over [0, t_end], g a float
    function that gives NaN where it is undefined (see _ode).

    Returns a NumericScaling, or raises StepFailureError on a stiff
    problem (see _dopri45).  Terminates early with status "diverged"
    when a >= CAP_A_FRAC*a0, at the float nearest the crossing on the
    last step's dense output.  A collapse ends one way: as a -> 0 the
    steps shrink with a until they fall below 10 ulp(t), and the
    trajectory vanishes at its last accepted step when the time left,
    a/|a'| by linear extrapolation, is below VANISH_ULPS ulp(t); any
    other such end raises StepFailureError.  So a vanishing time is t*
    to the resolution of t, and vanishing_time == t_end.
    """
    if not (0.0 < a0 < np.inf and 0.0 < t_end < np.inf):
        raise ValueError(f"a0 and t_end must be finite and > 0, got {a0}, {t_end}")
    a0, a1, t_end = float(a0), float(a1), float(t_end)
    if not math.isfinite(g(a0, a1)):  # NaN constants stall the stepper
        raise ValueError(f"a'' is not finite at t=0 (a0={a0}, a1={a1})")
    cap_a = CAP_A_FRAC * a0
    rows, stop, rejected, (t_last, a_last, v_last) = _dopri45(g, a0, a1, t_end, cap_a)
    stats = {"nfev": 2 + 6 * (len(rows) + rejected), "accepted": len(rows),
             "rejected": rejected, "stop": stop}
    # a collapse's step floor sits at most a few thousand ulp(t) short of
    # a = 0; one far from a = 0 (a pole of g, say) is a failure, as is a
    # stiff problem, which RK45 would step at its stability limit
    if stop == STOP_STIFF or stop == STOP_UNDERFLOW and not (
            v_last < 0.0 and a_last / -v_last < VANISH_ULPS * math.ulp(t_last)):
        raise StepFailureError(
            f"scaling integration ({label}) failed: " + (
                "the problem is stiff, h*lambda over 3.25 on 15 steps."
                if stop == STOP_STIFF else
                "Required step size is less than spacing between numbers."),
            t=t_last, state=(a_last, v_last))
    cols = rows.T
    t_olds, t_news = cols[:2]
    # coef[c, k, i]: the coefficient of s**k, s = t - t_olds[i], in a (c = 0)
    # or a' on step i, and in column -1 the end values; RK45's dense output
    # y_old + h*sum q[k]*x**(k+1), x = s/h, has c_{k+1} = q[k]/h**k
    n = len(rows)
    coef = np.zeros((2, 5, n + 1))
    coef[:, 0, :n] = cols[2:4]
    slopes = np.ascontiguousarray(cols[3:]).reshape(2, 7, n)
    coef[:, 1:, :n] = (np.einsum("cjs,jk->cks", slopes, _P)
                       / (t_news - t_olds) ** np.arange(4.0)[:, None])
    t_old = float(t_olds[-1])
    last = coef[:, :, n - 1].tolist()  # the last step's quartics

    if stop == STOP_DIVERGE:
        def gap(t):  # > 0 until a crosses the cap
            return cap_a - horner(last[0], t - t_old)

        lo, hi = t_old, t_last  # bisected to adjacent floats
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
        t_last = lo if abs(gap(lo)) < abs(gap(hi)) else hi
    # the end node's column is zero past its values, so t within
    # NumericScaling's edge tolerance past it gets the end values; where
    # the last quartic rounds to a <= 0, the accepted state, a > 0, serves
    a_end, v_end = (horner(c, t_last - t_old) for c in last)
    coef[:, 0, n] = (a_end, v_end) if a_end > 0.0 else (a_last, v_last)
    return NumericScaling(np.append(t_olds, t_last), coef, _STATUS[stop],
                          label=label, stats=stats)


def integrate_isothermal(B, K, kappa, N, a0, a1, t_end):
    """Scaling of the exponential-quadratic (theta = gamma = 1) family:
    P = 2*B*K, V = 2*B*N*kappa, e = 2.  For B < 0 the pressure gradient
    drives expansion; for B > 0 it drives collapse and the trajectory
    can vanish in finite time."""
    return _integrate(_ode(2.0 * B * K, 2.0 * B * N * kappa, 2.0),
                      a0, a1, t_end, "isothermal")


def integrate_polytropic(gamma, K, kappa, N, a0, a1, t_end):
    """Scaling of the power-root (theta = gamma > 1) family:
    P = K*gamma, V = N*kappa*gamma, e = N*gamma - N + 2."""
    return _integrate(_ode(K * gamma, N * kappa * gamma, N * gamma - N + 2.0),
                      a0, a1, t_end, "polytropic")


def integrate_pressureless(theta, lam, N, a0, a1, t_end):
    """Scaling of the pressureless families: P = 0, V = lam at
    theta = 1 and -lam otherwise, e = N*theta - N + 2."""
    V, label = (lam, "pressureless_theta1") if theta == 1.0 else (-lam, "pressureless")
    return _integrate(_ode(0.0, V, N * theta - N + 2.0), a0, a1, t_end, label)


def vanishing_time(fn):
    """Time t* where a -> 0, or None if the scaling never vanishes.

    For a power law with m < 0 this is the exact root -n/m of m*t + n;
    for a numeric trajectory it is its end, where the step size fell below
    10 ulp(t) as a reached 0 to the resolution of t.
    """
    if not isinstance(fn, ScalingFn):
        raise TypeError(f"not a scaling function: {fn!r}")
    return fn.vanishing_time
