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
exceeds a divergence cap, and refusing a stiff problem (_integrate).

A collapse with V > 0 and e > 1 falls like a ~ (e*V*(T - t)/(e - 1))**(1/e)
as t -> T, which a stepper in t follows only with ever shorter steps.
Its tail is integrated in a instead, down to a = 0 (_tail_ode): with the
first integral w = a' - V*a**(1 - e)/(1 - e), t and w are smooth
functions of a, and the vanishing time T = t(0) is an ordinary endpoint.
Any other collapse ends where the step in t falls below 10 ulp(t).

A trajectory is served by the stepper's own quartic dense output: each
accepted step is a node, and between nodes a(t) and a'(t) are that
step's polynomials, or on the tail the inverse of its polynomial t(a).
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np

from ._interp import OUT_OF_RANGE, Table, hermite, horner, unbox
from .errors import DomainError, OutOfRangeError, StepFailureError, refuse

#: a(t) >= CAP_A_FRAC * a0 terminates integration with status "diverged"
CAP_A_FRAC = 1e12

#: a step floor is a vanishing when a/|a'| < VANISH_ULPS * ulp(t) there
VANISH_ULPS = 1e5

#: a stiff problem is refused with more than STIFF_STEPS steps left
STIFF_STEPS = 1e5

RTOL = 1e-10
ATOL = 1e-12
#: the tolerances of a collapse's tail, integrated in a
TAIL_RTOL = 1e-12
TAIL_ATOL = 1e-14

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

    rows, in _interp.Table's layout, shape (n, 11), are one per node:
    the accepted step's start time t_i (the end's at the last), then per
    curve, a and adot, the value and the coefficients of s**1..4,
    s = t - t_i, of the step's quartic (zero at the end), all finite.
    Its Table is read by one lookup and one four-term Horner, so pair(t)
    is the integrator's own dense output to rounding.  A collapse's tail
    (_Tail), when given, serves every t past the last node, and its node
    times follow them in the read-only array ts.  The values at the
    nodes are pair(ts): the table's own and the tail's states, which are
    kept nowhere else.  Evaluation outside
    [ts[0], t_end], up to an edge tolerance of 1e-12*max(1, t_end) that
    serves the end values, raises OutOfRangeError; t_end is shorter than
    the requested span when the trajectory vanished or diverged.
    ``stats`` holds the integrator's counts when it built the
    trajectory, over both pieces of a collapse: ``nfev``, ``accepted``
    and ``rejected`` steps, and the ``stop`` reason (one of the STOP_*
    values), else None.
    """

    def __init__(self, rows, status, label="", stats=None, tail=None):
        rows = np.asarray(rows, dtype=float)
        ts = rows[:, 0] if tail is None else np.concatenate((rows[:, 0], tail.ts))
        pad = 1e-12 * max(1.0, abs(ts[-1]))
        self._lo, self._hi = float(ts[0] - pad), math.nextafter(float(ts[-1] + pad), math.inf)
        # a and adot are one stack of curves: t is located once for both
        self._table = table = Table(rows, self._lo, self._hi)
        self._tail = tail
        rows = table.rows[1:-1]
        ts = rows[:, 0] if tail is None else ts
        ts.flags.writeable = False
        if not (ts[1:] > ts[:-1]).all():
            raise ValueError("trajectory times must be strictly increasing")
        if not (rows[:, 1] > 0.0).all():
            raise ValueError("trajectory a values must stay positive")
        # NaN is what hermite serves out of range: none may sit in range
        if not (np.isfinite(ts).all() and np.isfinite(rows).all()):
            raise ValueError("trajectory nodes must be finite")
        self.ts = ts
        self.status = status
        self.label = label
        self.stats = stats

    @property
    def t_end(self):
        return float(self.ts[-1])

    @property
    def vanishing_time(self):
        """t at a = 0 when a collapse's tail reached it, t_end when a
        collapse ended where the step fell below 10 ulp(t),
        VANISH_ULPS ulp(t) or less short of a = 0; else None."""
        if self.status != STATUS_VANISHED:
            return None
        return self.t_end if self._tail is None else self._tail.t_star

    def blowup(self):
        """The vanishing time, status and last served time; a vanishing
        on a collapse's tail adds the law a ~ C*(T - t)**(1/e) there,
        as ``collapse_exponent`` 1/e and ``collapse_constant`` C."""
        doc = {**super().blowup(), "status": self.status, "searched_until": self.t_end}
        if self.status == STATUS_VANISHED and self._tail is not None:
            e, c = self._tail.e, self._tail.c
            doc.update(collapse_exponent=1.0 / e, collapse_constant=(e * c) ** (1.0 / e))
        return doc

    def pair(self, t):
        tail = self._tail
        if isinstance(t, float):  # np.float64 too: floats back, or a refusal
            if tail is None or self._lo <= t <= tail.t0:
                return hermite(self._table, t)
            if tail.t0 < t < self._hi:
                return tail.pair(float(t))
        elif tail is None:
            a, adot = hermite(self._table, t)
            return unbox(a), unbox(adot)
        # the tail serves each time past its switch node, one at a time
        t = np.asarray(t, dtype=float)
        refuse(OutOfRangeError, ~((t >= self._lo) & (t < self._hi)),
               OUT_OF_RANGE, x=t, lo=self.ts[0], hi=self.ts[-1])
        late = t > tail.t0
        a, adot = (np.array(y, dtype=float) for y in hermite(
            self._table, np.where(late, tail.t0, t)))
        for i in np.flatnonzero(late):
            a.flat[i], adot.flat[i] = tail.pair(float(t.flat[i]))
        return unbox(a), unbox(adot)

    def __repr__(self):
        return (f"NumericScaling({self.label}, {len(self.ts)} nodes, "
                f"t_end={self.t_end}, status={self.status})")


class _Tail:
    """A collapse's tail: t and w = a' + c*a**(1 - e), c = V/(e - 1), as
    quartics in a over the steps of its integration in x = -a, served at
    t by inverting its step's t(a).

    rows are _dopri45's steps from the switch node (t0, a = -x) on, and
    t_star the time at a = 0 when they reach it, else None: they end
    past t_stop, the requested end, which is then the last served time
    t_end.  Otherwise t_end is the largest float short of t_star at which
    a > 0 and a' is finite, or t0 if there is none.  A step is kept when
    it starts before t_end and no later step starts at the same float,
    so node times rise strictly; ts are the kept steps' starts after the
    switch node, and t_end.  A node's a = -x and a' = w - c/a**(e - 1)
    are its step's start, positive and finite by construction; end is
    the state at t_end.
    """

    def __init__(self, rows, t_star, t_stop, c, e):
        self.c, self.e, self.t_star, self._em1 = c, e, t_star, e - 1.0
        x_olds, x_news, starts = rows[:, :3].T
        quartics = _quartics(rows)
        t_news = np.append(starts[1:], t_stop if t_star is None else t_star)
        steps = list(zip(x_olds.tolist(), (x_news - x_olds).tolist(), starts.tolist(),
                         t_news.tolist(), quartics[:, :5].tolist(), quartics[:, 5:].tolist()))
        self._steps, self._starts = steps, starts.tolist()
        self.t0 = t0 = self._starts[0]
        t_end = t_stop if t_star is None else math.nextafter(t_star, -math.inf)
        if t_end <= t0:
            t_end = t0
        elif not self._serves(t_end):
            # the quartic ends short of t_star, or a' overflows: the
            # largest float it serves, bisected from t0, which it does
            lo, hi = t0, t_end
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (mid, hi) if self._serves(mid) else (lo, mid)
            t_end = lo
        n = max(1, bisect_left(self._starts, t_end))
        keep = [k for k in range(n) if k == n - 1 or self._starts[k] < self._starts[k + 1]]
        self._steps = [steps[k] for k in keep]
        self._starts = [self._starts[k] for k in keep]
        self.t_end = t_end
        self.end = self._solve(t_end)
        ts = [start for start in self._starts if start > t0]
        if t_end > t0:
            ts.append(t_end)
        self.ts = np.array(ts, dtype=float)

    def _serves(self, t):
        try:
            a, adot = self._solve(t)
        except ZeroDivisionError:  # a**(e - 1) is 0
            return False
        return a > 0.0 and math.isfinite(adot)

    def _solve(self, t):
        """(a, a') at t, t0 < t <= the last step's end: a bracketed
        Newton on the quartic t(a) of the last step that starts at or
        before t, from the secant of the step's ends."""
        x, h, t_old, t_new, ct, cw = self._steps[bisect_right(self._starts, t) - 1]
        lo, hi = 0.0, h
        s = min(h, h * ((t - t_old) / (t_new - t_old))) if t_new > t_old else 0.0
        for _ in range(100):
            r = horner(ct, s) - t
            if r == 0.0:
                break
            if r < 0.0:
                lo = s
            else:
                hi = s
            d = ct[1] + s * (2.0 * ct[2] + s * (3.0 * ct[3] + s * 4.0 * ct[4]))
            step = s - r / d if d > 0.0 else s
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if step == s:
                break
            s = step
        a = -(x + s)
        return a, horner(cw, s) - self.c / a ** self._em1

    def pair(self, t):
        """(a, a') at a float t0 < t <= t_end, and the end values just past it."""
        return self._solve(t) if t <= self.t_end else self.end


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
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
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
#: the t-piece of a collapse hands over to its tail, which reaches a = 0
STOP_SWITCH = "switch_to_tail"
STOP_ZERO = "reached_a_zero"
#: the status a trajectory ends with after each stop
_STATUS = {STOP_COMPLETED: STATUS_COMPLETED, STOP_DIVERGE: STATUS_DIVERGED,
           STOP_UNDERFLOW: STATUS_VANISHED, STOP_ZERO: STATUS_VANISHED}


def _ode(P, V, e):
    """F(t, a, v) = (v, g), g = (V*v - P*a)*a**-e on Python floats: the
    scaling ODE a'' = g(a, a') of every integrated family as a first
    order system.  At a trial a that is not > 0, where the scaling has
    no meaning even when a**-e is a float (an integer e), and where
    a**-e overflows, g is NaN, which rejects the step that met it."""
    P, V, minus_e = float(P), float(V), -float(e)

    def F(t, a, v):
        if not a > 0.0:
            return v, math.nan
        try:
            return v, (V * v - P * a) * a ** minus_e
        except OverflowError:
            return v, math.nan
    return F


def _tail_ode(P, V, e):
    """(switch, F, c, e) of a collapse's tail, for V > 0 and e > 1; else None.

    Over x = -a, with c = V/(e - 1), w = a' + c*a**(1 - e) and
    D = w*a**(e - 1) - c = a'*a**(e - 1), the system is

        dt/dx = -a**(e - 1)/D,   dw/dx = P/D,

    bounded at a = 0, where D = -c.  switch(a, v) holds at a' < 0 with
    |w|*a**(e - 1) < c/2, where D lies in (-3c/2, -c/2), and with
    P*a**e <= e*c**2.  From there a' only falls (P >= 0 in every family
    with V > 0), the viscous part of D shrinks with a, and the pressure's
    part, at most 2*P*a**e/(e*c) in size, lowers D by 2c at most: D stays
    in (-7c/2, -c/2) and a reaches 0.  A slow start from rest, where
    a'*a**(e - 1) is near -c only because c is tiny, fails the last
    test: there the pressure would move D by many times c within the
    rounding of a.  F is NaN where a trial stage has D >= 0."""
    if not (V > 0.0 and e > 1.0):
        return None
    P, e, em1 = float(P), float(e), float(e) - 1.0
    c = float(V) / em1
    half_c, limit = 0.5 * c, e * c * c

    def switch(a, v):
        if not v < 0.0:
            return False
        try:
            p = a ** em1
        except OverflowError:
            return False
        return abs(v * p + c) < half_c and P * a * p <= limit

    def F(x, t, w):
        p = (-x) ** em1 if x < 0.0 else 0.0
        D = w * p - c
        if not D < 0.0:
            return math.nan, math.nan
        return -p / D, P / D
    return switch, F, c, e


def _rms(x, y):
    return math.sqrt(x * x + y * y) / 2 ** 0.5


def _dopri45(F, x, y, z, x_end, rtol, atol, cap=math.inf, switch=None):
    """Dormand-Prince 5(4) steps of the system (y, z)' = F(x, y, z) from
    x to x_end, with the arithmetic and the step control of scipy's RK45.

    The first step is Hairer's choice (Solving ODEs I, II.4).  The error
    norm is the RMS of err/(atol + max(|y|, |y_new|)*rtol); a step is
    accepted below 1 and the next one scaled by 0.9*norm**(-1/5) within
    [0.2, 10], not grown right after a rejection; a NaN stage rejects
    with 0.2.  Stepping stops at x_end, after the first step that ends
    with y >= cap, or with switch(y, z) true (STOP_SWITCH), when the step
    falls below 10 ulp(x) (STOP_UNDERFLOW: the caller decides whether
    that is a vanishing), or when Hairer's stiffness test finds the
    steps held at RK45's stability limit with more than STIFF_STEPS of
    them left (STOP_STIFF).  Returns (rows, stop, rejected, (x, y, z)):
    an (n, 18) array with one row (x_old, x_new, y_old, z_old, the seven
    stage slopes of y, then those of z) per accepted step, the STOP_*
    reason, the count of rejected steps and the last accepted state.

    On the scaling ODE, F = _ode(P, V, e) from x = 0, each step makes the
    float operations and the F calls of the stepper as first written
    (tests/oracles.py keeps it), on the same operands in the same order,
    so every row is the same to the bit: the loop only spends less
    interpreter work around them (locals, max, min, abs and the RMS norm
    written out, |y| and |z| carried, one flat list of rows), and the
    stiffness test and the stage abscissae add arithmetic beside them.
    """
    f, g = F(x, y, z)
    sy, sz = atol + abs(y) * rtol, atol + abs(z) * rtol
    d0, d1 = _rms(y / sy, z / sz), _rms(f / sy, g / sz)
    span = x_end - x
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1, g1 = F(x + h0, y + h0 * f, z + h0 * g)
    # h0 is 0 where d1 overflows: h_abs is then 0 for any d2 (numpy's inf or NaN)
    d2 = _rms((f1 - f) / sy, (g1 - g) / sz) / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, span)

    # max(p, q) is q if q > p else p and min(p, q) is q if q < p else p,
    # NaN included: the loop writes max, min, abs and _rms out as the
    # comparisons and float operations they make
    a21, sqrt, ulp = _A2, math.sqrt, math.ulp
    c2, c3, c4, c5 = _C
    a31, a32 = _A3
    a41, a42, a43 = _A4
    a51, a52, a53, a54 = _A5
    a61, a62, a63, a64, a65 = _A6
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E
    flat = []  # the rows' 18 values each, end to end
    extend = flat.extend
    rejected = stiff = calm = 0
    check = 1000
    abs_y, abs_z = abs(y), abs(z)
    while True:
        min_step = 10 * ulp(x)
        if min_step > h_abs:
            h_abs = min_step
        retry = False
        while not h_abs < min_step:
            x_new = x + h_abs
            if x_end < x_new:
                x_new = x_end
            h = x_new - x
            f2, g2 = F(x + c2 * h, y + f * a21 * h, z + g * a21 * h)
            f3, g3 = F(x + c3 * h, y + (f * a31 + f2 * a32) * h,
                       z + (g * a31 + g2 * a32) * h)
            f4, g4 = F(x + c4 * h, y + (f * a41 + f2 * a42 + f3 * a43) * h,
                       z + (g * a41 + g2 * a42 + g3 * a43) * h)
            f5, g5 = F(x + c5 * h, y + (f * a51 + f2 * a52 + f3 * a53 + f4 * a54) * h,
                       z + (g * a51 + g2 * a52 + g3 * a53 + g4 * a54) * h)
            y6 = y + (f * a61 + f2 * a62 + f3 * a63 + f4 * a64 + f5 * a65) * h
            z6 = z + (g * a61 + g2 * a62 + g3 * a63 + g4 * a64 + g5 * a65) * h
            f6, g6 = F(x + h, y6, z6)
            y_new = y + h * (f * b1 + f3 * b3 + f4 * b4 + f5 * b5 + f6 * b6)
            z_new = z + h * (g * b1 + g3 * b3 + g4 * b4 + g5 * b5 + g6 * b6)
            f7, g7 = F(x_new, y_new, z_new)
            abs_y_new = y_new if y_new >= 0.0 else -y_new
            abs_z_new = z_new if z_new >= 0.0 else -z_new
            p = ((f * e1 + f3 * e3 + f4 * e4 + f5 * e5 + f6 * e6 + f7 * e7) * h
                 / (atol + (abs_y_new if abs_y_new > abs_y else abs_y) * rtol))
            q = ((g * e1 + g3 * e3 + g4 * e4 + g5 * e5 + g6 * e6 + g7 * e7) * h
                 / (atol + (abs_z_new if abs_z_new > abs_z else abs_z) * rtol))
            err = sqrt(p * p + q * q) / 2 ** 0.5
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
        extend((x, x_new, y, z, f, f2, f3, f4, f5, f6, f7,
                g, g2, g3, g4, g5, g6, g7))
        x, y, z, f, g = x_new, y_new, z_new, f7, g7
        abs_y, abs_z = abs_y_new, abs_z_new
        if y >= cap:
            stop = STOP_DIVERGE
            break
        if x >= x_end:
            stop = STOP_COMPLETED
            break
        if switch is not None and switch(y, z):
            stop = STOP_SWITCH
            break
        # Hairer's stiffness test (DOPRI5), on each 1000th step and on
        # every step while some are stiff: h*lambda from stages 6 and 7,
        # which both sit at x
        check -= 1
        if check and not stiff:
            continue
        check = 1000
        dy, dz = y - y6, z - z6
        den = dy * dy + dz * dz
        if (den > 0.0 and x_end - x > STIFF_STEPS * h
                and h * sqrt(((f - f6) * (f - f6) + (g - g6) * (g - g6)) / den) > 3.25):
            stiff, calm = stiff + 1, 0
            if stiff == 15:
                stop = STOP_STIFF
                break
        elif stiff:
            calm += 1
            if calm == 6:
                stiff = 0
    rows = np.fromiter(flat, float, len(flat)).reshape(-1, 18)
    return rows, stop, rejected, (x, y, z)


def _quartics(rows):
    """The (n, 10) quartics of _dopri45's n rows, a node-major view: per
    step i, the coefficients of s**0..4, s = x - x_old, of y, then of z.
    RK45's dense output y_old + h*sum q[k]*u**(k+1), u = s/h, has
    c_{k+1} = q[k]/h**k, which is not finite, without a warning, on a
    step too short for it.  They are formed curve-major, each a contiguous
    run over the steps: a node-major einsum took two to three times as long."""
    cols = rows.T
    n = len(rows)
    coef = np.empty((2, 5, n))
    coef[:, 0] = cols[2:4]
    slopes = np.ascontiguousarray(cols[4:]).reshape(2, 7, n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coef[:, 1:] = (np.einsum("cjs,jk->cks", slopes, _P)
                       / (cols[1] - cols[0]) ** np.arange(4.0)[:, None])
    return coef.reshape(10, n).T


def _failure(label, stop, t, state):
    return StepFailureError(
        f"scaling integration ({label}) failed: " + (
            "the problem is stiff, h*lambda over 3.25 on 15 steps."
            if stop == STOP_STIFF else
            "Required step size is less than spacing between numbers."),
        t=t, state=state)


def _integrate(F, a0, a1, t_end, label, tail=None):
    """Integrate the system F = _ode(...) of a'' = g(a, a') from (a0, a1)
    over [0, t_end]; tail is _tail_ode's (switch, F, c, e) of the same ODE,
    or None.

    Returns a NumericScaling, or raises StepFailureError on a stiff
    problem (see _dopri45).  Terminates early with status "diverged"
    when a >= CAP_A_FRAC*a0, at the float nearest the crossing on the
    last step's dense output.  Given a tail, the first accepted step that
    ends where switch holds ends the t-piece, and its tail is integrated
    in x = -a at TAIL_RTOL and TAIL_ATOL, to a = 0, where the trajectory
    vanishes, or to the step past t_end, where it completes at t_end.
    Any other collapse shrinks its steps with a until they fall below
    10 ulp(t), and the trajectory vanishes at its last accepted step when
    the time left, a/|a'| by linear extrapolation, is below VANISH_ULPS
    ulp(t); any other such end raises StepFailureError.
    """
    if not (0.0 < a0 < np.inf and 0.0 < t_end < np.inf):
        raise ValueError(f"a0 and t_end must be finite and > 0, got {a0}, {t_end}")
    a0, a1, t_end = float(a0), float(a1), float(t_end)
    if not math.isfinite(F(0.0, a0, a1)[1]):  # NaN constants stall the stepper
        raise ValueError(f"a'' is not finite at t=0 (a0={a0}, a1={a1})")
    cap_a = CAP_A_FRAC * a0
    switch, tail_F, c, e = tail or (None, None, None, None)
    rows, stop, rejected, (t_last, a_last, v_last) = _dopri45(
        F, 0.0, a0, a1, t_end, RTOL, ATOL, cap_a, switch)
    # f at the start and the first-step probe, then six stages per attempt
    nfev, accepted = 2 + 6 * (len(rows) + rejected), len(rows)
    # a collapse's step floor sits at most a few thousand ulp(t) short of
    # a = 0; one far from a = 0 (a pole of g, say) is a failure, as is a
    # stiff problem, which RK45 would step at its stability limit
    if stop == STOP_STIFF or stop == STOP_UNDERFLOW and not (
            v_last < 0.0 and a_last / -v_last < VANISH_ULPS * math.ulp(t_last)):
        raise _failure(label, stop, t_last, (a_last, v_last))
    table = np.zeros((len(rows) + 1, 11))
    table[:-1, 0] = rows[:, 0]
    table[:-1, 1:] = _quartics(rows)
    # a steep collapse can take a step in t too short for its quartic
    short = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if short.size:
        t, _, a, v = rows[short[0], :4].tolist()
        raise StepFailureError(f"scaling integration ({label}) failed: the step at "
                               f"t={t!r} is too short for its dense output.",
                               t=t, state=(a, v))
    t_old, *quartics = table[-2].tolist()
    last = quartics[:5], quartics[5:]  # the last step's quartics

    if stop == STOP_DIVERGE:
        def gap(t):  # > 0 until a crosses the cap
            return cap_a - horner(last[0], t - t_old)

        lo, hi = t_old, t_last  # bisected to adjacent floats
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
        t_last = lo if abs(gap(lo)) < abs(gap(hi)) else hi
    piece = None
    if stop == STOP_SWITCH:
        w = v_last + c / a_last ** (e - 1.0)
        tail_rows, stop, tail_rejected, (x, t, w) = _dopri45(
            tail_F, -a_last, t_last, w, 0.0, TAIL_RTOL, TAIL_ATOL, t_end)
        if stop == STOP_STIFF or stop == STOP_UNDERFLOW:
            raise _failure(label, stop, t, (-x, w - c / (-x) ** (e - 1.0)))
        stop = STOP_ZERO if stop == STOP_COMPLETED else STOP_COMPLETED
        nfev += 2 + 6 * (len(tail_rows) + tail_rejected)
        accepted, rejected = accepted + len(tail_rows), rejected + tail_rejected
        piece = _Tail(tail_rows, t if stop == STOP_ZERO else None, t_end, c, e)
    # the end node's row is zero past its values, so t within
    # NumericScaling's edge tolerance past it gets the end values; where
    # the last quartic rounds to a <= 0, the accepted state, a > 0, serves
    a_end, v_end = (horner(q, t_last - t_old) for q in last)
    table[-1, [0, 1, 6]] = (t_last, a_end, v_end) if a_end > 0.0 else (t_last, a_last, v_last)
    stats = {"nfev": nfev, "accepted": accepted, "rejected": rejected, "stop": stop}
    return NumericScaling(table, _STATUS[stop], label=label, stats=stats, tail=piece)


def integrate_isothermal(B, K, kappa, N, a0, a1, t_end):
    """Scaling of the exponential-quadratic (theta = gamma = 1) family:
    P = 2*B*K, V = 2*B*N*kappa, e = 2.  For B < 0 the pressure gradient
    drives expansion; for B > 0 it drives collapse and the trajectory
    can vanish in finite time."""
    return _family(2.0 * B * K, 2.0 * B * N * kappa, 2.0, a0, a1, t_end, "isothermal")


def integrate_polytropic(gamma, K, kappa, N, a0, a1, t_end):
    """Scaling of the power-root (theta = gamma > 1) family:
    P = K*gamma, V = N*kappa*gamma, e = N*gamma - N + 2."""
    return _family(K * gamma, N * kappa * gamma, N * gamma - N + 2.0,
                   a0, a1, t_end, "polytropic")


def integrate_pressureless(theta, lam, N, a0, a1, t_end):
    """Scaling of the pressureless families: P = 0, V = lam at
    theta = 1 and -lam otherwise, e = N*theta - N + 2."""
    V, label = (lam, "pressureless_theta1") if theta == 1.0 else (-lam, "pressureless")
    return _family(0.0, V, N * theta - N + 2.0, a0, a1, t_end, label)


def _family(P, V, e, a0, a1, t_end, label):
    return _integrate(_ode(P, V, e), a0, a1, t_end, label, _tail_ode(P, V, e))


def vanishing_time(fn):
    """Time t* where a -> 0, or None if the scaling never vanishes.

    For a power law with m < 0 this is the exact root -n/m of m*t + n.
    For a numeric trajectory it is t at a = 0 of a collapse's tail
    (V > 0, e > 1), integrated in a; for any other collapse it is the
    trajectory's end, where the step size fell below 10 ulp(t) as a
    reached 0 to the resolution of t.
    """
    if not isinstance(fn, ScalingFn):
        raise TypeError(f"not a scaling function: {fn!r}")
    return fn.vanishing_time
