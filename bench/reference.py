"""Independent reference values for the benchmark's correctness checks.

Nothing here imports nssol.  Every value is derived again from the model
itself, by routes that share no code with the program:

* closed forms written out here: the shapes A*exp(B*z**2 + C) and the
  power root, the scaling sigma*(m*t + n)**s and its root t* = -n/m;
* fixed-step classical RK4 in pure Python for the scalings that have no
  closed form, and for the time at which they vanish;
* bisection on the implicit closed form G(y) = G(alpha) + r*z**2/2 of
  the power-law shape, where G is the primitive of the shape ODE's
  coefficient, with log branches at gamma = 1 and theta = 1.

An instance is a plain dict, the same one the workloads turn into
nssol objects: ``{"kind", "N", "gamma", "theta", "K", "kappa", ...}``
plus the family constants under the names the CLI config uses.
"""

import math

import numpy as np

#: a(t) <= VANISH_FRAC * a0 is where the program reports a vanishing time
VANISH_FRAC = 1e-8

#: RK4 step of the reference scalings
RK4_STEP = 1e-4

#: the step is cut tenfold whenever a/|a'| holds fewer steps than this
STEPS_PER_TIMESCALE = 400


def accel_fn(inst):
    """a'' = accel(a, a') of the instance's scaling ODE, or None for the
    closed-form power-law scaling."""
    kind, N, K, kappa = inst["kind"], inst["N"], inst["K"], inst["kappa"]
    if kind == "with_pressure_isothermal":
        B = inst["B"]
        return lambda a, v: -2.0 * B * K / a + 2.0 * B * N * kappa * v / (a * a)
    if kind == "with_pressure_polytropic":
        g = inst["gamma"]
        e1, e2 = N - g * N - 1.0, N - g * N - 2.0
        return lambda a, v: -K * g * a ** e1 + N * kappa * g * v * a ** e2
    if kind == "pressureless_theta1":
        lam = inst["lam"]
        return lambda a, v: lam * v / (a * a)
    if kind == "pressureless_theta_not1":
        lam, e = inst["lam"], N * inst["theta"] - N + 2.0
        return lambda a, v: -lam * v / a ** e
    return None


def _rk4_step(accel, a, v, h):
    k1v = accel(a, v)
    k2a = v + 0.5 * h * k1v
    k2v = accel(a + 0.5 * h * v, k2a)
    k3a = v + 0.5 * h * k2v
    k3v = accel(a + 0.5 * h * k2a, k3a)
    k4a = v + h * k3v
    k4v = accel(a + h * k3a, k4a)
    return (a + h * (v + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)


def rk4_states(accel, a0, a1, times, h=RK4_STEP):
    """(a, a') at each of the sorted times >= 0, by fixed-step RK4.

    Each gap between consecutive times is split into equal steps of at
    most h, so every requested time is hit exactly.
    """
    a, v, t = float(a0), float(a1), 0.0
    out = []
    for target in times:
        n = max(int(math.ceil((target - t) / h)), 0)
        if n:
            step = (target - t) / n
            for _ in range(n):
                a, v = _rk4_step(accel, a, v, step)
        t = target
        out.append((a, v))
    return out


def rk4_vanishing_time(accel, a0, a1, t_max, h=RK4_STEP):
    """Time at which a(t) falls to VANISH_FRAC*a0, or None before t_max.

    Fixed-step RK4, with the step cut tenfold each time the predicted
    time to collapse a/|a'| holds fewer than STEPS_PER_TIMESCALE steps,
    so that a runaway collapse is followed down to the threshold.  Once
    the step falls below the float spacing of t, the remaining time
    a/|a'| is below it too and t is the answer.
    """
    thr = VANISH_FRAC * a0
    a, v, t = float(a0), float(a1), 0.0
    while t < t_max:
        while v < 0.0 and a / -v < STEPS_PER_TIMESCALE * h:
            h *= 0.1
        if t + h == t:
            return t
        a_next, v_next = _rk4_step(accel, a, v, h)
        if a_next <= thr or not math.isfinite(a_next):
            # the step is a tiny part of the collapse time scale, so a is
            # linear across it to far below the float spacing of t
            return t + h * (a - thr) / (a - a_next) if math.isfinite(a_next) else t
        a, v, t = a_next, v_next, t + h
    return None


def powerlaw_exponent(inst):
    """Similarity exponent s = 2/(gamma*N - N + 2)."""
    return 2.0 / (inst["gamma"] * inst["N"] - inst["N"] + 2.0)


def powerlaw_scaling(inst, t):
    """(a, a') of a(t) = sigma*(m*t + n)**s."""
    s, sigma, m, n = powerlaw_exponent(inst), inst["sigma"], inst["m"], inst["n"]
    base = m * t + n
    return sigma * base ** s, s * m * sigma * base ** (s - 1.0)


def vanishing_time(inst, t_max):
    """Reference vanishing time of the instance's scaling within t_max."""
    accel = accel_fn(inst)
    if accel is None:
        return -inst["n"] / inst["m"] if inst["m"] < 0.0 else None
    return rk4_vanishing_time(accel, inst["a0"], inst["a1"], t_max)


def scaling_at(inst, times):
    """Reference (a, a') at each of the sorted times."""
    accel = accel_fn(inst)
    if accel is None:
        return [powerlaw_scaling(inst, t) for t in times]
    return rk4_states(accel, inst["a0"], inst["a1"], times)


def _power_root(n_exp, xi, alpha, z):
    """Solution of y**n_exp * y' = xi*z, y(0) = alpha; 0 where the
    radicand is not positive."""
    rad = 0.5 * (n_exp + 1.0) * xi * z * z + alpha ** (n_exp + 1.0)
    y = np.zeros_like(rad)
    inside = rad > 0.0
    y[inside] = rad[inside] ** (1.0 / (n_exp + 1.0))
    return y


def _primitive(e, y):
    """Primitive of y**(e-1) that is 0 at y = 1: (y**e - 1)/e, or log y
    at e = 0.  expm1 keeps every digit as e approaches 0."""
    if e == 0.0:
        return np.log(y)
    return np.expm1(e * np.log(y)) / e


def powerlaw_shape(inst, z):
    """Power-law shape y(z) by bisection on G(y) = G(alpha) + r*z**2/2.

    G' = c(y) = p*y**(gamma-2) - v*y**(theta-2) is the coefficient of the
    shape ODE c(y)*y' = r*z; the benchmark only draws instances on which
    c stays positive, so G increases and y(z) >= alpha.
    """
    N, g, th = inst["N"], inst["gamma"], inst["theta"]
    m, sigma, alpha = inst["m"], inst["sigma"], inst["alpha"]
    s = powerlaw_exponent(inst)
    p = inst["K"] * g / (s * sigma ** (g * N + 1.0))
    v = m * N * inst["kappa"] * th / sigma ** (th * N + 1.0)
    r = (1.0 - s) * m * m / sigma ** (N - 1.0)

    def G(y):
        return p * _primitive(g - 1.0, y) - v * _primitive(th - 1.0, y)

    target = G(np.float64(alpha)) + 0.5 * r * np.asarray(z, dtype=float) ** 2
    lo = np.full_like(target, alpha)
    hi = np.full_like(target, 2.0 * alpha)
    while True:
        short = G(hi) < target
        if not short.any():
            break
        hi[short] *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        done = (mid <= lo) | (mid >= hi)
        if done.all():
            break
        below = G(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def shape(inst, z):
    """Reference density shape y(z) at the array of z >= 0."""
    z = np.abs(np.asarray(z, dtype=float))
    kind, N, kappa = inst["kind"], inst["N"], inst["kappa"]
    if kind == "with_pressure_isothermal":
        return inst["A"] * np.exp(inst["B"] * z * z + inst["C"])
    if kind == "with_pressure_polytropic":
        return _power_root(inst["theta"] - 2.0, 1.0, inst["alpha"], z)
    if kind == "with_pressure_power_law":
        return powerlaw_shape(inst, z)
    if kind == "pressureless_theta1":
        return np.exp(inst["lam"] / (2.0 * N * kappa) * z * z + inst["alpha"])
    xi = -inst["lam"] / (N * kappa * inst["theta"])
    return _power_root(inst["theta"] - 2.0, xi, inst["alpha"], z)


def fields(inst, times, r):
    """Reference (rho, u) on the grid times x r, each of shape (nt, nr).

    rho = y(r/a)/a**N and u = (a'/a)*r, the self-similar ansatz.
    """
    r = np.asarray(r, dtype=float)
    states = np.array(scaling_at(inst, list(times)))
    a, adot = states[:, :1], states[:, 1:]
    rho = shape(inst, r[None, :] / a) / a ** inst["N"]
    u = adot / a * r[None, :]
    return rho, u


def relative_error(value, ref, per_point=True):
    """max |value - ref| / |ref| over arrays; exact zeros must match.

    With per_point=False the error is taken relative to max |ref|, for
    quantities such as a' that may pass through zero.
    """
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return math.inf
    zero = ref == 0.0
    if np.any(value[zero] != 0.0):
        return math.inf
    if zero.all():
        return 0.0
    scale = np.abs(ref[~zero]) if per_point else np.abs(ref).max()
    return float(np.max(np.abs(value[~zero] - ref[~zero]) / scale))
