"""Self-similar density shapes y(z), z = r/a(t).

Three concrete shapes cover all solution families, each in closed form
on every z: an exponential of a quadratic, a power root of a quadratic
(clipped to vacuum where the radicand turns negative), and the shape of
the power-law scaling family, the root of the implicit closed form of its
separable profile ODE.  None has a bound on z; each refuses a value past
the float range itself.

All three evaluate a float z (np.float64 included) on Python floats,
with numpy's exp, power, expm1 or log, so they give a batch element's
bits without numpy's per-call cost on a scalar.  That branch returns
only finite values; every other z, a refusal or vacuum included, takes
the array code.
"""

import math
import sys

import numpy as np

from ._interp import unbox
from .errors import DomainError, OutOfRangeError, refuse

#: relative guard below which the profile ODE coefficient counts as singular
EPS_COEFF = 1e-10

#: log of the largest float64, and of the smallest positive (subnormal) one
_LOG_MAX = 709.78
_LOG_MIN = -745.13

#: numpy's exp and power for the closed forms' float branches, bound once:
#: each lookup is paid per point
_exp, _power = np.exp, np.power


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _edge(num, den):
    """sqrt(num/den) for num, den > 0, the vacuum edge of a shape: where
    the quotient overflows (a subnormal den), the root, still a float, is
    taken apart."""
    q = num / den
    return math.sqrt(q) if q < math.inf else math.sqrt(num) / math.sqrt(den)


def _refuse_nan(z):
    """Every shape's refusal of a NaN z.  The closed forms look for NaN
    only once they refuse an overflow, which a NaN z always causes, so
    their hot path pays nothing for it."""
    refuse(OutOfRangeError, z != z, "z {z!r} is not a number", z=z)


class Profile:
    """Base class: an even, non-negative density shape on z >= 0, vacuum
    (0) from z_vacuum on, to rounding; z_vacuum is None without that edge."""

    z_vacuum = None

    def evaluate(self, z):
        """(y, dy/dz) at |z|, a scalar (floats back) or an array; never
        negative, never non-finite."""
        raise NotImplementedError


class ExpQuadratic(Profile):
    """Shape A*exp(B*z**2 + C); strictly positive iff A > 0."""

    def __init__(self, A, B, C):
        if not 0.0 <= A < math.inf:
            raise ValueError(f"A must be finite and >= 0, got {A}")
        _require_finite(B=B, C=C)
        self.A = float(A)
        self.B = float(B)
        self.C = float(C)

    def evaluate(self, z):
        if isinstance(z, float):  # np.float64 too
            x = abs(z if type(z) is float else float(z))
            arg = self.B * x * x + self.C
            if arg <= _LOG_MAX:
                y = self.A * float(_exp(arg))
                dy = 2.0 * self.B * x * y
                if math.isfinite(dy):
                    return y, dy
        z = np.abs(z)
        # y or dy past the float range (near a = 0), and 0*inf at z = inf,
        # leave dy non-finite and are refused below; -inf decays to 0
        with np.errstate(over="ignore", invalid="ignore"):
            arg = self.B * z * z + self.C
            y = self.A * np.exp(arg)
            dy = 2.0 * self.B * z * y
        try:
            refuse(DomainError, ~np.isfinite(dy),
                   "density shape overflows at z={z!r} (exponent {arg:.4g})", z=z, arg=arg)
        except DomainError:
            _refuse_nan(z)
            raise
        return unbox(y), unbox(dy)

    def __repr__(self):
        return f"ExpQuadratic(A={self.A}, B={self.B}, C={self.C})"


class PowerRoot(Profile):
    """Shape ((n_exp+1)/2 * xi * z**2 + alpha**(n_exp+1)) ** (1/(n_exp+1)).

    Solves dy/dz * y**n_exp = xi*z with y(0) = alpha on its support.
    Wherever the radicand c2*z**2 + c0 is <= 0, from z_vacuum =
    sqrt(-c0/c2) on when c2 < 0, the shape is vacuum (0), never a complex
    or non-finite value.
    """

    def __init__(self, n_exp, xi, alpha):
        _require_finite(n_exp=n_exp, xi=xi)
        if n_exp == -1.0:
            raise ValueError("n_exp = -1 is excluded (logarithmic case)")
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        self.n_exp = float(n_exp)
        self.xi = float(xi)
        self.alpha = float(alpha)
        self._p = 1.0 / (self.n_exp + 1.0)
        self._c2 = 0.5 * (self.n_exp + 1.0) * self.xi
        try:
            self._c0 = self.alpha ** (self.n_exp + 1.0)
        except OverflowError:
            raise ValueError(f"alpha**(n_exp+1) overflows at alpha={alpha}, "
                             f"n_exp={n_exp}") from None
        # at 0 the shape would be vacuum at z = 0, not alpha; a subnormal
        # keeps too few digits (y(0) off by 1e-5 at alpha**2 = 1.5e-320)
        if self._c0 < sys.float_info.min:
            raise ValueError(f"alpha**(n_exp+1) = {self._c0!r} underflows at "
                             f"alpha={alpha}, n_exp={n_exp}")
        if self._c2 < 0.0:
            self.z_vacuum = _edge(self._c0, -self._c2)

    def evaluate(self, z):
        if isinstance(z, float):  # np.float64 too
            x = abs(z if type(z) is float else float(z))
            rad = self._c2 * x * x + self._c0
            # y does not pass e**_LOG_MAX, where np.power would warn
            if 0.0 < rad < math.inf and math.log(rad) * self._p <= _LOG_MAX:
                y = float(_power(rad, self._p))
                dy = self.xi * x * (y / rad)
                if math.isfinite(dy):
                    return y, dy
        z = np.abs(z)
        # a radicand past the float range is -inf, vacuum, or +inf (or
        # 0*inf at xi = 0), which leaves y or dy non-finite, refused below.
        # Vacuum is selected by arithmetic, not np.where, so a scalar stays
        # a numpy scalar: there the base is 1, y is multiplied by 0 and xi
        # is +0, so both are +0.  Vacuum needs c2 < 0, hence xi != 0, and
        # xi*True + 0.0 is xi; a -0.0 xi, which never meets vacuum, stays.
        with np.errstate(over="ignore", invalid="ignore"):
            rad = self._c2 * z * z + self._c0
            vacuum = rad <= 0.0
            solid = ~vacuum
            base = np.maximum(rad, 0.0) + vacuum
            xi = self.xi * solid + 0.0 if self._c2 < 0.0 else self.xi
            y = np.power(base, self._p) * solid
            dy = xi * z * (y / base)
        try:
            refuse(DomainError, ~(np.isfinite(y) & np.isfinite(dy)) | (z == math.inf),
                   "density shape overflows at z={z!r} (radicand {rad:.4g})", z=z, rad=rad)
        except DomainError:
            _refuse_nan(z)
            raise
        return unbox(y), unbox(dy)

    def __repr__(self):
        return f"PowerRoot(n_exp={self.n_exp}, xi={self.xi}, alpha={self.alpha})"


def _primitive(e, x):
    """((y**e - 1)/e, y**e) at y = exp(x), or (x, 1) at e == 0 exactly;
    NaN past the float range.  expm1 keeps every digit as e nears 0
    (theta - 1 is 2.2e-16 for N = 3, gamma = 5/3).  y**e, expm1 + 1, keeps
    no digit below about 1e-16: only the bracketed Newton step reads it,
    dy reads ImplicitProfile._slope.  x is an array, or a
    Python float, on which numpy's own expm1 gives an array element's bits."""
    if e == 0.0:
        return x, 1.0
    ex = e * x
    if isinstance(ex, float):
        em1 = float(np.expm1(ex)) if ex <= _LOG_MAX else math.nan
    else:
        em1 = _pick(ex > _LOG_MAX, np.nan, np.expm1(ex))
    return em1 / e, em1 + 1.0


def _pick(mask, a, b):
    """np.where(mask, a, b), or a or b itself where the mask is uniform
    and that value has the mask's shape: np.where costs several ufuncs'
    time, and more on a mask that mixes at random."""
    if mask.all():
        if np.shape(a) == mask.shape:
            return a
    elif not mask.any() and np.shape(b) == mask.shape:
        return b
    return np.where(mask, a, b)


class ImplicitProfile(Profile):
    """Shape solving c(y) * dy/dz = r*z, y(0) = alpha, in closed form.

    c(y) = p*y**(gamma-2) - v*y**(theta-2) with p > 0, gamma > theta and
    r >= 0 has the primitive G(y) = p*P(gamma-1, y) - v*P(theta-1, y), where
    P(e, y) = (y**e - 1)/e or log y at e = 0, so y(z) is the root of
    G(y) = G(alpha) + r*z**2/2 on the branch through alpha.  c changes
    sign at most once: y rises without bound where c(alpha) > 0 and
    falls where c(alpha) < 0, to vacuum at z_vacuum when G(0+) is finite
    (theta > 1), and is 0 beyond it.  Every z evaluates, as for the other
    shapes: a y or dy past the float range, or a y whose power
    (y/alpha)**(gamma-1) or (y/alpha)**(theta-1) is, is refused with
    DomainError.  A start with |c(alpha)| below EPS_COEFF of the size of
    its terms is singular: only z = 0 evaluates.  A float z takes the
    array code's Newton sweeps one for one on Python floats
    (_float_root), off every edge the array code answers: h = 0, vacuum,
    a refusal and a root at the end of the float range, y's or a power's.
    """

    def __init__(self, p, v, r, gamma, theta, alpha):
        _require_finite(p=p, v=v, r=r, gamma=gamma, theta=theta, alpha=alpha)
        if not (p > 0 and gamma > theta and r >= 0 and alpha > 0):
            raise ValueError("need p > 0, gamma > theta, r >= 0 and alpha > 0, "
                             f"got {p}, {gamma}, {theta}, {r}, {alpha}")
        self.p, self.v, self.r, self.gamma, self.theta = p, v, r, gamma, theta
        self.alpha = alpha
        # G(y) - G(alpha) = cp*P(gamma-1, y/alpha) - cv*P(theta-1, y/alpha);
        # its slope in log y at alpha is cp - cv = alpha*c(alpha)
        self._cp, self._cv = p * alpha ** (gamma - 1.0), v * alpha ** (theta - 1.0)
        slope = self._cp - self._cv
        self._singular = abs(slope) <= EPS_COEFF * (abs(self._cp) + abs(self._cv))
        d = self._dir = 1.0 if slope > 0.0 else -1.0
        # w = |log(y/alpha)| up to which y stays within the float range: the
        # bracket's top.  A power (y/alpha)**e that the primitive takes may
        # leave the range first, where the primitive is NaN, which the
        # bracket treats as past the root: a root at _w_top, the lower of
        # the two, is refused, or where a falling y underflows, vacuum
        self._w_max = d * ((_LOG_MAX if d > 0.0 else _LOG_MIN) - math.log(alpha))
        caps = [_LOG_MAX / (d * e) for e in (gamma - 1.0, theta - 1.0) if d * e > 0.0]
        self._w_top = min([self._w_max, *caps])
        self._edge_vacuum = d < 0.0 and self._w_top == self._w_max
        if slope < 0.0 and theta > 1.0 and r > 0.0:
            g_vac = self._cv / (theta - 1.0) - self._cp / (gamma - 1.0)
            self.z_vacuum = _edge(2.0 * g_vac, r)

    def evaluate(self, z):
        if isinstance(z, float):  # np.float64 too
            found = self._float_root(abs(float(z)))
            if found is not None:
                return found
        z = np.abs(np.asarray(z, dtype=float))
        _refuse_nan(z)
        if self._singular:
            refuse(OutOfRangeError, z > 0.0, "singular c(alpha), no shape at z={z!r}", z=z)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0*inf at r = 0
            h = 0.5 * self.r * z * z
        refuse(DomainError, ~(h < math.inf), "r*z**2/2 overflows at z={z!r}", z=z)
        h = h.ravel()
        vacuum = z >= (math.inf if self.z_vacuum is None else self.z_vacuum)
        solve = (h != 0.0) & ~vacuum.ravel()
        # Newton on log(D/h) in w = |log(y/alpha)|, D = G(y) - G(alpha), as
        # log D is near linear where D grows like an exponential; each point
        # keeps its bracket (D < h at lo, D >= h or NaN at hi <= w_max),
        # bisects off it and stops on its own step test, or on an iterate
        # taken inside a bracket closed to rounding, from which a Newton step
        # may still point out.  The root of the quadratic D ~ s1*w + s2*w**2/2
        # starts well where c(alpha) ~ 0.
        d, cp, cv = self._dir, self._cp, self._cv
        s1, s2 = d * (cp - cv), cp * (self.gamma - 1.0) - cv * (self.theta - 1.0)
        live = np.flatnonzero(solve)
        # a disc past the float range starts w at 0, from which the sweeps bisect
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            disc = s1 * s1 + 2.0 * s2 * h
            w = _pick(disc > 0.0, 2.0 * h / (s1 + np.sqrt(np.abs(disc))), h / s1)
            lo, hi = np.zeros(h.size), np.full(h.size, self._w_max)
            log_h = np.log(h)
            for _ in range(100):  # bisection alone reaches rounding level in 60
                if not live.size:
                    break
                # while every point is live, a sweep takes the whole arrays;
                # from the first point that stops, the live ones, gathered
                if live.size == h.size:
                    w, lo, hi, done = self._sweep(w, lo, hi, h, log_h)
                else:
                    w[live], lo[live], hi[live], done = self._sweep(
                        w[live], lo[live], hi[live], h[live], log_h[live])
                live = live[~done]
            # a root at _w_top: y, or a power of it, past the float range, or
            # a falling y's underflow, which is vacuum
            edge = (solve & (w >= self._w_top * (1.0 - 1e-12))).reshape(z.shape)
            if not self._edge_vacuum:
                refuse(DomainError, edge, "density shape overflows at z={z!r}", z=z)
            y = _pick(solve, np.exp(math.log(self.alpha) + d * w), self.alpha)
            # where r*z > 0 but h underflows to 0, w = 0 and dy is r*z/c(alpha)
            rz = self.r * z.ravel()
            dy = _pick(~vacuum.ravel() & (rz > 0.0), d * rz * (y / self._slope(w)), 0.0)
            refuse(DomainError, ~(np.isfinite(dy) | edge.ravel()).reshape(z.shape),
                   "density shape overflows at z={z!r}", z=z)
        y, dy = (_pick(edge | vacuum, 0.0, x.reshape(z.shape)) for x in (y, dy))
        return unbox(y), unbox(dy)

    def _sweep(self, w, lo, hi, h, log_h):
        """One Newton sweep of evaluate over arrays: w, lo and hi after it,
        and the mask of the points that stop."""
        d, cp, cv = self._dir, self._cp, self._cv
        inside = (lo < w) & (w < hi)
        if not inside.all():
            w = np.where(inside, w, 0.5 * (lo + hi))
        closed = hi - lo <= 1e-15 * np.maximum(1.0, w)
        gp, yp = _primitive(self.gamma - 1.0, d * w)
        gv, yv = _primitive(self.theta - 1.0, d * w)
        D, dD = cp * gp - cv * gv, d * (cp * yp - cv * yv)
        below = D < h
        lo, hi = _pick(below, w, lo), _pick(below, hi, w)
        newton = (D > 0.0) & (dD > 0.0)
        w_new = w - (np.log(D) - log_h) * D / dD
        if not newton.all():
            w_new = np.where(newton, w_new, 0.5 * (lo + hi))
        step = np.abs(w_new - w) <= 1e-15 * np.maximum(1.0, w_new)
        stuck = closed & ~step
        if stuck.any():
            w_new = np.where(stuck, w, w_new)
        return w_new, lo, hi, closed | step

    def _float_root(self, x):
        """(y, dy) at a float x >= 0 by the array code's sweeps, in its
        order on Python floats; None where that code refuses x (NaN, an
        overflowing h or a singular start), where h = 0 or x is vacuum,
        where the root lies at _w_top, or where y or dy is not finite, all
        of which the array code answers."""
        h = 0.5 * self.r * x * x
        if (self._singular or not 0.0 < h < math.inf
                or self.z_vacuum is not None and x >= self.z_vacuum):
            return None
        d, cp, cv, w_max = self._dir, self._cp, self._cv, self._w_max
        s1, s2 = d * (cp - cv), cp * (self.gamma - 1.0) - cv * (self.theta - 1.0)
        disc = s1 * s1 + 2.0 * s2 * h
        w = 2.0 * h / (s1 + math.sqrt(abs(disc))) if disc > 0.0 else h / s1
        lo, hi, log_h = 0.0, w_max, float(np.log(h))
        for _ in range(100):
            if not lo < w < hi:
                w = 0.5 * (lo + hi)
            # max(1.0, w) is np.maximum's: w, a bracket point, is never NaN
            closed = hi - lo <= 1e-15 * max(1.0, w)
            gp, yp = _primitive(self.gamma - 1.0, d * w)
            gv, yv = _primitive(self.theta - 1.0, d * w)
            D, dD = cp * gp - cv * gv, d * (cp * yp - cv * yv)
            lo, hi = (w, hi) if D < h else (lo, w)
            w_new = (w - (float(np.log(D)) - log_h) * D / dD if D > 0.0 and dD > 0.0
                     else 0.5 * (lo + hi))
            # a NaN w_new fails the step test, as with np.maximum
            step = abs(w_new - w) <= 1e-15 * max(1.0, w_new)
            if closed and not step:
                break
            w = w_new
            if step:
                break
        # the array code answers the edge, and a zero slope, where dy is not finite
        if w >= self._w_top * (1.0 - 1e-12) or (dD := float(self._slope(w))) == 0.0:
            return None
        y = float(_exp(math.log(self.alpha) + d * w))
        dy = d * (self.r * x) * (y / dD)
        return (y, dy) if math.isfinite(y) and math.isfinite(dy) else None

    def _slope(self, w):
        """dD/dw = d*y*c(y) at the root w, so dy/dz = d*r*z*(y/dD): each
        power of u = y/alpha = exp(d*w) is exp of its exponent, with every
        digit where u is small."""
        x = self._dir * w
        return self._dir * (self._cp * _exp((self.gamma - 1.0) * x)
                            - self._cv * _exp((self.theta - 1.0) * x))

    def __repr__(self):
        return (f"ImplicitProfile(p={self.p}, v={self.v}, r={self.r}, "
                f"gamma={self.gamma}, theta={self.theta}, alpha={self.alpha})")


def powerlaw_profile(params, m, sigma, alpha, s):
    """Shape of the power-law scaling family: the ImplicitProfile of

        [K*gamma/(s*sigma**(gamma*N+1)) * y**(gamma-2)
         - m*N*kappa*theta/sigma**(theta*N+1) * y**(theta-2)] * dy/dz
            = (1-s)*m**2/sigma**(N-1) * z,    y(0) = alpha.

    The family has gamma - theta = 1/(s*N) > 0; gamma <= theta is refused.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    N, gamma, theta = params.N, params.gamma, params.theta
    return ImplicitProfile(
        p=params.K * gamma / (s * sigma ** (gamma * N + 1)),
        v=m * N * params.kappa * theta / sigma ** (theta * N + 1),
        r=(1.0 - s) * m * m / sigma ** (N - 1),
        gamma=gamma, theta=theta, alpha=alpha)
