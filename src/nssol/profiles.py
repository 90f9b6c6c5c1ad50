"""Self-similar density shapes y(z), z = r/a(t).

Three concrete shapes cover all solution families, each in closed form:
an exponential of a quadratic, a power root of a quadratic (clipped to
vacuum where the radicand turns negative), and the shape of the
power-law scaling family, the root of the implicit closed form of its
separable profile ODE.
"""

import math
import sys

import numpy as np

from ._interp import unbox
from .errors import DomainError, OutOfRangeError, refuse

#: relative guard below which the profile ODE coefficient counts as singular
EPS_COEFF = 1e-10

#: default bound on z of the power-law shape
DEFAULT_Z_MAX = 10.0

#: log of the largest float64, and of the smallest positive (subnormal) one
_LOG_MAX = 709.78
_LOG_MIN = -745.13


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class Profile:
    """Base class: an even, non-negative density shape on z >= 0."""

    #: evaluation beyond |z| = z_max raises OutOfRangeError
    z_max = math.inf

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
        z = np.abs(z)
        # y or dy past the float range (near a = 0), and 0*inf at z = inf,
        # leave dy non-finite and are refused below; -inf decays to 0
        with np.errstate(over="ignore", invalid="ignore"):
            arg = self.B * z * z + self.C
            y = self.A * np.exp(arg)
            dy = 2.0 * self.B * z * y
        refuse(DomainError, ~np.isfinite(dy),
               "density shape overflows at z={z!r} (exponent {arg:.4g})", z=z, arg=arg)
        return unbox(y), unbox(dy)

    def __repr__(self):
        return f"ExpQuadratic(A={self.A}, B={self.B}, C={self.C})"


class PowerRoot(Profile):
    """Shape ((n_exp+1)/2 * xi * z**2 + alpha**(n_exp+1)) ** (1/(n_exp+1)).

    Solves dy/dz * y**n_exp = xi*z with y(0) = alpha on its support.
    Wherever the radicand is <= 0 the shape is vacuum (0), never a
    complex or non-finite value.
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

    def _radicand(self, z):
        return self._c2 * z * z + self._c0

    def evaluate(self, z):
        z = np.abs(z)
        # a radicand past the float range is -inf, vacuum, or +inf (or
        # 0*inf at xi = 0), which leaves y or dy non-finite, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            rad = self._radicand(z)
            vacuum = rad <= 0.0
            base = np.where(vacuum, 1.0, rad)
            y = np.where(vacuum, 0.0, np.power(base, self._p))
            dy = np.where(vacuum, 0.0, self.xi * z * np.power(base, self._p - 1.0))
        refuse(DomainError, ~(np.isfinite(y) & np.isfinite(dy)) | (z == math.inf),
               "density shape overflows at z={z!r} (radicand {rad:.4g})", z=z, rad=rad)
        return unbox(y), unbox(dy)

    def in_support(self, z):
        """True where the radicand is positive (the shape is not clipped)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._radicand(np.abs(z)) > 0.0

    def support_radius(self):
        """Boundary z* = sqrt(-c0/c2) where the radicand c2*z**2 + c0
        reaches 0 and the shape clips to vacuum, or None."""
        if self._c2 >= 0.0:
            return None  # radicand never decreases below alpha**(n+1) > 0
        return math.sqrt(-self._c0 / self._c2)

    def __repr__(self):
        return f"PowerRoot(n_exp={self.n_exp}, xi={self.xi}, alpha={self.alpha})"


def _primitive(e, x):
    """((y**e - 1)/e, y**e) at y = exp(x), or (x, 1) at e == 0 exactly;
    NaN past the float range.  expm1 keeps every digit as e nears 0
    (theta - 1 is 2.2e-16 for N = 3, gamma = 5/3)."""
    if e == 0.0:
        return x, 1.0
    em1 = np.where(e * x > _LOG_MAX, np.nan, np.expm1(e * x))
    return em1 / e, em1 + 1.0


class ImplicitProfile(Profile):
    """Shape solving c(y) * dy/dz = r*z, y(0) = alpha, in closed form.

    c(y) = p*y**(gamma-2) - v*y**(theta-2) with p > 0, gamma > theta and
    r >= 0 has the primitive G(y) = p*P(gamma-1, y) - v*P(theta-1, y), where
    P(e, y) = (y**e - 1)/e or log y at e = 0, so y(z) is the root of
    G(y) = G(alpha) + r*z**2/2 on the branch through alpha.  c changes
    sign at most once: y rises without bound where c(alpha) > 0 and
    falls where c(alpha) < 0, to vacuum at z_vacuum when G(0+) is finite
    (theta > 1), and is 0 beyond it.  A start with |c(alpha)| below
    EPS_COEFF of the size of its terms is singular: only z = 0 evaluates.
    """

    def __init__(self, p, v, r, gamma, theta, alpha, z_max=math.inf):
        _require_finite(p=p, v=v, r=r, gamma=gamma, theta=theta, alpha=alpha)
        if not (p > 0 and gamma > theta and r >= 0 and alpha > 0 and z_max > 0):
            raise ValueError("need p > 0, gamma > theta, r >= 0, alpha > 0 and z_max"
                             f" > 0, got {p}, {gamma}, {theta}, {r}, {alpha}, {z_max}")
        self.p, self.v, self.r, self.gamma, self.theta = p, v, r, gamma, theta
        self.alpha, self.z_max = alpha, z_max
        # G(y) - G(alpha) = cp*P(gamma-1, y/alpha) - cv*P(theta-1, y/alpha);
        # its slope in log y at alpha is cp - cv = alpha*c(alpha)
        self._cp, self._cv = p * alpha ** (gamma - 1.0), v * alpha ** (theta - 1.0)
        slope = self._cp - self._cv
        self._singular = abs(slope) <= EPS_COEFF * (abs(self._cp) + abs(self._cv))
        self._dir = 1.0 if slope > 0.0 else -1.0
        # w = |log(y/alpha)| up to which y stays within the float range
        self._w_max = self._dir * ((_LOG_MAX if slope > 0.0 else _LOG_MIN)
                                   - math.log(alpha))
        self.z_vacuum = None
        if slope < 0.0 and theta > 1.0 and r > 0.0:
            g_vac = self._cv / (theta - 1.0) - self._cp / (gamma - 1.0)
            self.z_vacuum = math.sqrt(2.0 * g_vac / r)

    def evaluate(self, z):
        z = np.abs(np.asarray(z, dtype=float))
        refuse(OutOfRangeError, ~(z <= self.z_max),
               f"z {{z!r}} beyond the shape's z_max={self.z_max!r}", z=z)
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
        disc = s1 * s1 + 2.0 * s2 * h
        live = np.flatnonzero(solve)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = np.where(disc > 0.0, 2.0 * h / (s1 + np.sqrt(np.abs(disc))), h / s1)
            lo, hi, dD = np.zeros(h.size), np.full(h.size, self._w_max), np.ones(h.size)
            log_h = np.log(h)
            for _ in range(100):  # bisection alone reaches rounding level in 60
                if not live.size:
                    break
                wl, lol, hil, hl = w[live], lo[live], hi[live], h[live]
                wl = np.where((lol < wl) & (wl < hil), wl, 0.5 * (lol + hil))
                closed = hil - lol <= 1e-15 * np.maximum(1.0, wl)
                gp, yp = _primitive(self.gamma - 1.0, d * wl)
                gv, yv = _primitive(self.theta - 1.0, d * wl)
                D, dDl = cp * gp - cv * gv, d * (cp * yp - cv * yv)
                below = D < hl
                lol, hil = np.where(below, wl, lol), np.where(below, hil, wl)
                w_new = np.where((D > 0.0) & (dDl > 0.0),
                                 wl - (np.log(D) - log_h[live]) * D / dDl,
                                 0.5 * (lol + hil))
                step = np.abs(w_new - wl) <= 1e-15 * np.maximum(1.0, w_new)
                w_new = np.where(closed & ~step, wl, w_new)
                w[live], lo[live], hi[live], dD[live] = w_new, lol, hil, dDl
                live = live[~(closed | step)]
            # a root at the float range's end: overflow rising, vacuum falling
            edge = (solve & (w >= self._w_max * (1.0 - 1e-12))).reshape(z.shape)
            if d > 0.0:
                refuse(DomainError, edge, "density shape overflows at z={z!r}", z=z)
            y = np.where(solve, np.exp(math.log(self.alpha) + d * w), self.alpha)
            dy = np.where(solve, d * self.r * z.ravel() * y / dD, 0.0)
        y, dy = (np.where(edge | vacuum, 0.0, x.reshape(z.shape)) for x in (y, dy))
        return unbox(y), unbox(dy)

    def __repr__(self):
        return (f"ImplicitProfile(p={self.p}, v={self.v}, r={self.r}, "
                f"gamma={self.gamma}, theta={self.theta}, alpha={self.alpha}, "
                f"z_max={self.z_max})")


def powerlaw_profile(params, m, sigma, alpha, s, z_max=DEFAULT_Z_MAX):
    """Shape of the power-law scaling family on |z| <= z_max: the
    ImplicitProfile of

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
        gamma=gamma, theta=theta, alpha=alpha, z_max=z_max)
