"""Self-similar density shapes y(z), z = r/a(t).

Three concrete shapes cover all solution families: an exponential of a
quadratic, a power root of a quadratic (clipped to vacuum where the
radicand turns negative), and a numerically tabulated shape obtained by
integrating the implicit profile ODE of the power-law scaling family.
"""

import math

import numpy as np

from ._interp import hermite
from .errors import DomainError, OutOfRangeError, StepFailureError
from .scaling import ATOL, RTOL

#: relative guard below which the profile ODE coefficient counts as singular
EPS_COEFF = 1e-10

#: default half-width of the tabulated z range
DEFAULT_Z_MAX = 10.0

#: default tabulation spacing
DEFAULT_DZ = 1e-3


def _exp_checked(arg, z):
    """exp(arg), raising DomainError instead of overflowing.

    Growing shapes really do exceed float range for large z (for
    instance near a vanishing scaling, where z = r/a blows up); a clear
    error beats a bare OverflowError or a non-finite value.
    """
    if arg > 709.0:  # exp(709.78...) is the float64 ceiling
        raise DomainError(
            f"density shape overflows at z={z!r} (exponent {arg:.4g})")
    return math.exp(arg)


class Profile:
    """Base class: an even, non-negative density shape on z >= 0."""

    def evaluate(self, z):
        """Return (y, dy/dz) at |z|.  Never negative, never non-finite."""
        raise NotImplementedError


class ExpQuadratic(Profile):
    """Shape A*exp(B*z**2 + C); strictly positive iff A > 0."""

    def __init__(self, A, B, C):
        if A < 0.0:
            raise ValueError(f"A must be >= 0, got {A}")
        self.A = float(A)
        self.B = float(B)
        self.C = float(C)

    def evaluate(self, z):
        z = abs(z)
        y = self.A * _exp_checked(self.B * z * z + self.C, z)
        return y, 2.0 * self.B * z * y

    def __repr__(self):
        return f"ExpQuadratic(A={self.A}, B={self.B}, C={self.C})"


class PowerRoot(Profile):
    """Shape ((n_exp+1)/2 * xi * z**2 + alpha**(n_exp+1)) ** (1/(n_exp+1)).

    Solves dy/dz * y**n_exp = xi*z with y(0) = alpha on its support.
    Wherever the radicand is <= 0 the shape is vacuum (0), never a
    complex or non-finite value.
    """

    def __init__(self, n_exp, xi, alpha):
        if n_exp == -1.0:
            raise ValueError("n_exp = -1 is excluded (logarithmic case)")
        if alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.n_exp = float(n_exp)
        self.xi = float(xi)
        self.alpha = float(alpha)
        self._p = 1.0 / (self.n_exp + 1.0)
        self._c2 = 0.5 * (self.n_exp + 1.0) * self.xi
        self._c0 = self.alpha ** (self.n_exp + 1.0)

    def _radicand(self, z):
        return self._c2 * z * z + self._c0

    def evaluate(self, z):
        z = abs(z)
        rad = self._radicand(z)
        if rad <= 0.0:
            return 0.0, 0.0
        y = rad ** self._p
        if not math.isfinite(y):
            raise DomainError(
                f"density shape overflows at z={z!r} (radicand {rad:.4g})")
        dy = self.xi * z * rad ** (self._p - 1.0)
        return y, dy

    def in_support(self, z):
        """True where the radicand is positive (the shape is not clipped)."""
        return self._radicand(abs(z)) > 0.0

    def support_radius(self):
        """Boundary z* where the shape first clips to vacuum, or None.

        Located by bisection to within 1e-10 when it exists.
        """
        if self._c2 >= 0.0:
            return None  # radicand never decreases below alpha**(n+1) > 0
        lo, hi = 0.0, 1.0
        while self._radicand(hi) > 0.0:
            hi *= 2.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if self._radicand(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def __repr__(self):
        return f"PowerRoot(n_exp={self.n_exp}, xi={self.xi}, alpha={self.alpha})"


class TabulatedProfile(Profile):
    """Shape stored as (z_i, y_i, dy_i) nodes with cubic interpolation.

    Values interpolate at O(h^4) in the node spacing.  When the
    generating ODE is known its slope relation dy = rhs(z)/c(y) is used
    for derivatives; otherwise the interpolant is differentiated.
    """

    def __init__(self, z_nodes, y_nodes, dy_nodes, truncated=False,
                 truncation_reason=None, slope_fn=None):
        z_nodes = np.asarray(z_nodes, dtype=float)
        y_nodes = np.asarray(y_nodes, dtype=float)
        dy_nodes = np.asarray(dy_nodes, dtype=float)
        if z_nodes[0] != 0.0:
            raise ValueError("tabulated shapes must start at z = 0")
        if y_nodes[0] <= 0.0:
            raise ValueError("tabulated shapes must have y(0) > 0")
        if len(z_nodes) > 1 and not np.all(np.diff(z_nodes) > 0.0):
            raise ValueError("z nodes must be strictly increasing")
        for arr in (z_nodes, y_nodes, dy_nodes):
            arr.flags.writeable = False
        self.z_nodes = z_nodes
        self.y_nodes = y_nodes
        self.dy_nodes = dy_nodes
        self.truncated = bool(truncated)
        self.truncation_reason = truncation_reason
        self._slope_fn = slope_fn

    @property
    def z_max(self):
        return float(self.z_nodes[-1])

    def evaluate(self, z):
        z = abs(z)
        if len(self.z_nodes) == 1:
            if z > 1e-12:
                raise OutOfRangeError(
                    f"table truncated at z=0 ({self.truncation_reason}), "
                    f"cannot evaluate at z={z!r}"
                )
            return float(self.y_nodes[0]), float(self.dy_nodes[0])
        what = "z"
        if self.truncated:
            what = f"z (table truncated: {self.truncation_reason})"
        y, dy_interp = hermite(self.z_nodes, self.y_nodes, self.dy_nodes, z, what)
        if y <= 0.0:
            return 0.0, 0.0
        if self._slope_fn is not None:
            return y, self._slope_fn(z, y)
        return y, dy_interp

    def __repr__(self):
        return (f"TabulatedProfile({len(self.z_nodes)} nodes, "
                f"z_max={self.z_max}, truncated={self.truncated})")


def polytropic_profile(theta, alpha):
    """Power-root shape for theta = gamma > 1: y**(theta-2) * dy/dz = z.

    y(0) = alpha and y(z) >= alpha everywhere (the radicand grows).
    """
    if theta <= 1.0:
        raise ValueError(f"theta must be > 1, got {theta}")
    return PowerRoot(theta - 2.0, 1.0, alpha)


def powerlaw_profile(params, m, sigma, alpha, s, z_max=DEFAULT_Z_MAX,
                     dz=DEFAULT_DZ):
    """Tabulated shape for the power-law scaling family.

    Integrates

        [K*gamma/(s*sigma**(gamma*N+1)) * y**(gamma-2)
         - m*N*kappa*theta/sigma**(theta*N+1) * y**(theta-2)] * dy/dz
            = (1-s)*m**2/sigma**(N-1) * z,    y(0) = alpha,

    with an adaptive embedded Runge-Kutta pair (rtol 1e-10, atol 1e-12)
    and stores dense output every dz.  dy(0) = 0 holds because the
    right-hand side vanishes at z = 0.

    If the bracketed coefficient c(y) falls below EPS_COEFF * |c(alpha)|
    in magnitude the integration halts and a partial table is returned
    with ``truncated=True``; beyond the table evaluation raises
    OutOfRangeError.
    """
    from scipy.integrate import solve_ivp

    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    N, gamma, theta = params.N, params.gamma, params.theta
    p_coef = params.K * gamma / (s * sigma ** (gamma * N + 1))
    v_coef = m * N * params.kappa * theta / sigma ** (theta * N + 1)
    r_coef = (1.0 - s) * m * m / sigma ** (N - 1)

    def coeff(y):
        return p_coef * y ** (gamma - 2.0) - v_coef * y ** (theta - 2.0)

    c0 = coeff(alpha)
    c_scale = abs(p_coef) * alpha ** (gamma - 2.0) + abs(v_coef) * alpha ** (theta - 2.0)
    if abs(c0) <= EPS_COEFF * c_scale:
        return TabulatedProfile(
            [0.0], [alpha], [0.0], truncated=True,
            truncation_reason=f"singular coefficient c(alpha)={c0:.3e} at z=0")

    def rhs(z, y):
        return [r_coef * z / coeff(y[0])]

    def singular_event(z, y):
        return abs(coeff(y[0])) - EPS_COEFF * abs(c0)

    singular_event.terminal = True
    singular_event.direction = -1

    def vacuum_event(z, y):
        return y[0]

    vacuum_event.terminal = True
    vacuum_event.direction = -1

    n_nodes = int(round(z_max / dz))
    z_eval = np.linspace(0.0, z_max, n_nodes + 1)
    sol = solve_ivp(rhs, [0.0, z_max], [alpha], method="RK45",
                    rtol=RTOL, atol=ATOL, dense_output=False,
                    t_eval=z_eval, events=[singular_event, vacuum_event])
    if sol.status == -1:
        raise StepFailureError(
            f"profile integration failed: {sol.message}",
            t=sol.t[-1] if len(sol.t) else 0.0,
            state=sol.y[:, -1] if sol.y.size else None)

    z_nodes = sol.t
    y_nodes = sol.y[0]
    truncated = False
    reason = None
    if sol.status == 1:  # a terminal event fired before z_max
        truncated = True
        if len(sol.t_events[0]):
            z_stop = sol.t_events[0][0]
            reason = f"singular coefficient at z={z_stop:.12g}"
        else:
            z_stop = sol.t_events[1][0]
            reason = f"density shape reached zero at z={z_stop:.12g}"
        if len(z_nodes) == 0 or z_nodes[-1] < z_stop:
            z_nodes = np.append(z_nodes, z_stop)
            y_nodes = np.append(y_nodes, sol.y_events[0][0][0]
                                if len(sol.t_events[0]) else sol.y_events[1][0][0])

    def slope(z, y):
        if y <= 0.0:
            return 0.0  # vacuum boundary node
        return r_coef * z / coeff(y)

    dy_nodes = np.array([slope(z, y) for z, y in zip(z_nodes, y_nodes)])
    return TabulatedProfile(z_nodes, y_nodes, dy_nodes, truncated=truncated,
                            truncation_reason=reason, slope_fn=slope)
