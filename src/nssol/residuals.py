"""Finite-difference residual verification of candidate fields.

The verifier treats (rho, u) as a black box: it samples field values on
centered stencils and forms the mass and momentum residuals of the
radial system

    rho_t + u*rho_r + rho*u_r + (N-1)/r*rho*u = 0
    rho*(u_t + u*u_r) + delta*K*(rho**gamma)_r
        - (kappa*rho**theta)_r*((N-1)/r*u + u_r)
        - kappa*rho**theta*(u_rr + (N-1)/r*u_r - (N-1)/r**2*u) = 0

with all derivatives by second-order centered differences.  The powered
fields rho**gamma and rho**theta are differenced directly (never chain
ruled), so the check is independent of any analytic derivative the
constructors know.  An exact solution yields residual norms of order
h**2 down to the floor set by the ODE integration tolerances (~1e-9).
"""

import math
from dataclasses import asdict, dataclass

from .errors import (
    DomainError,
    NonFiniteFieldError,
    OutOfRangeError,
    StencilOutOfDomainError,
)
from .profiles import DEFAULT_Z_MAX
from .solutions import build_solution

#: lattice points per window axis used by verify_window
DEFAULT_LATTICE = 33

_SKIPPED = object()


@dataclass(frozen=True)
class Window:
    """Rectangle [t_min, t_max] x [r_min, r_max] to sample residuals on."""

    t_min: float
    t_max: float
    r_min: float
    r_max: float

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")


@dataclass(frozen=True)
class ResolutionNorms:
    """Residual norms at one (h_t, h_r) resolution.

    linf is the lattice maximum of |residual|; l2 the root mean square.
    Momentum points whose stencil touches vacuum are excluded from the
    momentum norms and counted in skipped_momentum.  Norms are recorded
    to 12 significant digits.
    """

    h_t: float
    h_r: float
    mass_linf: float
    mass_l2: float
    mom_linf: float
    mom_l2: float
    skipped_momentum: int


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms over a window at one or more resolutions.

    The top-level norms refer to the finest (last) resolution; the
    convergence orders come from the last pair of resolutions via
    order = log(norm_coarse/norm_fine)/log(h_coarse/h_fine) and are
    None when fewer than two resolutions ran or a norm hit zero.
    """

    window: Window
    lattice: tuple
    resolutions: tuple
    order_mass: float | None = None
    order_mom: float | None = None

    @property
    def finest(self) -> ResolutionNorms:
        return self.resolutions[-1]

    @property
    def h_t(self):
        return self.finest.h_t

    @property
    def h_r(self):
        return self.finest.h_r

    @property
    def mass_linf(self):
        return self.finest.mass_linf

    @property
    def mass_l2(self):
        return self.finest.mass_l2

    @property
    def mom_linf(self):
        return self.finest.mom_linf

    @property
    def mom_l2(self):
        return self.finest.mom_l2

    def to_dict(self):
        return {
            "window": asdict(self.window),
            "lattice": list(self.lattice),
            "resolutions": [asdict(r) for r in self.resolutions],
            "h_t": self.h_t, "h_r": self.h_r,
            "mass_linf": self.mass_linf, "mass_l2": self.mass_l2,
            "mom_linf": self.mom_linf, "mom_l2": self.mom_l2,
            "order_mass": self.order_mass, "order_mom": self.order_mom,
        }


def _sample_stencil(field_fn, t, r, h_t, h_r):
    """Field values on the centered 5-point cross around (t, r)."""
    if r - h_r <= 0.0:
        raise StencilOutOfDomainError(
            f"stencil needs r - h_r > 0, got r={r!r}, h_r={h_r!r}")
    try:
        c = field_fn(t, r)
        rp = field_fn(t, r + h_r)
        rm = field_fn(t, r - h_r)
        tp = field_fn(t + h_t, r)
        tm = field_fn(t - h_t, r)
    except (DomainError, OutOfRangeError) as exc:
        raise StencilOutOfDomainError(
            f"stencil around (t={t!r}, r={r!r}) left the field domain: {exc}"
        ) from exc
    return c, rp, rm, tp, tm


def _mass_from_stencil(N, r, h_t, h_r, c, rp, rm, tp, tm):
    rho_t = (tp[0] - tm[0]) / (2.0 * h_t)
    rho_r = (rp[0] - rm[0]) / (2.0 * h_r)
    u_r = (rp[1] - rm[1]) / (2.0 * h_r)
    return rho_t + c[1] * rho_r + c[0] * u_r + (N - 1) / r * c[0] * c[1]


def _momentum_from_stencil(params, r, h_t, h_r, c, rp, rm, tp, tm):
    """Momentum residual, or _SKIPPED if the stencil touches vacuum;
    NonFiniteFieldError if the residual is not finite."""
    gamma, theta = params.gamma, params.theta
    K, kappa, N = params.K, params.kappa, params.N
    rho_samples = (c[0], rp[0], rm[0], tp[0], tm[0])
    if min(rho_samples) <= 0.0:
        return _SKIPPED
    rho_c, u_c = c
    u_t = (tp[1] - tm[1]) / (2.0 * h_t)
    u_r = (rp[1] - rm[1]) / (2.0 * h_r)
    u_rr = (rp[1] - 2.0 * u_c + rm[1]) / (h_r * h_r)
    pressure_r = (rp[0] ** gamma - rm[0] ** gamma) / (2.0 * h_r)
    viscosity_r = kappa * (rp[0] ** theta - rm[0] ** theta) / (2.0 * h_r)
    value = (rho_c * (u_t + u_c * u_r)
             + params.delta * K * pressure_r
             - viscosity_r * ((N - 1) / r * u_c + u_r)
             - kappa * rho_c ** theta
             * (u_rr + (N - 1) / r * u_r - (N - 1) / (r * r) * u_c))
    if not math.isfinite(value):
        raise NonFiniteFieldError(
            f"momentum residual at r={r!r} is not finite: {value!r}")
    return value


def mass_residual(field_fn, params, t, r, h_t, h_r):
    """Centered-difference residual of the mass equation at (t, r).

    Only the spatial dimension params.N enters; the result is bitwise
    independent of (K, kappa, gamma, theta, delta).  Raises
    StencilOutOfDomainError when a stencil point leaves the domain.
    """
    stencil = _sample_stencil(field_fn, t, r, h_t, h_r)
    return _mass_from_stencil(params.N, r, h_t, h_r, *stencil)


def momentum_residual(field_fn, params, t, r, h_t, h_r):
    """Centered-difference residual of the momentum equation at (t, r).

    The gradients of rho**gamma and rho**theta come from differencing
    the powered field samples.  Raises NonFiniteFieldError when the
    stencil touches vacuum (the residual is classically undefined at a
    support boundary) or the residual is not finite, and
    StencilOutOfDomainError for domain exits.
    """
    stencil = _sample_stencil(field_fn, t, r, h_t, h_r)
    value = _momentum_from_stencil(params, r, h_t, h_r, *stencil)
    if value is _SKIPPED:
        raise NonFiniteFieldError(
            f"momentum stencil at (t={t!r}, r={r!r}) touches vacuum")
    return value


def _round12(x):
    return float(f"{x:.12g}")


def _norms_over_lattice(field_fn, params, window, h_t, h_r, lattice):
    nt, nr = lattice
    mass_max = 0.0
    mass_sq = 0.0
    mom_max = 0.0
    mom_sq = 0.0
    mom_count = 0
    skipped = 0
    for i in range(nt):
        t = window.t_min + (window.t_max - window.t_min) * i / (nt - 1)
        for j in range(nr):
            r = window.r_min + (window.r_max - window.r_min) * j / (nr - 1)
            stencil = _sample_stencil(field_fn, t, r, h_t, h_r)
            mass = _mass_from_stencil(params.N, r, h_t, h_r, *stencil)
            if not math.isfinite(mass):
                raise NonFiniteFieldError(
                    f"mass residual at (t={t!r}, r={r!r}) is not finite")
            mass_max = max(mass_max, abs(mass))
            mass_sq += mass * mass
            mom = _momentum_from_stencil(params, r, h_t, h_r, *stencil)
            if mom is _SKIPPED:
                skipped += 1
                continue
            mom_max = max(mom_max, abs(mom))
            mom_sq += mom * mom
            mom_count += 1
    mass_l2 = math.sqrt(mass_sq / (nt * nr))
    mom_l2 = math.sqrt(mom_sq / mom_count) if mom_count else 0.0
    return ResolutionNorms(
        h_t=h_t, h_r=h_r,
        mass_linf=_round12(mass_max), mass_l2=_round12(mass_l2),
        mom_linf=_round12(mom_max), mom_l2=_round12(mom_l2),
        skipped_momentum=skipped)


def _order(norm_coarse, norm_fine, ratio):
    if norm_coarse <= 0.0 or norm_fine <= 0.0 or ratio <= 1.0:
        return None
    return math.log(norm_coarse / norm_fine) / math.log(ratio)


def verify_window(field_fn, params, window, resolutions,
                  lattice=DEFAULT_LATTICE):
    """Residual norms over a uniform lattice at each (h_t, h_r).

    resolutions is a sequence of (h_t, h_r) pairs, coarse to fine; with
    two or more, the report carries convergence-order estimates from the
    last pair (2 is the expected order for an exact solution).  lattice
    may be an int (same count per axis) or an (n_t, n_r) pair.  A mass
    or momentum residual that is not finite raises NonFiniteFieldError;
    only stencils that touch vacuum (rho <= 0) are skipped.
    """
    if isinstance(lattice, int):
        lattice = (lattice, lattice)
    if lattice[0] < 2 or lattice[1] < 2:
        raise ValueError(f"lattice must have >= 2 points per axis, got {lattice}")
    resolutions = [(float(ht), float(hr)) for ht, hr in resolutions]
    if not resolutions:
        raise ValueError("need at least one (h_t, h_r) resolution")

    entries = [_norms_over_lattice(field_fn, params, window, h_t, h_r, lattice)
               for h_t, h_r in resolutions]

    order_mass = order_mom = None
    if len(entries) >= 2:
        prev, last = entries[-2], entries[-1]
        ratio = math.sqrt((prev.h_t / last.h_t) * (prev.h_r / last.h_r))
        order_mass = _order(prev.mass_linf, last.mass_linf, ratio)
        order_mom = _order(prev.mom_linf, last.mom_linf, ratio)

    return ResidualReport(window=window, lattice=tuple(lattice),
                          resolutions=tuple(entries),
                          order_mass=order_mass, order_mom=order_mom)


def verify_family(params, family, window, resolutions,
                  lattice=DEFAULT_LATTICE, z_max=DEFAULT_Z_MAX):
    """End-to-end check that a constructed family solves the system.

    Builds the family's shape and scaling, assembles the fields, and
    runs verify_window on them with the family's pressure switch.  The
    scaling trajectory is integrated far enough past the window for the
    time stencils at every listed resolution.
    """
    max_h_t = max(h_t for h_t, _ in resolutions)
    t_end = window.t_max + 2.0 * max_h_t
    solution = build_solution(params, family, t_end=t_end, z_max=z_max)
    return verify_window(solution.field(), params, window, resolutions,
                         lattice=lattice)
