"""Finite-difference residual verification of candidate fields.

The verifier treats (rho, u) as a black box: it samples field values on
centered stencils, one broadcast call on the lattice and one more on the
stack of every resolution's four stencil offsets, and forms the mass and
momentum residuals of every resolution at once, of the radial system

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
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DomainError,
    NonFiniteFieldError,
    OutOfRangeError,
    StencilOutOfDomainError,
    refuse,
)
from .fields import SolutionField
from .solutions import build_solution

#: lattice points per window axis used by verify_window
DEFAULT_LATTICE = 33


@dataclass(frozen=True)
class Window:
    """Rectangle [t_min, t_max] x [r_min, r_max] to sample residuals on."""

    t_min: float
    t_max: float
    r_min: float
    r_max: float

    def __post_init__(self):
        bounds = (self.t_min, self.t_max, self.r_min, self.r_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"window bounds must be finite, got {bounds}")
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

    finest holds the norms of the finest (last) resolution, which
    to_dict also writes at the top level of the JSON report; the
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

    def to_dict(self):
        finest = self.finest
        return {
            "window": asdict(self.window),
            "lattice": list(self.lattice),
            "resolutions": [asdict(r) for r in self.resolutions],
            "h_t": finest.h_t, "h_r": finest.h_r,
            "mass_linf": finest.mass_linf, "mass_l2": finest.mass_l2,
            "mom_linf": finest.mom_linf, "mom_l2": finest.mom_l2,
            "order_mass": self.order_mass, "order_mom": self.order_mom,
        }


def _array_field(field_fn):
    """field_fn taking arrays: a SolutionField as is, any other callable
    called once per point of the broadcast (t, r), in C order, a slab of
    its last two axes (one lattice) at a time.  Each sample is checked
    as it arrives: a rho or u that is not finite raises
    NonFiniteFieldError at once, naming its (t, r), as it could only
    reach a non-finite residual."""
    if isinstance(field_fn, SolutionField):
        return field_fn

    def field(t, r):
        t, r = np.broadcast_arrays(t, r)
        t_all, r_all = t.ravel(), r.ravel()
        rho, u = np.empty(t.size), np.empty(t.size)
        slab, finite = max(1, math.prod(t.shape[-2:])), math.isfinite
        for start in range(0, t.size, slab):
            ts = t_all[start:start + slab].tolist()
            rs = r_all[start:start + slab].tolist()
            rhos, us = [], []
            put_rho, put_u = rhos.append, us.append
            for rho_k, u_k in map(field_fn, ts, rs):
                if not (finite(rho_k) and finite(u_k)):
                    k = len(rhos)
                    raise NonFiniteFieldError(
                        f"field sample at (t={ts[k]!r}, r={rs[k]!r}) is not finite: "
                        f"(rho, u) = ({rho_k!r}, {u_k!r})")
                put_rho(rho_k)
                put_u(u_k)
            rho[start:start + slab] = np.array(rhos, dtype=float)
            u[start:start + slab] = np.array(us, dtype=float)
        return rho.reshape(t.shape), u.reshape(t.shape)
    return field


def _sample(field, t, r):
    """field at (t, r); leaving its domain raises StencilOutOfDomainError."""
    try:
        return field(t, r)
    except (DomainError, OutOfRangeError) as exc:
        raise StencilOutOfDomainError(
            f"stencil left the field domain: {exc}") from exc


def _residuals(field, params, t, r, centre, h_t, h_r):
    """Mass and momentum residuals on the centered 5-point cross around
    each (t, r), given centre, the field there, and the mask of stencils
    touching vacuum (some rho == 0), where momentum is classically
    undefined and set to 0.

    h_t and h_r are floats, or arrays of shape (R, 1, ..., 1) that stack
    R resolutions ahead of the lattice's axes, whose residuals then stack
    the same way.  Every offset of every resolution is sampled in one
    field call, on a stack of shape (R, 4, *lattice) whose C order is r +
    h_r, r - h_r, t + h_t, t - h_t per resolution.  Only then is any
    residual refused, resolution by resolution: a negative rho on a
    stencil raises DomainError, and a non-finite residual raises
    NonFiniteFieldError.  NaN is never vacuum (np.minimum propagates it,
    and a non-finite u_t keeps the stencil).
    """
    rho, u = centre
    nd = np.broadcast(t, r).ndim
    t, r = (np.reshape(x, (1,) * (nd - np.ndim(x)) + np.shape(x)) for x in (t, r))

    def stack(*offsets):
        return np.stack(np.broadcast_arrays(*offsets), axis=-1 - nd)

    samples = _sample(field, stack(t, t, t + h_t, t - h_t), stack(r + h_r, r - h_r, r, r))
    (rho_rp, rho_rm, rho_tp, rho_tm), (u_rp, u_rm, u_tp, u_tm) = (
        np.moveaxis(x, -1 - nd, 0) for x in samples)
    gamma, theta = params.gamma, params.theta
    K, kappa, N = params.K, params.kappa, params.N
    rho_t = (rho_tp - rho_tm) / (2.0 * h_t)
    rho_r = (rho_rp - rho_rm) / (2.0 * h_r)
    u_t = (u_tp - u_tm) / (2.0 * h_t)
    u_r = (u_rp - u_rm) / (2.0 * h_r)
    u_rr = (u_rp - 2.0 * u + u_rm) / (h_r * h_r)
    mass = rho_t + u * rho_r + rho * u_r + (N - 1) / r * rho * u
    lo = np.minimum(rho, samples[0].min(axis=-1 - nd))
    vacuum = (lo == 0.0) & np.isfinite(u_t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pressure_r = (np.power(rho_rp, gamma) - np.power(rho_rm, gamma)) / (2.0 * h_r)
        viscosity_r = (kappa * (np.power(rho_rp, theta) - np.power(rho_rm, theta))
                       / (2.0 * h_r))
        mom = (rho * (u_t + u * u_r)
               + params.delta * K * pressure_r
               - viscosity_r * ((N - 1) / r * u + u_r)
               - kappa * np.power(rho, theta)
               * (u_rr + (N - 1) / r * u_r - (N - 1) / (r * r) * u))
    mom = np.where(vacuum, 0.0, mom)
    for k in np.ndindex(lo.shape[:lo.ndim - nd]):
        refuse(DomainError, lo[k] < 0.0, "negative density {value!r} on the stencil "
               "at (t={t!r}, r={r!r})", t=t, r=r, value=lo[k])
        for name, residual in (("mass", mass[k]), ("momentum", mom[k])):
            refuse(NonFiniteFieldError, ~np.isfinite(residual),
                   f"{name} residual at (t={{t!r}}, r={{r!r}}) is not finite: {{value!r}}",
                   t=t, r=r, value=residual)
    return mass, mom, vacuum


def _steps(resolutions):
    """resolutions as (h_t, h_r) float pairs, each step finite and > 0."""
    resolutions = [(float(ht), float(hr)) for ht, hr in resolutions]
    if not resolutions:
        raise ValueError("need at least one (h_t, h_r) resolution")
    if not all(0.0 < h < math.inf for pair in resolutions for h in pair):
        raise ValueError(f"h_t and h_r must be finite and > 0, got {resolutions}")
    return resolutions


def _round12(x):
    return float(f"{x:.12g}")


def _rms(x, count):
    """sqrt(sum(x**2)/count) of the finite residual x; where the sum of
    squares overflows, peak*sqrt(sum((x/peak)**2)/count), peak the
    largest |x|, which keeps the norm finite and at most peak."""
    with np.errstate(over="ignore"):
        total = np.sum(x * x)
    if math.isfinite(total):
        return math.sqrt(total / count)
    peak = np.max(np.abs(x))
    scaled = x / peak
    return float(peak) * math.sqrt(np.sum(scaled * scaled) / count)


def _norms(mass, mom, vacuum, h_t, h_r):
    skipped = int(np.count_nonzero(vacuum))
    kept = mom.size - skipped
    return ResolutionNorms(
        h_t=h_t, h_r=h_r,
        mass_linf=_round12(np.max(np.abs(mass))),
        mass_l2=_round12(_rms(mass, mass.size)),
        mom_linf=_round12(np.max(np.abs(mom))),
        mom_l2=_round12(_rms(mom, kept) if kept else 0.0),
        skipped_momentum=skipped)


def _lattice(lattice):
    """lattice, an integer >= 2 (a numpy integer included), as an int."""
    try:
        points = operator.index(lattice)
    except TypeError:
        points = 0
    if points < 2:
        raise ValueError(f"lattice must be an integer >= 2, got {lattice!r}")
    return points


def _order(norm_coarse, norm_fine, ratio):
    if norm_coarse <= 0.0 or norm_fine <= 0.0 or ratio <= 1.0:
        return None
    return math.log(norm_coarse / norm_fine) / math.log(ratio)


def verify_window(field_fn, params, window, resolutions,
                  lattice=DEFAULT_LATTICE):
    """Residual norms over a uniform lattice at each (h_t, h_r) of a
    SolutionField or of any (t, r) -> (rho, u) callable, from two field
    calls whatever the number of resolutions: one on the lattice, whose
    samples serve every resolution, and one on the stack of every
    resolution's four stencil offsets, shape (R, 4, lattice, lattice).
    A black box is called once per point of each, in C order: the
    lattice, then per resolution the r + h_r, r - h_r, t + h_t and
    t - h_t blocks.  A black-box sample that is not finite raises
    NonFiniteFieldError at once.

    resolutions is a sequence of (h_t, h_r) pairs, coarse to fine; with
    two or more, the report carries convergence-order estimates from the
    last pair (2 is the expected order for an exact solution).  lattice
    is the number of points per window axis.  A lattice that is not an
    integer >= 2, or a step that is not finite and > 0, raises ValueError
    before any sample; a stencil with r - h_r <= 0, or one that leaves
    the field's domain, raises StencilOutOfDomainError.  A mass or
    momentum residual that is not finite raises NonFiniteFieldError, and
    a stencil with a negative rho raises DomainError: only stencils that
    touch vacuum (rho == 0) are skipped, and counted.  Every offset is
    sampled before any residual is refused, resolution by resolution: so
    where two resolutions hold different faults, a later one's sampling
    fault (a sample that is not finite, or a stencil off the field's
    domain) is raised ahead of an earlier one's residual fault.
    """
    lattice = _lattice(lattice)
    resolutions = _steps(resolutions)

    field = _array_field(field_fn)
    k = np.arange(lattice)
    t = (window.t_min + (window.t_max - window.t_min) * k / (lattice - 1))[:, None]
    r = window.r_min + (window.r_max - window.r_min) * k / (lattice - 1)
    for _, h_r in resolutions:
        if r[0] - h_r <= 0.0:
            raise StencilOutOfDomainError(
                f"stencil needs r - h_r > 0, got r={float(r[0])!r}, h_r={h_r!r}")
    centre = _sample(field, t, r)
    h_t, h_r = (np.reshape(h, (-1, 1, 1)) for h in zip(*resolutions))
    mass, mom, vacuum = _residuals(field, params, t, r, centre, h_t, h_r)
    entries = [_norms(mass[k], mom[k], vacuum[k], *resolutions[k])
               for k in range(len(resolutions))]

    order_mass = order_mom = None
    if len(entries) >= 2:
        prev, last = entries[-2], entries[-1]
        ratio = math.sqrt((prev.h_t / last.h_t) * (prev.h_r / last.h_r))
        order_mass = _order(prev.mass_linf, last.mass_linf, ratio)
        order_mom = _order(prev.mom_linf, last.mom_linf, ratio)

    return ResidualReport(window=window, lattice=(lattice, lattice),
                          resolutions=tuple(entries),
                          order_mass=order_mass, order_mom=order_mom)


def verify_family(params, family, window, resolutions, lattice=DEFAULT_LATTICE):
    """End-to-end check that a constructed family solves the system.

    Builds the family's shape and scaling, assembles the fields, and
    runs verify_window on them with the family's pressure switch.  The
    scaling trajectory is integrated far enough past the window for the
    time stencils at every listed resolution; the shape needs no bound,
    as every family's shape is a closed form on all of z.  Its inputs
    are checked as verify_window checks them, before the build.
    """
    lattice = _lattice(lattice)
    max_h_t = max(h_t for h_t, _ in _steps(resolutions))
    t_end = window.t_max + 2.0 * max_h_t
    solution = build_solution(params, family, t_end=t_end)
    return verify_window(solution.field(), params, window, resolutions,
                         lattice=lattice)
