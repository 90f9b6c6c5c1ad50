"""Density shape construction and evaluation."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from nssol import (
    DomainError,
    ModelParams,
    NssolError,
    OutOfRangeError,
    derived_s,
    theta_required,
)
from nssol import profiles
from nssol.profiles import ExpQuadratic, ImplicitProfile, PowerRoot, powerlaw_profile
from nssol.scaling import (
    PowerLawScaling,
    integrate_isothermal,
    integrate_polytropic,
    integrate_pressureless,
)
from tests.oracles import rk4_first_order


# --- power-root closed form ------------------------------------------------

def test_power_root_basic_value():
    prof = PowerRoot(0.0, 1.0, 1.0)  # y = z**2/2 + 1
    y, dy = prof.evaluate(2.0)
    assert y == pytest.approx(3.0, abs=1e-14)
    assert dy == pytest.approx(2.0, abs=1e-14)
    assert prof.evaluate(3.0) == (pytest.approx(5.5), pytest.approx(3.0))


def test_power_root_constant_when_xi_zero():
    prof = PowerRoot(2.0, 0.0, 5.0)
    for z in (0.0, 0.7, 3.0, 10.0):
        y, dy = prof.evaluate(z)
        assert y == pytest.approx(5.0, abs=1e-12)
        assert dy == 0.0


def test_power_root_vacuum_clip():
    # n_exp=-3, xi=1, alpha=1: radicand = 1 - z**2, zero at z=1
    prof = PowerRoot(-3.0, 1.0, 1.0)
    assert prof.evaluate(1.0) == (0.0, 0.0)
    assert prof.evaluate(2.0) == (0.0, 0.0)
    y, _ = prof.evaluate(0.5)
    assert y > 0.0 and math.isfinite(y)


def test_power_root_rejects_excluded_exponent():
    with pytest.raises(ValueError):
        PowerRoot(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PowerRoot(0.0, 1.0, 0.0)  # alpha must be positive


def test_power_root_ode_identity_sweep():
    # dy/dz * y**n == xi*z on the support, using the analytic derivative
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 2000:
        n_exp = rng.uniform(-0.9, 3.0)
        xi = rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(0.1, 5.0)
        z = rng.uniform(0.0, 3.0)
        y, dy = PowerRoot(n_exp, xi, alpha).evaluate(z)
        if y == 0.0:  # vacuum
            continue
        assert abs(dy * y ** n_exp - xi * z) < 1e-9 * (1.0 + abs(xi * z))
        checked += 1


def test_power_root_never_negative_or_non_finite():
    prof = PowerRoot(-0.5, -1.5, 2.0)
    zs = np.linspace(0.0, 10.0, 2001)
    for z in zs:
        y, dy = prof.evaluate(z)
        assert y >= 0.0 and math.isfinite(y) and math.isfinite(dy)


def test_support_radius_bisection():
    prof = PowerRoot(-3.0, 1.0, 1.0)  # radicand 1 - z**2
    assert prof.z_vacuum == pytest.approx(1.0, abs=1e-10)

    # pressureless theta=1/2 shape with lam=-1: xi = 2/3 for N=3, kappa=1,
    # radicand 1 - z**2/6, boundary sqrt(6)
    xi = -(-1.0) / (3.0 * 1.0 * 0.5)
    prof2 = PowerRoot(0.5 - 2.0, xi, 1.0)
    assert prof2.z_vacuum == pytest.approx(math.sqrt(6.0), abs=1e-10)

    grows = PowerRoot(0.0, 1.0, 1.0)
    assert grows.z_vacuum is None


# --- exponential-quadratic shape -------------------------------------------

def test_isothermal_profile_values():
    flat = ExpQuadratic(1.0, 0.0, 0.0)
    assert flat.evaluate(3.7) == (1.0, 0.0)

    prof = ExpQuadratic(2.0, -1.0, 0.0)
    y, dy = prof.evaluate(1.0)
    assert y == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    assert dy == pytest.approx(-2.0 * y, rel=1e-12)
    assert prof.z_vacuum is None  # it decays, but never to vacuum

    vacuum = ExpQuadratic(0.0, 5.0, 3.0)
    assert vacuum.evaluate(0.3) == (0.0, 0.0)

    with pytest.raises(ValueError):
        ExpQuadratic(-1.0, 0.0, 0.0)


# --- polytropic shape -------------------------------------------------------

def test_polytropic_profile_values():
    prof = PowerRoot(2.0 - 2.0, 1.0, 1.0)  # y = z**2/2 + 1
    assert prof.evaluate(2.0)[0] == pytest.approx(3.0, abs=1e-14)
    assert PowerRoot(3.0 - 2.0, 1.0, 1.0).evaluate(0.0)[0] == pytest.approx(1.0)
    assert PowerRoot(3.0 - 2.0, 1.0, 2.0).evaluate(2.0)[0] == pytest.approx(
        math.sqrt(8.0), rel=1e-14)
    with pytest.raises(ValueError):
        PowerRoot(1.0 - 2.0, 1.0, 1.0)


def test_polytropic_monotone_growth():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = rng.uniform(1.05, 4.0)
        alpha = rng.uniform(0.2, 3.0)
        prof = PowerRoot(theta - 2.0, 1.0, alpha)
        zs = np.linspace(0.0, 5.0, 301)
        ys = [prof.evaluate(z)[0] for z in zs]
        assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:]))
        assert all(y >= alpha - 1e-12 for y in ys)


# --- implicit shape of the power-law family ---------------------------------

def _blowup_params():
    return ModelParams(N=3, gamma=5.0 / 3.0, theta=1.0, K=1.0, kappa=1.0,
                       delta=1)


def test_powerlaw_profile_constant_when_s_is_one():
    # gamma = 1 forces s = 1, so the forcing term vanishes and y == alpha
    params = ModelParams(N=2, gamma=1.0, theta=0.5, delta=1)
    prof = powerlaw_profile(params, m=1.0, sigma=1.0, alpha=2.0, s=1.0)
    for z in (0.0, 1.3, 5.0):
        y, dy = prof.evaluate(z)
        assert y == pytest.approx(2.0, abs=1e-12)
        assert abs(dy) < 1e-12


def test_powerlaw_profile_constant_when_m_zero():
    prof = powerlaw_profile(_blowup_params(), m=0.0, sigma=1.0, alpha=1.5,
                            s=0.5)
    assert prof.evaluate(4.0)[0] == pytest.approx(1.5, abs=1e-12)


def test_powerlaw_profile_matches_fixed_step_oracle():
    # m = -1 gives a strictly increasing shape; the value at z = 1 is
    # cross-checked against a brute-force fixed-step RK4 run at h = 1e-6
    params = _blowup_params()
    s = 0.5
    prof = powerlaw_profile(params, m=-1.0, sigma=1.0, alpha=1.0, s=s)

    def coeff(y):
        return (10.0 / 3.0) * y ** (-1.0 / 3.0) + 3.0 / y

    def slope(z, y):
        return 0.5 * z / coeff(y)

    y_oracle = rk4_first_order(slope, 1.0, 1.0, 1e-6)
    y_pkg, _ = prof.evaluate(1.0)
    assert y_pkg == pytest.approx(y_oracle, rel=1e-8)

    zs = np.linspace(0.0, 2.0, 101)
    ys = [prof.evaluate(z)[0] for z in zs]
    assert all(b > a for a, b in zip(ys, ys[1:]))  # strictly increasing


def test_powerlaw_profile_singular_start_truncates():
    # c(alpha) = K*gamma/s - m*N*kappa*theta = 10/3 - 3m vanishes at m=10/9
    params = _blowup_params()
    prof = powerlaw_profile(params, m=10.0 / 9.0, sigma=1.0, alpha=1.0, s=0.5)
    with pytest.raises(OutOfRangeError, match="singular"):
        prof.evaluate(0.5)


def test_powerlaw_profile_falling_matches_log_oracle():
    # m = 2 makes c(alpha) < 0: y falls to ~2.5e-8 at z = 10, where a
    # table bound by atol was off by 8e-6 relative; fixed-step RK4 in
    # u = log y, u' = r*z/(c(y)*y), stays smooth there
    prof = powerlaw_profile(_blowup_params(), m=2.0, sigma=1.0, alpha=1.0,
                            s=0.5)

    def slope(z, u):
        return 2.0 * z / ((10.0 / 3.0) * math.exp(2.0 * u / 3.0) - 6.0)

    y_oracle = math.exp(rk4_first_order(slope, 0.0, 10.0, 1e-3))
    assert prof.evaluate(10.0)[0] == pytest.approx(y_oracle, rel=1e-10)


def test_powerlaw_profile_refuses_gamma_not_above_theta():
    with pytest.raises(ValueError):
        powerlaw_profile(ModelParams(N=3, gamma=1.0, theta=1.0), m=1.0,
                         sigma=1.0, alpha=1.0, s=1.0)


@settings(max_examples=200, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), gamma=st.floats(1.0, 4.0),
       m=st.floats(0.05, 3.0).flatmap(lambda m: st.sampled_from([-m, m])),
       sigma=st.floats(0.5, 2.0), alpha=st.floats(0.5, 2.0),
       frac=st.floats(0.02, 1.0))
@example(N=3, gamma=3.0, m=3.0, sigma=1.0, alpha=1.0, frac=0.5)
@example(N=3, gamma=2.0, m=2.0, sigma=1.0, alpha=1.0, frac=0.5)
def test_powerlaw_shape_solves_its_ode(N, gamma, m, sigma, alpha, frac):
    # black box: y from evaluate alone, against the ODE
    # (p*y**(gamma-2) - v*y**(theta-2))*y' = r*z and its vacuum edge
    theta = theta_required(ModelParams(N, gamma, 1.0))
    params = ModelParams(N=N, gamma=gamma, theta=theta)
    s = derived_s(params)
    p = gamma / (s * sigma ** (gamma * N + 1))
    v = m * N * theta / sigma ** (theta * N + 1)
    r = (1.0 - s) * m * m / sigma ** (N - 1)

    def c(y):
        return p * y ** (gamma - 2.0) - v * y ** (theta - 2.0)

    c_alpha = c(alpha)
    if abs(c_alpha) < 0.05 * (p * alpha ** (gamma - 2.0)
                              + abs(v) * alpha ** (theta - 2.0)):
        return  # near-singular start: y' = r*z/c is ill-conditioned
    prof = powerlaw_profile(params, m, sigma, alpha, s)
    z_vac = math.inf
    if c_alpha < 0.0 and theta > 1.0 and r > 0.0:
        g_vac = (v * alpha ** (theta - 1.0) / (theta - 1.0)
                 - p * alpha ** (gamma - 1.0) / (gamma - 1.0))
        z_vac = math.sqrt(2.0 * g_vac / r)
        for z in (z_vac * (1.0 + 1e-9), 1.5 * z_vac, 10.0 * z_vac):
            assert prof.evaluate(z) == (0.0, 0.0)

    zs = np.linspace(0.0, min(3.0, 1.2 * z_vac), 60)
    ys = [prof.evaluate(z)[0] for z in zs]
    away = math.copysign(1.0, c_alpha)
    assert ys[0] == alpha
    assert all(away * (b - a) >= 0.0 for a, b in zip(ys, ys[1:]))

    # differenced in log y, whose scale of variation stays that of
    # z_vac - z where y itself steepens like a power 1/(theta - 1); the
    # absolute floor is the float resolution of the log y difference
    z_hi = min(3.0, 0.5 * z_vac)
    z, dz = frac * z_hi, 1e-5 * z_hi
    y = prof.evaluate(z)[0]
    log_slope = (math.log(prof.evaluate(z + dz)[0])
                 - math.log(prof.evaluate(z - dz)[0])) / (2.0 * dz)
    assert log_slope * c(y) * y == pytest.approx(
        r * z, rel=1e-6, abs=1e-13 * abs(c(y) * y) / dz)


def _bisection_shape(prof, z):
    """y(z) of an ImplicitProfile by bisection alone: the root w of
    D(w) = G(alpha*e**(d*w)) - G(alpha) = r*z**2/2, y = alpha*e**(d*w)."""
    cp = prof.p * prof.alpha ** (prof.gamma - 1.0)
    cv = prof.v * prof.alpha ** (prof.theta - 1.0)
    d = 1.0 if cp > cv else -1.0

    def prim(e, x):
        return x if e == 0.0 else math.expm1(e * x) / e

    def D(w):
        return cp * prim(prof.gamma - 1.0, d * w) - cv * prim(prof.theta - 1.0, d * w)

    h = 0.5 * prof.r * z * z
    lo, hi = 0.0, 1.0
    while D(hi) < h:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if D(mid) < h else (lo, mid)
    return prof.alpha * math.exp(d * 0.5 * (lo + hi))


@pytest.mark.parametrize("gamma, theta", [(5.0 / 3.0, 1.0), (3.0, 2.0)])
@pytest.mark.parametrize("rising", [True, False])
@pytest.mark.parametrize("frac", [3e-4, 1e-3, 6e-3])
def test_implicit_shape_near_singular_start_matches_bisection(gamma, theta, rising, frac):
    # |c(alpha)| at 0.03-0.6 % of its terms: the linear first guess
    # h/(alpha*c(alpha)) lands far outside the bracket there; the batched
    # Newton must still give the bisection root, here for all z at once
    sign = 1.0 if rising else -1.0
    p, alpha = 1.0, 1.0
    v = p * (1.0 - sign * frac) / (1.0 + sign * frac)  # (p - v)/(p + v) = sign*frac
    prof = ImplicitProfile(p, v, 1.0, gamma, theta, alpha)
    z_hi = 2.0 if prof.z_vacuum is None else min(2.0, 0.9 * prof.z_vacuum)
    zs = np.linspace(0.05, z_hi, 9)
    ys, _ = prof.evaluate(zs)
    for z, y in zip(zs, ys):
        assert y == pytest.approx(_bisection_shape(prof, z), rel=1e-14, abs=0.0)
        assert prof.evaluate(z)[0] == y  # a scalar takes the same path


def test_implicit_shape_stops_once_its_bracket_closes(monkeypatch):
    # near vacuum (y ~ 0.014, z_vacuum ~ 1.30) a Newton step from inside a
    # bracket closed to adjacent floats still points out of it, by more
    # than the step test allows; the point used to sweep to the 100 cap.
    # A float z sweeps on Python floats and an array on numpy arrays, both
    # through _primitive, whose x tells the two paths apart
    base = ModelParams(N=3, gamma=3.6404, theta=1.0)
    params = ModelParams(N=3, gamma=3.6404, theta=theta_required(base))
    prof = powerlaw_profile(params, 1.3321, 1.49, 1.3311, derived_s(params))
    primitive = profiles._primitive
    for z, kind in ((1.2911, float), (np.array([1.2911]), np.ndarray)):
        kinds = []
        monkeypatch.setattr(profiles, "_primitive",
                            lambda e, x: kinds.append(type(x)) or primitive(e, x))
        y, _ = prof.evaluate(z)
        assert set(kinds) == {kind}
        assert 0 < len(kinds) // 2 <= 20  # two primitives a sweep
        assert y == pytest.approx(_bisection_shape(prof, 1.2911), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("build", [
    lambda: PowerLawScaling(math.nan, -1.0, 1.0, 0.5),
    lambda: PowerLawScaling(1.0, math.nan, 1.0, 0.5),
    lambda: PowerLawScaling(1.0, -1.0, math.nan, 0.5),
    lambda: PowerLawScaling(1.0, -1.0, 1.0, math.nan),
    lambda: ExpQuadratic(math.nan, -1.0, 0.0),
    lambda: ExpQuadratic(1.0, math.nan, 0.0),
    lambda: ExpQuadratic(1.0, -1.0, math.inf),
    lambda: PowerRoot(math.nan, 1.0, 1.0),
    lambda: PowerRoot(0.0, math.nan, 1.0),
    lambda: PowerRoot(0.0, 1.0, math.nan),
    lambda: PowerRoot(math.nan - 2.0, 1.0, 1.0),
    lambda: ImplicitProfile(1.0, math.nan, 1.0, 2.0, 1.0, 1.0),
    lambda: ImplicitProfile(1.0, 1.0, math.nan, 2.0, 1.0, 1.0),
    lambda: ImplicitProfile(1.0, 1.0, 1.0, 2.0, 1.0, math.nan),
    lambda: powerlaw_profile(_blowup_params(), math.nan, 1.0, 1.0, 0.5),
    lambda: powerlaw_profile(_blowup_params(), -1.0, math.nan, 1.0, 0.5),
    lambda: integrate_isothermal(-1.0, 1.0, 1.0, 3, math.nan, 0.0, 1.0),
    lambda: integrate_isothermal(-1.0, 1.0, 1.0, 3, 1.0, 0.0, math.nan),
    # a NaN constant of the scaling ODE used to stall solve_ivp for good
    lambda: integrate_isothermal(math.nan, 1.0, 1.0, 3, 1.0, 0.0, 1.0),
    lambda: integrate_polytropic(2.0, math.nan, 1.0, 1, 1.0, 0.5, 1.0),
    lambda: integrate_pressureless(2.0, math.nan, 3, 1.0, 0.5, 1.0),
    lambda: PowerRoot(3.0, 1.0, 1e100),  # alpha**(n_exp+1) = 1e400
    lambda: PowerRoot(1.0, 1.0, 1e-200),  # alpha**(n_exp+1) = 1e-400
    lambda: PowerRoot(1.0, -1.0, 1e-200),
    lambda: PowerRoot(1.0, 1.0, 1.2345678901234567e-160),  # subnormal 1.5e-320
])
def test_constructors_refuse_non_finite_constants(build):
    with pytest.raises(ValueError):
        build()


def test_negative_z_maps_to_absolute_value():
    prof = PowerRoot(2.0 - 2.0, 1.0, 1.0)
    assert prof.evaluate(-2.0) == prof.evaluate(2.0)


def test_growing_shapes_overflow_cleanly():
    from nssol import DomainError

    grower = ExpQuadratic(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        grower.evaluate(200.0)  # exp(4e4) exceeds float range
    shrinker = ExpQuadratic(1.0, -1.0, 0.0)
    assert shrinker.evaluate(200.0)[0] == 0.0  # clean underflow to vacuum


def test_exp_quadratic_refuses_non_finite_z():
    from nssol import DomainError

    with pytest.raises(OutOfRangeError, match="z nan is not a number"):
        ExpQuadratic(1.0, -1.0, 0.0).evaluate(math.nan)
    with pytest.raises(DomainError, match="z=inf"):
        ExpQuadratic(1.0, -1.0, 0.0).evaluate(math.inf)


def test_power_root_refuses_infinite_z():
    from nssol import DomainError

    clipped = PowerRoot(0.0, -1.0, 1.0)  # vacuum beyond z = sqrt(2)
    with pytest.raises(DomainError, match="z=inf"):
        clipped.evaluate(math.inf)
    with pytest.raises(OutOfRangeError, match="z nan is not a number"):
        clipped.evaluate(math.nan)


def test_implicit_shape_refuses_infinite_and_huge_z():
    # r*z**2/2 overflows near z = 1.4e154
    shape = ImplicitProfile(1.0, 2.0, 1.0, 2.0, 1.5, 1.0)
    for z in (math.inf, -math.inf, 1e155, np.array([0.5, 1e200])):
        with pytest.raises(DomainError, match="overflows at z="):
            shape.evaluate(z)
    # r = 0 leaves h = 0 at any finite z, but 0*inf at z = inf
    flat = ImplicitProfile(1.0, 2.0, 0.0, 2.0, 1.5, 1.0)
    assert flat.evaluate(1e200) == (1.0, 0.0)
    with pytest.raises(DomainError):
        flat.evaluate(math.inf)
    y, dy = shape.evaluate(np.array([0.0, 1e150]))
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(dy))


def test_closed_form_shapes_at_huge_z_refuse_or_vanish_without_warning():
    # B*z*z and the radicand overflow to +-inf at z = 1e200: the growing
    # shapes refuse, the decaying and the vacuum-reaching ones give 0
    for shape in (ExpQuadratic(1.0, 1.0, 0.0), PowerRoot(0.0, 1.0, 1.0)):
        with pytest.raises(DomainError, match="overflows at z=1e[+]200"):
            shape.evaluate(1e200)
    # flat shapes: 0*inf at z = inf, refused all the same
    for shape in (ExpQuadratic(1.0, 0.0, 0.0), PowerRoot(0.0, 0.0, 1.0)):
        assert shape.evaluate(1e200) == (1.0, 0.0)
        with pytest.raises(DomainError, match="overflows at z=inf"):
            shape.evaluate(math.inf)
    for shape in (ExpQuadratic(1.0, -1.0, 0.0), PowerRoot(-1.5, 1.0, 1.0)):
        assert shape.evaluate(1e200) == (0.0, 0.0)
        y, dy = shape.evaluate(np.array([1.0, 1e200]))
        assert y[1] == dy[1] == 0.0 and y[0] > 0.0


def _shape(cls, *constants):
    try:
        return cls(*constants)
    except ValueError:  # constants the constructor refuses
        reject()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_moderate = st.floats(-4.0, 4.0)
_closed_form_shapes = st.one_of(
    st.builds(_shape, st.just(ExpQuadratic), _finite, _finite, _finite),
    st.builds(_shape, st.just(PowerRoot), _finite, _finite, _finite))


@settings(max_examples=300, deadline=None)
@given(shape=_closed_form_shapes, z=_finite)
@example(shape=ExpQuadratic(1e10, 1.0, 0.0), z=26.5)  # A*exp(arg) overflows
@example(shape=ExpQuadratic(1.0, 1.0, 0.0), z=26.6)   # 2*B*z*y overflows
def test_closed_form_shapes_are_finite_or_refuse(shape, z):
    try:
        y, dy = shape.evaluate(z)
    except DomainError:
        return
    assert math.isfinite(y) and y >= 0.0 and math.isfinite(dy), (y, dy)


def _implicit(p, k, r, theta, gap, alpha):
    # v = k*p*alpha**gap: the shape falls from alpha where k > 1
    return _shape(ImplicitProfile, p, k * p * alpha ** gap, r, theta + gap, theta, alpha)


_implicit_shapes = st.builds(
    _implicit, st.floats(0.1, 4.0), st.floats(-2.0, 4.0), st.floats(0.0, 4.0),
    st.floats(0.5, 3.0), st.floats(0.05, 2.0), st.floats(0.1, 4.0))


@settings(max_examples=100, deadline=None)
@given(shape=st.one_of(
    st.builds(_shape, st.just(ExpQuadratic), st.floats(0.0, 1e3), _moderate, _moderate),
    st.builds(_shape, st.just(PowerRoot), _moderate, _moderate, st.floats(1e-3, 1e3)),
    _implicit_shapes),
    past=st.floats(1.0, 4.0))
# a subnormal r or xi: the quotient under the edge's square root
# overflows, while the edges, near 3e155 and 4.5e161, are floats
@example(shape=_implicit(1.0, 2.0, 2.225073858507e-311, 2.0, 1.0, 1.0), past=1.0)
@example(shape=PowerRoot(1.0, -5e-324, 1.0), past=1.0)
def test_no_shape_returns_a_negative_density(shape, past):
    # the premise under which the verifier refuses a negative density:
    # from z = 0 to past its vacuum edge, if it has one, and at the edge
    # itself, a shape's y is finite and >= 0, batched or one z at a time,
    # or the call refuses with an NssolError
    edge = shape.z_vacuum or 1.0
    zs = np.append(np.linspace(0.0, past * edge, 17), edge)
    for z in [zs, *zs.tolist()]:
        try:
            y, _ = shape.evaluate(z)
        except NssolError:
            continue
        assert np.all(np.isfinite(y) & (y >= 0.0)), (shape, z, y)


#: a falling shape whose vacuum edge is 1.7858204964552225: one ulp
#: inside it dy was +inf: y**(theta - 1) of 1e-16 had no digit left in
#: expm1 + 1; its ODE gives -3,996,338.23
_NEAR_VACUUM = ImplicitProfile(
    p=2.1857167520572247, v=7.058775387220361, r=2.938020389509506,
    gamma=4.258210702271304, theta=2.7196600528151182, alpha=1.260314850695344)

#: dy within SLOPE_ULPS*L ulps of its ODE at the shape's own y, where L
#: is the conditioning of the slope formula at that point (_slope_ode)
SLOPE_ULPS = 8


def _slope_ode(shape, z, y):
    """(lead, ratio, L) at a float z >= 0 by the shape's ODE from its own
    y, at 200 bits: dy/dz = lead*ratio, the two factors that the shape
    forms as floats, 2*B*z times y, xi*z times y**-n, or d*r*z times
    y/(d*c(y)*y).  L >= 1 grows with the rounding that each formula's
    exponentials amplify: with the size of the exponent n + 1 and of
    log(y**(n + 1)) for a power root; for an implicit shape with
    |log alpha| and |log(y/alpha)| times the largest of 1, |gamma - 1|
    and |theta - 1|, times the condition number kappa of
    c(y)*y = p*y**(gamma - 1) - v*y**(theta - 1)."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(200):
        z, y = mp.mpf(z), mp.mpf(y)
        if isinstance(shape, ExpQuadratic):
            return 2 * mp.mpf(shape.B) * z, y, 1.0
        if isinstance(shape, PowerRoot):
            n = mp.mpf(shape.n_exp)
            return (mp.mpf(shape.xi) * z, y ** -n,
                    float(1 + abs(n + 1) + abs((n + 1) * mp.log(y))))
        terms = (mp.mpf(shape.p) * y ** (mp.mpf(shape.gamma) - 1),
                 mp.mpf(shape.v) * y ** (mp.mpf(shape.theta) - 1))
        kappa = (abs(terms[0]) + abs(terms[1])) / abs(terms[0] - terms[1])
        spread = max(1.0, abs(shape.gamma - 1.0), abs(shape.theta - 1.0))
        alpha = mp.mpf(shape.alpha)
        return (mp.mpf(shape.r) * z, y / (terms[0] - terms[1]),
                float(kappa * (1 + abs(mp.log(alpha)) + spread * abs(mp.log(y / alpha)))))


def _ulps(got, want):
    """|got - want| in ulps of want, those of the smallest normal float
    at the least: a subnormal keeps fewer digits."""
    return float(abs(got - want)) / math.ulp(max(abs(float(want)), sys.float_info.min))


@settings(max_examples=150, deadline=None)
@given(shape=st.one_of(
    st.builds(_shape, st.just(ExpQuadratic), st.floats(0.0, 1e3), _moderate, _moderate),
    st.builds(_shape, st.just(PowerRoot), _moderate, _moderate, st.floats(1e-3, 1e3)),
    _implicit_shapes),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@example(shape=_NEAR_VACUUM, fracs=[0.5])
def test_each_slope_satisfies_its_shape_ode(shape, fracs):
    # dy, batched and one z at a time, against the shape's ODE at its own
    # y, on [0, z_vacuum) (or [0, 4]), at z_vacuum*(1 - 10**-k), k = 2..15,
    # where y**(theta - 1) of an implicit shape falls to 1e-16, and at the
    # last float short of z_vacuum.
    # Over 140,000 points of these shapes the largest dy error was 2.9*L
    # ulps for an implicit shape (59 ulps at L up to 1.4e3), 1.4*L for a
    # power root (41 ulps) and 1.4 ulps for an exponential, so the bound
    # of 8*L has a margin near 3; formed from _primitive's y**e, the slope
    # of an implicit shape was up to 9.8e14 ulps off
    if isinstance(shape, ImplicitProfile):
        a = shape.alpha
        c_alpha = shape.p * a ** (shape.gamma - 2.0) - shape.v * a ** (shape.theta - 2.0)
        if abs(c_alpha) < 0.05 * (shape.p * a ** (shape.gamma - 2.0)
                                  + abs(shape.v) * a ** (shape.theta - 2.0)):
            return  # near-singular start: dy = r*z/c(y) is ill-conditioned
    edge = shape.z_vacuum or 4.0
    zs = [frac * edge for frac in fracs]
    if shape.z_vacuum is not None:
        zs += [edge * (1.0 - 10.0 ** -k) for k in range(2, 16)] + [math.nextafter(edge, 0.0)]
    try:
        batch = shape.evaluate(np.array(zs))
    except DomainError:
        batch = None
    for k, z in enumerate(zs):
        try:
            y, dy = shape.evaluate(z)
        except DomainError:
            continue
        assert batch is None or (batch[0][k], batch[1][k]) == (y, dy), (shape, z)
        if y < sys.float_info.min:  # vacuum, or a subnormal y short of digits
            continue
        lead, ratio, L = _slope_ode(shape, z, y)
        if any(0.0 < abs(x) < sys.float_info.min for x in (lead, ratio)):
            continue  # so is a subnormal factor of dy
        slope = lead * ratio
        assert _ulps(dy, slope) <= SLOPE_ULPS * L, (shape, z, y, dy, float(slope), L)


def _assert_float_parity(shape, z):
    """A float z and a np.float64 z give floats with the bits of a
    one-element batch, or its error type and message."""
    try:
        batch = shape.evaluate(np.array([z]))
    except NssolError as exc:
        for scalar in (float(z), np.float64(z)):
            with pytest.raises(NssolError) as single:
                shape.evaluate(scalar)
            assert type(single.value) is type(exc), (shape, z)
            assert str(single.value) == str(exc), (shape, z)
        return
    for scalar in (float(z), np.float64(z)):
        values = shape.evaluate(scalar)
        assert all(type(v) is float for v in values), (shape, z)
        assert [v.hex() for v in values] == [float(c[0]).hex() for c in batch], (shape, z)


@settings(max_examples=300, deadline=None)
@given(shape=st.one_of(
           _closed_form_shapes,
           st.builds(_shape, st.sampled_from([ExpQuadratic, PowerRoot]),
                     _moderate, _moderate, _moderate),
           _implicit_shapes),
       z=st.one_of(_finite, st.floats(-10.0, 10.0)))
def test_float_z_keeps_a_batch_bits(shape, z):
    _assert_float_parity(shape, z)


def test_float_z_keeps_a_batch_bits_at_the_edges():
    gaussian = ExpQuadratic(1.3, -0.7, 0.2)
    clipped = PowerRoot(0.5, -0.3, 1.2)
    points = [(shape, z) for shape in (gaussian, clipped, PowerRoot(0.0, 1.0, 1.0))
              for z in (0.0, -0.0, math.nan, math.inf, -math.inf)]
    # exp(arg) is finite past _LOG_MAX, up to log of the largest float
    band = [math.sqrt(709.781), math.sqrt(709.7827)]
    assert all(profiles._LOG_MAX < z * z < math.log(sys.float_info.max) for z in band)
    points += [(shape, z) for shape in (ExpQuadratic(1e-300, 1.0, 0.0),
                                        ExpQuadratic(1.0, 1.0, 0.0)) for z in band]
    # rad**50 past the float range at z = 1e5, rad**-3 at z = 0
    points += [(PowerRoot(-0.98, 1.0, 1.0), 1e5), (PowerRoot(-1.5, 1.0, 1e250), 0.0)]
    z_vac = clipped.z_vacuum
    points += [(clipped, z) for z in (math.nextafter(z_vac, 0.0), z_vac,
                                      math.nextafter(z_vac, math.inf), 2.0 * z_vac)]
    # subnormal y: exp(-740), and rad**50 at rad = 5e-7
    subnormal = [(ExpQuadratic(1.0, -1.0, 0.0), math.sqrt(740.0)),
                 (PowerRoot(-0.98, -1.0, 1.0), math.sqrt((1.0 - 5e-7) / 0.01))]
    assert all(0.0 < shape.evaluate(z)[0] < sys.float_info.min for shape, z in subnormal)
    falling = ImplicitProfile(1.0, 2.0, 1.0, 2.0, 1.5, 1.0)  # vacuum from sqrt(6)
    flat = ImplicitProfile(1.0, 2.0, 0.0, 2.0, 1.5, 1.0)     # r = 0: h = 0
    singular = ImplicitProfile(1.0, 1.0, 1.0, 2.0, 1.5, 1.0)  # c(alpha) = 0
    # y = alpha*e**w reaches the float range's end, w = _w_max, where
    # h = D(_w_max), near z = 1.9e149
    rising = ImplicitProfile(1e-10, 5e-11, 1.0, 2.0, 1.5, 1.0)
    d_max = rising._cp * math.expm1(rising._w_max) - 2.0 * rising._cv * math.expm1(
        0.5 * rising._w_max)
    z_max = math.sqrt(2.0 * d_max / rising.r)
    points += [(shape, z) for shape in (falling, flat, singular, rising)
               for z in (0.0, -0.0, math.nan, math.inf, -math.inf, 1e155, 0.5)]
    edge = falling.z_vacuum
    points += [(falling, z) for z in (math.nextafter(edge, 0.0), edge,
                                      math.nextafter(edge, math.inf), 2.0 * edge)]
    points += [(rising, z_max * f) for f in (0.5, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12,
                                             1.0, 1.0 + 1e-9)]
    # theta = 1: no vacuum edge, but y = alpha*e**-w underflows past
    # w = _w_max, where h = D(_w_max) = 2*_w_max + expm1(-_w_max), near
    # z = 54.58; the array code gives 0 there, and y = 5e-324 just inside
    fading = ImplicitProfile(1.0, 2.0, 1.0, 2.0, 1.0, 1.0)
    z_min = math.sqrt(2.0 * (2.0 * fading._w_max + math.expm1(-fading._w_max)))
    points += [(fading, z_min * f) for f in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0)]
    assert fading.evaluate(z_min * (1.0 - 1e-9))[0] > 0.0
    assert fading.evaluate(z_min)[0] == 0.0
    for shape, z in points + subnormal:
        _assert_float_parity(shape, z)
    # the float branch answers inside each edge, on the rising shape also
    # past z ~ 3e99, where r*z*y, in dy, overflows
    for shape, inside, outside in ((falling, 0.5 * edge, edge), (rising, 1e120, z_max)):
        assert shape._float_root(inside) is not None and shape._float_root(outside) is None


def test_implicit_shape_slope_divides_first_where_r_z_y_overflows():
    # y = alpha*e**w is finite up to z ~ 1.9e149 on this rising shape, and
    # dy = r*z/c(y) ~ z/p, but r*z*y overflows from z ~ 3e99: dy, formed
    # as r*z*(y/dD), is finite there, as a float and as a batch, with the
    # same bits
    rising = ImplicitProfile(1e-10, 5e-11, 1.0, 2.0, 1.5, 1.0)
    zs = [3e99, 1e100, 1e120, 1e149, 1.8e149]
    y, dy = rising.evaluate(np.array(zs))
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(dy))
    assert dy == pytest.approx(np.array(zs) / 1e-10, rel=1e-9)
    for z in zs:
        _assert_float_parity(rising, z)
    # with r = 1e200 and p = 1e-120, r*z*(y/dD) overflows too from z ~
    # 1e-12, short of the edge near 1.9e-6: refused, as a float and as a
    # batch, naming the first such z, while a smaller z still evaluates
    steep = ImplicitProfile(1e-120, 5e-121, 1e200, 2.0, 1.5, 1.0)
    assert all(math.isfinite(v) for v in steep.evaluate(1e-15))
    for z in (1e-9, 1e-7, 1e-6):
        _assert_float_parity(steep, z)
        with pytest.raises(DomainError, match=f"^density shape overflows at z={z!r}$"):
            steep.evaluate(z)
    with pytest.raises(DomainError, match="at z=1e-09$"):
        steep.evaluate(np.array([1e-15, 1e-9, 1e-7]))


def test_float_z_keeps_a_batch_bits_on_a_sweep():
    # math.exp and ** differ from numpy's exp and power in the last bit at
    # about one z in 25 of this sweep, and math.expm1 from numpy's expm1
    # at about one in 20
    from nssol import build_solution
    from tests.cases import powerlaw_blowup

    params, family, _ = powerlaw_blowup()
    z = np.linspace(0.0, 5.0, 2001)
    for shape in (ExpQuadratic(1.3, -0.7, 0.2), PowerRoot(0.5, -0.3, 1.2),
                  PowerRoot(2.0, 0.8, 1.1), build_solution(params, family, t_end=0.5).profile,
                  ImplicitProfile(1.0, 2.0, 1.0, 2.0, 1.5, 1.0)):
        batch = [[float(v).hex() for v in column] for column in shape.evaluate(z)]
        for k, zk in enumerate(z):
            for scalar in (float(zk), zk):
                assert [v.hex() for v in shape.evaluate(scalar)] == [c[k] for c in batch]


def test_implicit_shape_refuses_nan_z():
    from nssol import build_solution
    from tests.cases import powerlaw_blowup

    params, family, _ = powerlaw_blowup()
    shape = build_solution(params, family, t_end=0.5).profile
    with pytest.raises(OutOfRangeError, match="z nan"):
        shape.evaluate(math.nan)
    with pytest.raises(OutOfRangeError):
        shape.evaluate(np.array([0.5, math.nan]))


def test_every_shape_refuses_nan_z_alike():
    # one rule for the three shapes, ahead of an overflow elsewhere in z
    from nssol import build_solution
    from tests.cases import powerlaw_blowup

    params, family, _ = powerlaw_blowup()
    for shape in (ExpQuadratic(1.0, 1.0, 0.0), PowerRoot(0.0, -1.0, 1.0),
                  build_solution(params, family, t_end=0.5).profile):
        for z in (math.nan, np.array([0.5, math.nan]), np.array([math.inf, math.nan])):
            with pytest.raises(OutOfRangeError, match="^z nan is not a number$"):
                shape.evaluate(z)


def test_implicit_shape_refuses_a_root_whose_power_overflows():
    # with gamma = 3, (y/alpha)**(gamma-1) leaves the float range near
    # y = 1.3e154, long before y does: the primitive was NaN past that w,
    # the bracket never passed it, and every z from about 1.34e149 got the
    # stuck y = 1.3389633282488849e+154.  Such a root is refused now, as a
    # float and in a batch, and a z short of it keeps its bits
    rising = ImplicitProfile(1e-10, 5e-11, 1.0, 3.0, 1.5, 1.0)
    assert rising._w_top == profiles._LOG_MAX / 2.0 < rising._w_max
    for z in (1e150, np.array([1e140, 1e150])):
        with pytest.raises(DomainError, match=r"^density shape overflows at z=1e\+150$"):
            rising.evaluate(z)
    assert [v.hex() for v in rising.evaluate(1e140)] == [
        "0x1.9a06d06e2607bp+481", "0x1.86a0000000090p+16"]
    # falling with theta - 1 = -2: (y/alpha)**(theta-1) overflows at
    # y/alpha = exp(-354.89), short of y's underflow; the bracket stuck at
    # y = 7.47e-145 from about z = 1e145, and that root is refused too,
    # not called vacuum
    falling = ImplicitProfile(1e-30, 1.0, 1.0, 0.5, -1.0, 1e10)
    assert falling._dir == -1.0 and falling._w_top == profiles._LOG_MAX / 2.0 < falling._w_max
    for z in (1e145, np.array([1e144, 1e145])):
        with pytest.raises(DomainError, match=r"^density shape overflows at z=1e\+145$"):
            falling.evaluate(z)
    assert falling.evaluate(1e144)[0].hex() == "0x1.8f9574dcf8ac0p-479"
    for shape, z in ((rising, 1e140), (rising, 1e150), (falling, 1e144), (falling, 1e145)):
        _assert_float_parity(shape, z)
    # where 2*s2*h, in the Newton's first guess, overflows, a batch starts
    # from w = 0 without a warning, and gives a float's bits
    _assert_float_parity(ImplicitProfile(1.0, 2.0, 1.0, 0.5, -1.0, 1.0), 1e154)


@settings(max_examples=150, deadline=None)
@given(shape=_implicit_shapes,
       zs=st.lists(st.floats(1e-3, 30.0), min_size=1, max_size=24))
def test_implicit_sweeps_give_each_point_its_bits_in_any_batch(shape, zs):
    # a batch whose points all solve sweeps its whole arrays until a point
    # stops; one that holds h = 0 or vacuum points gathers its live points
    # from the first sweep; a one-element batch is whole throughout.  Each
    # point gets the same bits from all three
    if shape.z_vacuum is not None:
        zs = [z for z in zs if z < shape.z_vacuum]
    if not zs:
        reject()
    try:
        alone = [shape.evaluate(np.array([z])) for z in zs]
        live = shape.evaluate(np.array(zs))
    except NssolError:
        reject()
    outside = [0.0] + ([] if shape.z_vacuum is None else [2.0 * shape.z_vacuum])
    mixed = shape.evaluate(np.array(outside + zs))
    assert [v.shape for v in shape.evaluate(np.array([]))] == [(0,), (0,)]
    for k, one in enumerate(alone):
        want = [float(v[0]).hex() for v in one]
        assert [float(v[k]).hex() for v in live] == want, (shape, zs[k])
        assert [float(v[len(outside) + k]).hex() for v in mixed] == want, (shape, zs[k])
