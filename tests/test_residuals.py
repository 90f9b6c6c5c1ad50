"""Finite-difference residual verifier: exactness, detection, convergence."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nssol import (
    DomainError,
    ModelParams,
    NonFiniteFieldError,
    Profile,
    SolutionField,
    StencilOutOfDomainError,
    WithPressurePowerLaw,
    build_solution,
    derived_s,
    theta_required,
    verify_family,
    verify_window,
)
from nssol import _interp, profiles, residuals
from nssol.errors import refuse
from nssol.profiles import PowerRoot
from nssol.residuals import Window
from tests.cases import (
    RESOLUTIONS,
    exact_families,
    isothermal_gaussian,
    polytropic_n1,
    powerlaw_blowup,
    pressureless_theta2,
)

PARAMS_N3 = ModelParams(N=3, gamma=1.0, theta=1.0, delta=1)
H = [(1e-3, 1e-3)]


def _corner(t, r):
    """The 2x2 lattice window whose lower corner is (t, r)."""
    return Window(t, t + 1e-2, r, r + 1e-2)


class ExpShape(Profile):
    """exp() of another shape, zero off that shape's support.

    Only used to compare the two possible readings of the pressureless
    theta != 1 density (shape y versus shape e**y).
    """

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, z):
        y, dy = self.inner.evaluate(z)
        e = np.where(y == 0.0, 0.0, np.exp(y))
        return e, dy * e


def _ansatz_field(f, a, adot):
    """Black-box (t, r) -> (rho, u) for rho = f(r/a)/a**N, u = (a'/a)*r."""
    def field(t, r, N=3):
        at = a(t)
        return f(r / at) / at ** 3, adot(t) / at * r
    return field


def test_constant_state_residuals_are_exactly_zero():
    field = lambda t, r: (1.0, 0.0)
    entry = verify_window(field, PARAMS_N3, _corner(0.5, 1.0), H, lattice=2).finest
    assert entry.mass_linf == 0.0
    assert entry.mom_linf == 0.0
    assert entry.skipped_momentum == 0


def test_mass_residual_small_for_exact_ansatz():
    # any smooth positive shape with any smooth positive scaling solves
    # the mass equation; centered differences see only O(h^2) truncation
    field = _ansatz_field(lambda z: math.exp(-z * z),
                          lambda t: 1.0 + t, lambda t: 1.0)
    entry = verify_window(field, PARAMS_N3, _corner(1.0, 1.0), H, lattice=2).finest
    assert entry.mass_linf < 1e-5


def test_mass_residual_detects_wrong_velocity():
    base = _ansatz_field(lambda z: math.exp(-z * z),
                         lambda t: 1.0 + t, lambda t: 1.0)
    skew = lambda t, r: (base(t, r)[0], 1.01 * base(t, r)[1])
    entry = verify_window(skew, PARAMS_N3, _corner(1.0, 1.0), H, lattice=2).finest
    assert entry.mass_linf > 1e-3
    assert entry.mass_l2 > 1e-3  # the root mean square of all four points


def test_mass_residual_is_independent_of_non_geometric_params():
    # the raw residuals, not the report's norms rounded to 12 digits
    field = residuals._array_field(_ansatz_field(lambda z: 1.0 / (1.0 + z * z),
                                                 lambda t: 1.0 + 0.5 * t * t,
                                                 lambda t: t))
    t, r = np.array([[0.7], [0.71]]), np.array([1.3, 1.31])
    h = np.full((1, 1, 1), 1e-3)
    variants = [
        ModelParams(N=3, gamma=1.0, theta=1.0, K=1.0, kappa=1.0, delta=1),
        ModelParams(N=3, gamma=2.7, theta=0.4, K=9.0, kappa=0.1, delta=0),
    ]
    values = [residuals._residuals(field, p, t, r, h, h)[0]
              for p in variants]
    assert np.array_equal(values[0], values[1])  # bitwise identical


def test_momentum_residual_static_flat_state():
    field = lambda t, r: (2.5, 0.0)
    entry = verify_window(field, PARAMS_N3, _corner(1.0, 0.7), H, lattice=2).finest
    assert entry.mom_linf == 0.0
    assert entry.skipped_momentum == 0


def test_stencil_domain_guards():
    field = lambda t, r: (1.0, 0.0)
    with pytest.raises(StencilOutOfDomainError):
        # r - h_r <= 0
        verify_window(field, PARAMS_N3, _corner(0.5, 5e-4), H, lattice=2)

    params, family, _ = isothermal_gaussian()
    sol = build_solution(params, family, t_end=0.3)
    with pytest.raises(StencilOutOfDomainError):
        # t + h_t beyond the integrated trajectory
        verify_window(sol.field(), params, _corner(0.31, 1.0), H, lattice=2)


def test_vacuum_stencil_is_counted_in_skipped_momentum():
    # a stencil touching vacuum has no classical momentum residual: it is
    # left out of the momentum norms and counted, not refused
    params, family, _ = pressureless_theta2()
    sol = build_solution(params, family, t_end=0.3)
    # support boundary at z = sqrt(12): pick r just outside it at t=0.1
    a = sol.scaling.pair(0.1)[0]
    r_edge = (math.sqrt(12.0) + 1e-4) * a
    entry = verify_window(sol.field(), params, _corner(0.1, r_edge), H,
                          lattice=2).finest
    assert entry.skipped_momentum >= 1
    # the mass residual is defined there (vacuum fields are zero)
    assert math.isfinite(entry.mass_linf)


def test_zero_field_window():
    field = lambda t, r: (0.0, 0.0)
    report = verify_window(field, PARAMS_N3, Window(0.1, 0.5, 0.1, 1.0),
                           [(1e-3, 1e-3)], lattice=9)
    entry = report.resolutions[0]
    assert entry.mass_linf == 0.0
    assert entry.mom_linf == 0.0
    assert entry.skipped_momentum == 81  # whole lattice skipped


@pytest.mark.parametrize("outer, r_at", [(1.0, r"1\.05"), (0.0, r"0\.1")],
                         ids=["outer_half", "everywhere"])
def test_negative_density_is_refused_not_vacuum(outer, r_at):
    # the Gaussian's exact field with rho negated for r > outer has no
    # vacuum: it is refused, naming where, not certified with its positive
    # part's norms (nor, negated everywhere, with a momentum norm of 0)
    params, family, window = isothermal_gaussian()
    field = build_solution(params, family, t_end=0.6).field()

    def negated(t, r):
        rho, u = field(t, r)
        return (-rho if r > outer else rho), u
    with pytest.raises(DomainError, match=rf"negative density -\S+ on the stencil "
                                          rf"at \(t=0\.1, r={r_at}\)"):
        verify_window(negated, params, window, RESOLUTIONS)


def test_exact_families_converge_at_order_two():
    # halving h must reduce the norms by ~4x until the integration floor
    for name, params, family, window in exact_families():
        report = verify_family(params, family, window, RESOLUTIONS)
        coarse, fine = report.resolutions
        for norm_c, norm_f in ((coarse.mass_linf, fine.mass_linf),
                               (coarse.mom_linf, fine.mom_linf)):
            if norm_c < 1e-9:
                continue  # at the floor already
            ratio = norm_c / norm_f
            assert 3.4 < ratio < 4.6, (name, norm_c, norm_f)
        assert 1.7 < report.order_mass < 2.3, name
        assert 1.7 < report.order_mom < 2.3, name


def test_exact_families_pass_tolerance():
    for name, params, family, window in exact_families():
        report = verify_family(params, family, window, [(1e-3, 1e-3)])
        entry = report.resolutions[0]
        assert entry.mass_linf < 1e-5, (name, entry.mass_linf)
        assert entry.mom_linf < 1e-5, (name, entry.mom_linf)
        assert entry.skipped_momentum == 0, name


@pytest.mark.parametrize("N, gamma, m", [(3, 3.0, 3.0), (3, 2.0, 2.0)])
def test_vacuum_reaching_power_law_certifies(N, gamma, m):
    # c(alpha) < 0 with gamma, theta > 1: the shape falls to an exact
    # vacuum edge z_v = sqrt(2*(G(0+) - G(alpha))/r), past the window
    params = ModelParams(N=N, gamma=gamma,
                         theta=theta_required(ModelParams(N, gamma, 1.0)))
    family = WithPressurePowerLaw(m=m, n=1.0, sigma=1.0, alpha=1.0)
    s = derived_s(params)
    p, v, r = gamma / s, m * N * params.theta, (1.0 - s) * m * m
    z_v = math.sqrt(2.0 * (v / (params.theta - 1.0) - p / (gamma - 1.0)) / r)
    profile = build_solution(params, family, t_end=0.3).profile
    assert profile.evaluate(0.999 * z_v)[0] > 0.0
    assert profile.evaluate(1.001 * z_v) == (0.0, 0.0)
    report = verify_family(params, family, Window(0.05, 0.2, 0.1, 1.2),
                           RESOLUTIONS)
    coarse = report.resolutions[0]
    assert coarse.mass_linf < 1e-5 and coarse.mom_linf < 1e-5
    assert 1.7 < report.order_mass < 2.3
    assert 1.7 < report.order_mom < 2.3


def test_power_law_certifies_far_out_in_z():
    # r up to 9 at t = 0.3 puts z = r/a near 10.8: the closed form holds
    # on every z, so the window certifies at order two
    params, family, _ = powerlaw_blowup()
    report = verify_family(params, family, Window(0.2, 0.3, 8.0, 9.0),
                           RESOLUTIONS, lattice=17)
    assert 1.9 < report.order_mass < 2.1
    assert 1.9 < report.order_mom < 2.1


def test_density_perturbation_detected():
    # scaling rho by 1.001 must raise at least one norm by 10x wherever
    # the equations are not homogeneous in rho (gamma or theta != 1)
    params, family, window = polytropic_n1()
    from nssol import build_solution
    sol = build_solution(params, family, t_end=window.t_max + 0.01)
    field = sol.field()
    perturbed = lambda t, r: (1.001 * field(t, r)[0], field(t, r)[1])
    base = verify_window(field, params, window, [(1e-3, 1e-3)])
    pert = verify_window(perturbed, params, window, [(1e-3, 1e-3)])
    gain = max(pert.finest.mass_linf / base.finest.mass_linf,
               pert.finest.mom_linf / base.finest.mom_linf)
    assert gain >= 10.0


def test_density_scaling_is_a_symmetry_when_homogeneous():
    # for gamma = theta = 1 every term of both equations is linear in
    # rho, so c*rho solves the system whenever rho does (the shape's
    # amplitude A is a free constant); the residual rightly stays small
    params, family, window = isothermal_gaussian()
    from nssol import build_solution
    sol = build_solution(params, family, t_end=window.t_max + 0.01)
    field = sol.field()
    scaled = lambda t, r: (1.5 * field(t, r)[0], field(t, r)[1])
    report = verify_window(scaled, params, window, [(1e-3, 1e-3)])
    assert report.finest.mass_linf < 1e-5
    assert report.finest.mom_linf < 1e-5


def test_pressure_switch_flip_breaks_momentum():
    params, family, window = isothermal_gaussian()
    report = verify_family(params, family, window, [(1e-3, 1e-3)])
    baseline = report.resolutions[0].mom_linf

    from nssol import build_solution
    sol = build_solution(params, family, t_end=window.t_max + 0.01)
    flipped = ModelParams(N=params.N, gamma=params.gamma, theta=params.theta,
                          K=params.K, kappa=params.kappa, delta=0)
    report2 = verify_window(sol.field(), flipped, window, [(1e-3, 1e-3)])
    assert report2.resolutions[0].mom_linf > 1e-2
    assert report2.resolutions[0].mom_linf > 100.0 * baseline


def test_wrong_density_shape_reading_fails_momentum():
    # the alternative exp(y)/a**N reading of the pressureless theta != 1
    # density satisfies mass (any shape does) but not momentum
    params, family, window = pressureless_theta2()
    good = verify_family(params, family, window, [(1e-3, 1e-3)])
    sol = build_solution(params, family, t_end=window.t_max + 2e-3)
    bad_field = SolutionField(ExpShape(sol.profile), sol.scaling, params.N)
    bad = verify_window(bad_field, params, window, [(1e-3, 1e-3)])
    assert good.resolutions[0].mom_linf < 1e-5
    assert bad.resolutions[0].mass_linf < 1e-4
    assert bad.resolutions[0].mom_linf > 1e-2


def test_exp_shape_wrapper():
    inner = PowerRoot(-3.0, 1.0, 1.0)  # support |z| < 1
    wrapped = ExpShape(inner)
    y_in, dy_in = inner.evaluate(0.5)
    y_w, dy_w = wrapped.evaluate(0.5)
    assert y_w == pytest.approx(math.exp(y_in), rel=1e-14)
    assert dy_w == pytest.approx(dy_in * math.exp(y_in), rel=1e-14)
    assert wrapped.evaluate(2.0) == (0.0, 0.0)


def test_nan_density_sample_is_never_certified():
    # one NaN density at lattice point (16, 16) of an exact solution must
    # raise, not vanish from the norms (max(0.0, nan) is 0.0) or be
    # counted as a vacuum skip
    params, family, window = isothermal_gaussian()
    field = build_solution(params, family, t_end=window.t_max + 2e-3).field()
    t_nan = window.t_min + (window.t_max - window.t_min) * 16 / 32
    r_nan = window.r_min + (window.r_max - window.r_min) * 16 / 32

    def nonfinite(t, r):
        rho, u = field(t, r)
        if abs(t - t_nan) < 1e-12 and abs(r - r_nan) < 1e-12:
            return math.nan, u
        return rho, u

    with pytest.raises(NonFiniteFieldError):
        verify_window(nonfinite, params, window, RESOLUTIONS, lattice=33)


def _parity_cases():
    params, family, _ = pressureless_theta2()
    # the support edge z = sqrt(12) crosses this window: stencils skipped
    edge = ("pressureless_theta2_support_edge", params, family,
            Window(0.1, 0.3, 2.5, 5.0))
    return exact_families() + [edge]


@pytest.mark.parametrize("name, params, family, window", _parity_cases(),
                         ids=[case[0] for case in _parity_cases()])
def test_batched_stencils_match_pointwise_adapter(name, params, family, window):
    # a SolutionField is sampled lattice-wide; a plain callable, one point
    # at a time; both must give the same 12-digit norms and skip counts
    field = build_solution(params, family, t_end=window.t_max + 2e-3).field()
    batched = verify_window(field, params, window, RESOLUTIONS, lattice=17)
    pointwise = verify_window(lambda t, r: field(t, r), params, window,
                              RESOLUTIONS, lattice=17)
    assert batched.resolutions == pointwise.resolutions
    assert (batched.resolutions[0].skipped_momentum > 0) == name.endswith("edge")


@pytest.mark.parametrize("name, params, family, window", _parity_cases(),
                         ids=[case[0] for case in _parity_cases()])
def test_pointwise_adapter_samples_match_the_field_bytes(name, params, family, window):
    # the samples themselves, not the 12-digit norms: on the lattice and at
    # each stencil offset, a plain callable gathered point by point gives
    # the arrays the field gives at once, byte for byte
    field = build_solution(params, family, t_end=window.t_max + 2e-3).field()
    adapter = residuals._array_field(lambda t, r: field(t, r))
    k = np.arange(17)
    t = (window.t_min + (window.t_max - window.t_min) * k / 16)[:, None]
    r = window.r_min + (window.r_max - window.r_min) * k / 16
    points = [(t, r)] + [point for h_t, h_r in RESOLUTIONS for point in (
        (t, r + h_r), (t, r - h_r), (t + h_t, r), (t - h_t, r))]
    for t_at, r_at in points:
        for got, want in zip(adapter(t_at, r_at), field(t_at, r_at), strict=True):
            assert got.shape == want.shape == (17, 17)
            assert got.tobytes() == want.tobytes()


def test_report_structure_and_rounding():
    params, family, window = isothermal_gaussian()
    report = verify_family(params, family, window, RESOLUTIONS)
    doc = report.to_dict()
    assert doc["window"]["t_min"] == window.t_min
    assert doc["lattice"] == [33, 33]
    assert len(doc["resolutions"]) == 2
    assert doc["h_t"] == 5e-4  # finest resolution is the headline one
    # norms are recorded to 12 significant digits
    for entry in doc["resolutions"]:
        for key in ("mass_linf", "mass_l2", "mom_linf", "mom_l2"):
            v = entry[key]
            assert v == float(f"{v:.12g}")
    assert doc["order_mass"] == pytest.approx(2.0, abs=0.3)


def test_verifier_consumes_plain_callables():
    # the verifier's interface is a bare point evaluator: no profile or
    # scaling objects, hence no analytic derivatives to peek at
    calls = []

    def field(t, r):
        calls.append((t, r))
        return 1.0, 0.0

    verify_window(field, PARAMS_N3, Window(0.1, 0.2, 0.5, 1.0),
                  [(1e-3, 1e-3)], lattice=3)
    assert len(calls) == 3 * 3 * 5  # five stencil samples per lattice point


def test_black_box_samples_each_lattice_point_once():
    # the lattice is sampled once for both resolutions, which add their
    # four offsets each: no point is asked for twice
    calls = []

    def field(t, r):
        calls.append((t, r))
        return 1.0, 0.0

    verify_window(field, PARAMS_N3, Window(0.1, 0.2, 0.5, 1.0),
                  [(1e-3, 1e-3), (5e-4, 5e-4)], lattice=3)
    assert len(calls) == 3 * 3 * (5 + 4)
    assert len(set(calls)) == len(calls)


def test_black_box_over_a_solution_field_pays_the_scaling_once_per_time_row():
    # samples come in C order over (t, r): the lattice, and each offset of
    # each resolution, is one run of 33 points per time, whether the black
    # box passes the field a float t or a np.float64
    params, family, window = isothermal_gaussian()
    solution = build_solution(params, family, t_end=window.t_max + 2.0 * RESOLUTIONS[0][0])
    expected = verify_window(solution.field(), params, window, RESOLUTIONS, lattice=33)
    for time in (float, np.float64):
        calls = []

        class CountingScaling:
            def pair(self, t):
                calls.append(t)
                return solution.scaling.pair(t)

        field = SolutionField(solution.profile, CountingScaling(), params.N)
        report = verify_window(lambda t, r: field(time(t), r), params, window, RESOLUTIONS,
                               lattice=33)
        assert len(calls) <= 33 * (1 + 2 * 4), time
        assert report == expected, time


def test_black_box_over_a_gaussian_field_takes_the_float_branch(monkeypatch):
    # a float z within the float range, and a float t within the
    # trajectory's, never reach the array code's refusals; at the
    # Gaussian's 5**2 lattice each point would call the shape's, and each
    # new time row the trajectory lookup's
    params, family, window = isothermal_gaussian()
    solution = build_solution(params, family, t_end=window.t_max + 2.0 * H[0][0])
    expected = verify_window(solution.field(), params, window, H, lattice=5)
    field, points, refusals = solution.field(), [], []

    def black_box(t, r):
        points.append((t, r))
        return field(t, r)

    def spy(*args, **kwargs):
        refusals.append(args)
        return refuse(*args, **kwargs)

    for module in (profiles, _interp):
        monkeypatch.setattr(module, "refuse", spy)
    assert verify_window(black_box, params, window, H, lattice=5) == expected
    assert points and not refusals


def test_non_finite_sample_is_refused_at_once():
    # the NaN at lattice point (16, 16) is the 16*33 + 16 + 1 = 545th
    # sample: the verifier stops there, and names it
    params, family, window = isothermal_gaussian()
    field = build_solution(params, family, t_end=window.t_max + 2e-3).field()
    t_nan = window.t_min + (window.t_max - window.t_min) * 16 / 32
    r_nan = window.r_min + (window.r_max - window.r_min) * 16 / 32
    calls = []

    def nonfinite(t, r):
        calls.append((t, r))
        if (t, r) == (t_nan, r_nan):
            return math.nan, 0.0
        return field(t, r)

    with pytest.raises(NonFiniteFieldError) as info:
        verify_window(nonfinite, params, window, RESOLUTIONS, lattice=33)
    assert len(calls) == 16 * 33 + 16 + 1
    assert f"(t={t_nan!r}, r={r_nan!r})" in str(info.value)
    assert "nan" in str(info.value)


@pytest.mark.parametrize("convert", [np.float64, int, bool], ids=lambda c: c.__name__)
def test_black_box_samples_of_any_real_type_give_the_float_arrays(convert):
    # a black box may answer in numpy scalars, ints or bools: the sample
    # arrays are those of the same values as Python floats
    t, r = np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0])
    typed = residuals._array_field(lambda t, r: (convert(t * r), convert(r - t)))
    plain = residuals._array_field(
        lambda t, r: (float(convert(t * r)), float(convert(r - t))))
    for got, want in zip(typed(t, r), plain(t, r), strict=True):
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == (3, 3)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 9])
@pytest.mark.parametrize("bad", [(math.nan, 0.5), (1.0, math.inf), (-math.inf, math.nan)])
def test_black_box_stops_at_its_first_non_finite_sample(k, bad):
    # the k-th sample is not finite: it is named, and no (k+1)-th is asked
    # for, though the black box would raise there
    t, r = np.array([[0.1], [0.2], [0.3]]), np.array([1.0, 2.0, 3.0])
    calls = []

    def black_box(t, r):
        calls.append((t, r))
        if len(calls) > k:
            raise ValueError("sampled past a non-finite sample")
        return bad if len(calls) == k else (1.0, 0.5)

    with pytest.raises(NonFiniteFieldError) as info:
        residuals._array_field(black_box)(t, r)
    assert len(calls) == k
    t_k, r_k = calls[-1]
    assert (t_k, r_k) == (t.flat[(k - 1) // 3], r[(k - 1) % 3])
    assert str(info.value) == (f"field sample at (t={t_k!r}, r={r_k!r}) is not finite: "
                               f"(rho, u) = ({bad[0]!r}, {bad[1]!r})")


#: inputs the verifier refuses: window bounds, (h_t, h_r) pairs and
#: lattice, then a word of the refusal
_GOOD = ((0.1, 0.5, 0.1, 2.0), [(1e-3, 1e-3)])
_BAD_INPUTS = {
    "infinite r_max": ((0.1, 0.5, 0.1, math.inf), [(1e-3, 1e-3)], 3, "finite"),
    "zero h_r": ((0.1, 0.5, 0.1, 2.0), [(1e-3, 1e-3), (1e-3, 0.0)], 3, "finite"),
    "nan h_r": ((0.1, 0.5, 0.1, 2.0), [(1e-3, math.nan)], 3, "finite"),
    "negative h_r": ((0.1, 0.5, 0.1, 2.0), [(1e-3, -1e-3)], 3, "finite"),
    "infinite h_t": ((0.1, 0.5, 0.1, 2.0), [(math.inf, 1e-3)], 3, "finite"),
    "t bounds out of order": ((0.5, 0.1, 0.1, 2.0), [(1e-3, 1e-3)], 3, "t_min < t_max"),
    "r bounds out of order": ((0.1, 0.5, 2.0, 0.1), [(1e-3, 1e-3)], 3, "r_min < r_max"),
    "no resolution": ((0.1, 0.5, 0.1, 2.0), [], 3, "at least one"),
    **{f"lattice {n!r}": (*_GOOD, n, "lattice must be an integer >= 2")
       for n in (2.5, math.nan, 3.0, "3", 1, np.int64(1))},
}


@pytest.mark.parametrize("entry", ["verify_window", "verify_family"])
@pytest.mark.parametrize("bounds, resolutions, lattice, match",
                         list(_BAD_INPUTS.values()), ids=list(_BAD_INPUTS))
def test_bad_inputs_are_refused_before_any_sample(monkeypatch, entry, bounds,
                                                  resolutions, lattice, match):
    # an infinite bound made inf*0 in the lattice and blamed the field at
    # r=nan, h_r = 0 divided by zero, a NaN h_r passed the r - h_r > 0
    # test and a negative one went into the report; a lattice of 2.5
    # sampled past the window's far corner, a NaN one failed inside
    # np.arange, and verify_family built the solution before refusing a
    # lattice of 1: each is a ValueError now, before the field is built
    # or sampled
    params, family, _ = isothermal_gaussian()
    calls = []

    def field(t, r):
        calls.append((t, r))
        return 1.0, 0.0

    def build(*args, **kwargs):
        calls.append(args)
        return build_solution(*args, **kwargs)

    monkeypatch.setattr(residuals, "build_solution", build)
    run = {"verify_window": lambda w: verify_window(field, params, w, resolutions,
                                                    lattice=lattice),
           "verify_family": lambda w: verify_family(params, family, w, resolutions,
                                                    lattice=lattice)}[entry]
    with pytest.raises(ValueError, match=match):
        run(Window(*bounds))
    assert calls == []


def test_numpy_integer_lattice_is_an_int_in_the_report():
    field = lambda t, r: (1.0, 0.0)
    report = verify_window(field, PARAMS_N3, Window(0.1, 0.2, 0.5, 1.0), H,
                           lattice=np.int64(3))
    assert report.lattice == (3, 3)
    assert all(type(n) is int for n in report.to_dict()["lattice"])


def test_single_resolution_reports_no_orders():
    field = lambda t, r: (1.0, 0.0)
    report = verify_window(field, PARAMS_N3, Window(0.1, 0.2, 0.5, 1.0),
                           [(1e-3, 1e-3)], lattice=3)
    assert report.order_mass is None
    assert report.order_mom is None


@pytest.mark.parametrize("count", [1, 2, 3])
def test_black_box_sees_the_lattice_then_each_resolutions_four_offsets(count):
    # one call on the lattice, one on the stack of every resolution's four
    # offsets: a black box sees the lattice in C order, then per resolution
    # the r + h_r, r - h_r, t + h_t and t - h_t blocks, each in C order
    window, lattice = Window(0.1, 0.2, 0.5, 1.0), 3
    steps = [(1e-3 / 2 ** k, 3e-3 / 3 ** k) for k in range(count)]
    calls = []

    def field(t, r):
        calls.append((t, r))
        return 1.0, 0.0

    verify_window(field, PARAMS_N3, window, steps, lattice=lattice)
    k = np.arange(lattice)
    t = (window.t_min + (window.t_max - window.t_min) * k / (lattice - 1))[:, None]
    r = window.r_min + (window.r_max - window.r_min) * k / (lattice - 1)
    blocks = [(t, r)] + [block for h_t, h_r in steps for block in (
        (t, r + h_r), (t, r - h_r), (t + h_t, r), (t - h_t, r))]
    expected = []
    for block in blocks:
        t_at, r_at = np.broadcast_arrays(*block)
        expected += zip(t_at.ravel().tolist(), r_at.ravel().tolist())
    assert calls == expected


def test_a_solution_field_is_called_twice_per_window():
    # the lattice, then every resolution's offsets at once, stacked (R, 4, L, L)
    params, family, window = isothermal_gaussian()
    solution = build_solution(params, family, t_end=window.t_max + 2e-3)
    shapes = []

    class CountingField(SolutionField):
        def __call__(self, t, r):
            shapes.append(np.broadcast(t, r).shape)
            return super().__call__(t, r)

    field = CountingField(solution.profile, solution.scaling, params.N)
    steps = [(1e-3, 1e-3), (5e-4, 5e-4), (2.5e-4, 2.5e-4)]
    for count in (1, 2, 3):
        shapes.clear()
        verify_window(field, params, window, steps[:count], lattice=9)
        assert shapes == [(9, 9), (count, 4, 9, 9)]


def _faulty_black_box(faults):
    """A constant field with the (rho, u) of faults at their (t, r), and
    the list of its calls."""
    calls = []

    def field(t, r):
        calls.append((t, r))
        return faults.get((t, r), (1.0, 0.0))
    return field, calls


def test_every_offset_is_sampled_before_any_residual_is_refused():
    # a negative density on the first resolution's r + h_r stencil and a
    # NaN sample on the second's: the NaN, the 9 + 4*9 + 1 = 46th sample,
    # is refused first, as every offset is sampled before any residual
    window, steps = Window(0.1, 0.2, 0.5, 1.0), [(1e-3, 1e-3), (5e-4, 5e-4)]
    negative, nan = (0.1, 0.5 + 1e-3), (0.1, 0.5 + 5e-4)
    nan_message = (r"^field sample at \(t=0\.1, r=0\.5005\) is not finite: "
                   r"\(rho, u\) = \(nan, 0\.0\)$")
    for faults, error, match, sampled in (
            ({negative: (-1.0, 0.0), nan: (math.nan, 0.0)}, NonFiniteFieldError,
             nan_message, 46),
            ({nan: (math.nan, 0.0)}, NonFiniteFieldError, nan_message, 46),
            # alone, the residual fault is refused as it was, once all
            # 9 + 2*4*9 samples are in
            ({negative: (-1.0, 0.0)}, DomainError,
             r"^negative density -1\.0 on the stencil at \(t=0\.1, r=0\.5\)$", 81)):
        field, calls = _faulty_black_box(faults)
        with pytest.raises(error, match=match):
            verify_window(field, PARAMS_N3, window, steps, lattice=3)
        assert len(calls) == sampled


@functools.cache
def _parity_field(case):
    """(params, field, window) of the parity case, its field built past the
    window by the largest step drawn below."""
    _, params, family, window = _parity_cases()[case]
    return params, build_solution(params, family, t_end=window.t_max + 4e-3).field(), window


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, len(_parity_cases()) - 1),
       box=st.tuples(*[st.floats(0.0, 1.0)] * 4),
       steps=st.lists(st.tuples(st.floats(1e-4, 2e-3), st.floats(1e-4, 2e-3)),
                      min_size=1, max_size=3),
       lattice=st.integers(2, 9))
def test_stacked_resolutions_report_each_as_alone(case, box, steps, lattice):
    # a random window inside a parity case's, 1 to 3 resolutions: the
    # SolutionField's report and a plain lambda's agree bit for bit, and
    # each resolution's norms are those it gets run alone
    params, field, outer = _parity_field(case)
    (t_a, t_b), (r_a, r_b) = sorted(box[:2]), sorted(box[2:])
    span_t, span_r = outer.t_max - outer.t_min, outer.r_max - outer.r_min
    t_min, t_max = outer.t_min + span_t * t_a, outer.t_min + span_t * t_b
    r_min, r_max = outer.r_min + span_r * r_a, outer.r_min + span_r * r_b
    assume(t_min < t_max and r_min < r_max)
    window = Window(t_min, t_max, r_min, r_max)
    report = verify_window(field, params, window, steps, lattice=lattice)
    black_box = verify_window(lambda t, r: field(t, r), params, window, steps,
                              lattice=lattice)
    assert json.dumps(black_box.to_dict()) == json.dumps(report.to_dict())
    for entry, step in zip(report.resolutions, steps, strict=True):
        alone = verify_window(field, params, window, [step], lattice=lattice)
        assert alone.resolutions == (entry,)
