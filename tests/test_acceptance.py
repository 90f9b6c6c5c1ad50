"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criteria 1 and 3 pin all-ones parameter choices that turn out to be
numerically unattainable, and they are kept red as executable
documentation of that boundary rather than silently retuned:

* criterion 1: with B = +1 the pressure gradient points inward, the
  scaling collapses at t ~ 0.410, and the pinned window [0.1, 0.5]
  leaves the solution's domain; the window's field scale (up to
  exp((r/a)**2) ~ 50) also puts plain h**2 truncation far above 1e-5.
* criterion 3: a(t) = (1-t)**0.5 steepens toward t = 0.5, so the mass
  residual's centered-difference truncation is ~1e-4 at h = 1e-3 on the
  pinned window, above the pinned 1e-5 for every choice of r range.

Both families are genuine solutions; the same checks pass on
domain-valid windows (see tests/cases.py and test_residuals.py).
"""

import math
import time

import numpy as np

from nssol import (
    ModelParams,
    NssolError,
    SolutionField,
    vanishing_time,
    verify_family,
    verify_window,
)
from nssol.profiles import PowerRoot
from nssol.residuals import Window
from nssol.scaling import (
    PowerLawScaling,
    integrate_isothermal,
    integrate_polytropic,
    integrate_pressureless,
)
from nssol.solutions import build_solution
from tests.cases import (
    RESOLUTIONS,
    exact_families,
    isothermal_stated,
    polytropic_n1,
    powerlaw_blowup,
    pressureless_theta1,
    pressureless_theta2,
)
from tests.oracles import rk4_second_order

TOL_LINF = 1e-5
ORDER_BAND = (1.7, 2.3)


def _check(number, name, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    extra = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[acceptance {number}] {name}: {status}{extra}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _residual_clauses(report, failures, tol=TOL_LINF):
    entry = report.resolutions[0]  # the h = 1e-3 entry
    if not entry.mass_linf < tol:
        failures.append(f"mass_linf {entry.mass_linf:.3e} >= {tol:.0e} at h=1e-3")
    if not entry.mom_linf < tol:
        failures.append(f"mom_linf {entry.mom_linf:.3e} >= {tol:.0e} at h=1e-3")
    for label, order in (("mass", report.order_mass), ("momentum", report.order_mom)):
        if order is None or not ORDER_BAND[0] < order < ORDER_BAND[1]:
            failures.append(f"{label} convergence order {order} outside {ORDER_BAND}")


def test_criterion_1_exp_quadratic_family():
    t0 = time.perf_counter()
    params, family, window = isothermal_stated()
    failures = []
    try:
        report = verify_family(params, family, window, RESOLUTIONS)
    except NssolError as exc:
        failures.append(f"stated window leaves the solution domain: {exc}")
    else:
        _residual_clauses(report, failures)
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _check(1, "exp-quadratic density family, stated instance", failures, elapsed)


def test_criterion_2_power_root_family():
    t0 = time.perf_counter()
    params, family, window = polytropic_n1()
    failures = []
    report = verify_family(params, family, window, RESOLUTIONS)
    _residual_clauses(report, failures)
    # the window must keep a(t) within [0.5, 2]
    sol = build_solution(params, family, t_end=window.t_max + 0.01)
    avals = [sol.scaling.pair(t)[0] for t in np.linspace(window.t_min, window.t_max, 64)]
    if not (min(avals) >= 0.5 and max(avals) <= 2.0):
        failures.append(f"a(t) range [{min(avals):.3f}, {max(avals):.3f}] not in [0.5, 2]")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _check(2, "power-root density family (N=1, gamma=theta=2)", failures, elapsed)


def test_criterion_3_collapsing_power_law_family():
    t0 = time.perf_counter()
    params, family, window = powerlaw_blowup()
    failures = []
    report = verify_family(params, family, window, RESOLUTIONS)
    _residual_clauses(report, failures)

    scal = PowerLawScaling(family.sigma, family.m, family.n, 0.5)
    t_star = vanishing_time(scal)
    if t_star is None or abs(t_star - 1.0) > 1e-10:
        failures.append(f"vanishing time {t_star} != 1.0 +- 1e-10")
    sol = build_solution(params, family, t_end=0.6)
    rho_late, _ = SolutionField(sol.profile, sol.scaling, params.N)(1.0 - 1e-5, 0.0)
    if not rho_late > 1e6:
        failures.append(f"center density {rho_late:.3e} never exceeded 1e6 before t*")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _check(3, "collapsing power-law family, stated window", failures, elapsed)


def test_criterion_4_pressureless_families():
    for getter, label in ((pressureless_theta1, "theta=1"),
                          (pressureless_theta2, "theta=2")):
        t0 = time.perf_counter()
        params, family, window = getter()
        failures = []
        report = verify_family(params, family, window, RESOLUTIONS)
        _residual_clauses(report, failures)
        if params.delta != 0:
            failures.append("pressure switch must be 0")
        elapsed = time.perf_counter() - t0
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.1f}s >= 10s")
        _check(4, f"pressureless family {label}", failures, elapsed)


def test_criterion_5_mass_equation_universality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    window = Window(0.5, 1.0, 0.2, 1.5)
    failures = []
    for case in range(20):
        N = int(rng.integers(1, 4))
        c0 = rng.uniform(0.5, 2.0)
        c1 = rng.uniform(0.3, 1.5)
        c2 = rng.uniform(0.1, 0.5)
        if case % 2 == 0:
            f = lambda z, c0=c0, c1=c1, c2=c2: c0 * math.exp(-c1 * z * z) + c2
        else:
            f = lambda z, c0=c0, c1=c1, c2=c2: c0 / (1.0 + c1 * z * z) + c2
        b0 = rng.uniform(0.8, 1.2)
        b1 = rng.uniform(0.05, 0.4) * rng.choice((-1.0, 1.0))
        b2 = rng.uniform(0.05, 0.3)
        a = lambda t, b0=b0, b1=b1, b2=b2: b0 + b1 * t + b2 * t * t
        adot = lambda t, b1=b1, b2=b2: b1 + 2.0 * b2 * t

        def field(t, r, f=f, a=a, adot=adot, N=N):
            at = a(t)
            return f(r / at) / at ** N, adot(t) / at * r

        params = ModelParams(N=N, gamma=1.0, theta=1.0, delta=0)
        report = verify_window(field, params, window, RESOLUTIONS, lattice=17)
        entry = report.resolutions[0]
        if not entry.mass_linf < 1e-4:
            failures.append(f"case {case}: mass_linf {entry.mass_linf:.3e} >= 1e-4")
        if report.order_mass is None or not 1.7 < report.order_mass < 2.3:
            failures.append(f"case {case}: mass order {report.order_mass}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _check(5, "mass equation holds for arbitrary smooth shape/scaling",
           failures, elapsed)


def test_criterion_6_separable_ode_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = []
    checked = 0
    worst = 0.0
    while checked < 10_000:
        n_exp = rng.uniform(-0.9, 3.0)
        xi = rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(0.1, 5.0)
        z = rng.uniform(0.0, 3.0)
        y, dy = PowerRoot(n_exp, xi, alpha).evaluate(z)
        if y == 0.0:  # vacuum
            continue
        err = abs(dy * y ** n_exp - xi * z)
        bound = 1e-9 * (1.0 + abs(xi * z))
        worst = max(worst, err / bound)
        if err >= bound:
            failures.append(
                f"identity violated at n={n_exp:.3f}, xi={xi:.3f}, "
                f"alpha={alpha:.3f}, z={z:.3f}: err={err:.3e}")
            if len(failures) > 3:
                break
        checked += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _check(6, f"separable-ODE identity over 1e4 samples (worst {worst:.2e} of bound)",
           failures, elapsed)


def test_criterion_7_detection_power():
    t0 = time.perf_counter()
    failures = []
    for name, params, family, window in exact_families():
        sol = build_solution(params, family, t_end=window.t_max + 0.01)
        field = sol.field()
        perturbed = lambda t, r, field=field: (
            field(t, r)[0], 1.001 * field(t, r)[1])
        base = verify_window(field, params, window, [(1e-3, 1e-3)])
        pert = verify_window(perturbed, params, window, [(1e-3, 1e-3)])
        b, p = base.resolutions[0], pert.resolutions[0]
        gain_mass = p.mass_linf / b.mass_linf if b.mass_linf > 0 else math.inf
        gain_mom = p.mom_linf / b.mom_linf if b.mom_linf > 0 else math.inf
        if max(gain_mass, gain_mom) < 10.0:
            failures.append(
                f"{name}: 0.1% velocity error only raised norms by "
                f"{max(gain_mass, gain_mom):.1f}x")
    elapsed = time.perf_counter() - t0
    _check(7, "0.1% velocity perturbation raises a residual norm >= 10x",
           failures, elapsed)


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    failures = []
    done = 0
    attempts = 0
    while done < 20 and attempts < 200:
        attempts += 1
        kind = ("isothermal", "polytropic", "pressureless")[done % 3]
        K = rng.uniform(0.5, 2.0)
        kappa = rng.uniform(0.5, 2.0)
        N = int(rng.integers(1, 4))
        a0 = rng.uniform(0.7, 1.5)
        a1 = rng.uniform(-0.3, 0.8)
        t_end = round(rng.uniform(0.15, 0.3), 6)
        # each accel binds its constants once, as Python floats, to the
        # bits its expression, associated left to right, gives inline
        if kind == "isothermal":
            B = rng.uniform(0.2, 1.2) * rng.choice((-1.0, 1.0))
            fn = integrate_isothermal(B, K, kappa, N, a0, a1, t_end)
            c, d = float(-2.0 * B * K), float(2.0 * B * N * kappa)
            accel = lambda a, ad, c=c, d=d: c / a + d * ad / a ** 2
        elif kind == "polytropic":
            gamma = rng.uniform(1.2, 2.5)
            fn = integrate_polytropic(gamma, K, kappa, N, a0, a1, t_end)
            c, p, d, q = -K * gamma, N - gamma * N - 1, N * kappa * gamma, N - gamma * N - 2
            accel = lambda a, ad, c=c, p=p, d=d, q=q: c * a ** p + d * ad * a ** q
        else:
            theta = rng.uniform(0.4, 2.5)
            lam = rng.uniform(0.2, 1.2) * rng.choice((-1.0, 1.0))
            fn = integrate_pressureless(theta, lam, N, a0, a1, t_end)
            if theta == 1.0:
                accel = lambda a, ad, lam=lam: lam * ad / a ** 2
            else:
                accel = lambda a, ad, c=float(-lam), e=N * theta - N + 2.0: c * ad / a ** e
        if fn.status != "completed":
            continue  # trajectory ended early; draw another case
        a_adaptive = fn.pair(t_end)[0]
        a_oracle, _ = rk4_second_order(accel, a0, a1, t_end, 1e-6)
        rel = abs(a_adaptive - a_oracle) / abs(a_oracle)
        if not rel < 1e-7:
            failures.append(f"{kind} case {done}: relative gap {rel:.3e} >= 1e-7")
        done += 1
    if done < 20:
        failures.append(f"only {done} of 20 cases completed within 200 draws")
    elapsed = time.perf_counter() - t0
    _check(8, "adaptive vs fixed-step RK4 oracle over 20 random cases",
           failures, elapsed)


def test_criterion_9_similarity_exponent_identity():
    t0 = time.perf_counter()
    failures = []
    for N in range(1, 7):
        for gamma in np.linspace(1.0, 3.0, 41):
            theta = gamma / 2.0 + 0.5 - 1.0 / N
            s = 2.0 / (gamma * N - N + 2.0)
            s_alt = 1.0 / ((gamma - theta) * N)
            if not abs(s - s_alt) < 1e-12 * s:
                failures.append(f"N={N}, gamma={gamma}: |{s} - {s_alt}|")
    elapsed = time.perf_counter() - t0
    _check(9, "similarity exponent closed forms agree to 1e-12",
           failures, elapsed)
