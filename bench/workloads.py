"""The benchmark's three workloads: inputs, operations and output checks.

Each workload is built from its seed (building it is the set-up that
``setup_s`` times), lists its operations as (kind, callable) pairs that
call nssol's public functions, and classifies every operation's outcome
as "ok", "failed" (the program raised, or hit a fault the README names)
or "wrong" (the output disagrees with the benchmark's own reference).
References are computed by ``prepare_references``, outside every timed
span and outside set-up.
"""

import hashlib
import json
import math
import os
import random
import shutil

import numpy as np

import nssol
from nssol import cli

import reference as ref

OK, FAILED, WRONG = "ok", "failed", "wrong"

#: relative tolerance of field values, scalings and shapes: the program
#: integrates at rtol 1e-10 and measures about 5e-10 at worst, while a
#: change in the 8th significant digit is at least 1e-8 relative
VALUE_RTOL = 5e-9

#: absolute tolerance of vanishing times; the program measures ~2e-11
VANISH_ATOL = 1e-9

#: u/r is one number per time; allow a few ulps of the division
U_OVER_R_RTOL = 1e-13

#: acceptance rule of a certified solution
CERTIFY_LINF = 1e-5
CERTIFY_ORDER = (1.7, 2.3)

FAMILY_KEYS = {
    "with_pressure_isothermal": ("A", "B", "C", "a0", "a1"),
    "with_pressure_polytropic": ("alpha", "a0", "a1"),
    "with_pressure_power_law": ("m", "n", "sigma", "alpha"),
    "pressureless_theta1": ("lam", "alpha", "a0", "a1"),
    "pressureless_theta_not1": ("lam", "alpha", "a0", "a1"),
}

FAMILY_CLASSES = {
    "with_pressure_isothermal": nssol.WithPressureIsothermal,
    "with_pressure_polytropic": nssol.WithPressurePolytropic,
    "with_pressure_power_law": nssol.WithPressurePowerLaw,
    "pressureless_theta1": nssol.PressurelessTheta1,
    "pressureless_theta_not1": nssol.PressurelessThetaNot1,
}


def instance(kind, N, gamma, theta, K=1.0, kappa=1.0, **constants):
    """A family instance as the plain dict reference.py reads."""
    return dict(kind=kind, N=N, gamma=gamma, theta=theta, K=K, kappa=kappa,
                **constants)


def to_nssol(inst):
    """(ModelParams, family) of an instance."""
    delta = 0 if inst["kind"].startswith("pressureless") else 1
    params = nssol.ModelParams(N=inst["N"], gamma=inst["gamma"],
                               theta=inst["theta"], K=inst["K"],
                               kappa=inst["kappa"], delta=delta)
    family = FAMILY_CLASSES[inst["kind"]](
        **{k: inst[k] for k in FAMILY_KEYS[inst["kind"]]})
    return params, family


def certifies(report):
    """Both L-inf norms below 1e-5 at the coarse h = 1e-3, and both
    convergence orders inside (1.7, 2.3)."""
    coarse = report.resolutions[0]
    lo, hi = CERTIFY_ORDER
    orders = (report.order_mass, report.order_mom)
    return (coarse.mass_linf < CERTIFY_LINF and coarse.mom_linf < CERTIFY_LINF
            and all(o is not None and lo < o < hi for o in orders))


class Workload:
    """Common bookkeeping: the largest checked deviation and messages."""

    def __init__(self):
        self.err_max = 0.0
        self.problems = []

    def _note(self, value):
        self.err_max = max(self.err_max, value)

    def _wrong(self, message):
        if len(self.problems) < 20:
            self.problems.append(message)
        return WRONG

    def prepare_references(self):
        pass

    def finish(self):
        """Checks that need the whole run; returns their problems."""
        return []


# --- certify -----------------------------------------------------------------

#: the exact instances of tests/cases.exact_families, copied
CERTIFY_FAMILIES = (
    ("isothermal_gaussian",
     instance("with_pressure_isothermal", 3, 1.0, 1.0,
              A=1.0, B=-1.0, C=0.0, a0=1.0, a1=0.0), (0.1, 0.5, 0.1, 2.0)),
    ("polytropic_n1",
     instance("with_pressure_polytropic", 1, 2.0, 2.0,
              alpha=1.0, a0=1.0, a1=0.5), (0.1, 0.3, 0.1, 1.5)),
    ("powerlaw_blowup_short",
     instance("with_pressure_power_law", 3, 5.0 / 3.0, 1.0,
              m=-1.0, n=1.0, sigma=1.0, alpha=1.0), (0.05, 0.2, 0.1, 1.2)),
    ("pressureless_theta1",
     instance("pressureless_theta1", 3, 1.0, 1.0,
              lam=1.0, alpha=0.0, a0=1.0, a1=0.5), (0.1, 0.5, 0.1, 2.0)),
    ("pressureless_theta2",
     instance("pressureless_theta_not1", 3, 1.0, 2.0,
              lam=1.0, alpha=1.0, a0=1.0, a1=0.5), (0.1, 0.5, 0.1, 2.0)),
)
RESOLUTIONS = ((1e-3, 1e-3), (5e-4, 5e-4))
LATTICE = 33

#: lattice point (i, j) whose density the non-finite field replaces by NaN
NAN_POINT = (16, 16)


class Certify(Workload):
    """verify_family on the exact families, verify_window on two
    black-box fields that must not certify."""

    name = "certify"

    def __init__(self, seed, out_dir):
        super().__init__()
        self.cases = []
        for name, inst, bounds in CERTIFY_FAMILIES:
            params, family = to_nssol(inst)
            self.cases.append((name, params, family, nssol.Window(*bounds)))
        _, params, family, window = self.cases[0]
        field = nssol.build_solution(
            params, family, t_end=window.t_max + 2.0 * RESOLUTIONS[0][0]).field()
        self.gauss = (params, window)

        def perturbed(t, r):
            rho, u = field(t, r)
            return rho, u * (1.0 + 1e-3)

        i, j = NAN_POINT
        t_nan = window.t_min + (window.t_max - window.t_min) * i / (LATTICE - 1)
        r_nan = window.r_min + (window.r_max - window.r_min) * j / (LATTICE - 1)

        def nonfinite(t, r):
            rho, u = field(t, r)
            if abs(t - t_nan) < 1e-12 and abs(r - r_nan) < 1e-12:
                return math.nan, u
            return rho, u

        self.perturbed, self.nonfinite = perturbed, nonfinite
        self.reports = {}

    def operations(self):
        ops = [(f"verify_family:{name}",
                lambda p=params, f=family, w=window: nssol.verify_family(
                    p, f, w, RESOLUTIONS, lattice=LATTICE))
               for name, params, family, window in self.cases]
        params, window = self.gauss
        for name, fn in (("perturbed", self.perturbed),
                         ("nonfinite", self.nonfinite)):
            ops.append((f"verify_window:{name}",
                        lambda fn=fn: nssol.verify_window(
                            fn, params, window, RESOLUTIONS, lattice=LATTICE)))
        return ops

    def check(self, kind, report, error):
        if kind == "verify_window:nonfinite":
            # the verifier may refuse the field, or report it uncertified;
            # certifying it is the fault this operation is kept to count
            if isinstance(error, nssol.NonFiniteFieldError):
                return OK
            if error is not None or certifies(report):
                return FAILED
            return OK
        if error is not None:
            return FAILED
        self.reports.setdefault(kind, report)
        return self.check_report(kind, report)

    def check_report(self, kind, report):
        if (report.lattice != (LATTICE, LATTICE)
                or [(e.h_t, e.h_r) for e in report.resolutions] != list(RESOLUTIONS)):
            return self._wrong(f"{kind}: report lattice or resolutions differ "
                               "from the request")
        if kind == "verify_window:perturbed":
            if certifies(report):
                return self._wrong(f"{kind}: a 0.1% velocity perturbation "
                                   "was certified")
            return OK
        finest = report.finest
        # an exact solution's residual is 0, so the norm is the deviation
        self._note(max(finest.mass_linf, finest.mom_linf))
        if not certifies(report):
            return self._wrong(
                f"{kind}: exact solution not certified (coarse L-inf "
                f"{report.resolutions[0].mass_linf:.3e}/"
                f"{report.resolutions[0].mom_linf:.3e}, orders "
                f"{report.order_mass}/{report.order_mom})")
        return OK

    def self_tests(self):
        """The perturbed-field check must reject a certifying report."""
        exact = self.reports.get("verify_family:isothermal_gaussian")
        if exact is None:
            return ["no exact report to build the self-test from"]
        saved = (self.err_max, list(self.problems))
        status = self.check_report("verify_window:perturbed", exact)
        self.err_max, self.problems = saved
        if status != WRONG:
            return ["the perturbed-field check passed a certifying report"]
        return []


# --- field_export ------------------------------------------------------------

FIELD_GRID_N = 256
FIELD_CONFIGS = (
    ("gaussian_csv",
     instance("with_pressure_isothermal", 3, 1.0, 1.0,
              A=1.0, B=-1.0, C=0.0, a0=1.0, a1=0.0), (0.1, 0.5, 0.1, 2.0), "csv"),
    ("powerlaw_csv",
     instance("with_pressure_power_law", 3, 5.0 / 3.0, 1.0,
              m=-1.0, n=1.0, sigma=1.0, alpha=1.0), (0.05, 0.5, 0.1, 2.0), "csv"),
    ("theta2_json",
     instance("pressureless_theta_not1", 3, 1.0, 2.0,
              lam=1.0, alpha=1.0, a0=1.0, a1=0.5), (0.1, 0.5, 0.1, 2.0), "json"),
)


def _grid(lo, hi, n):
    return np.array([lo + (hi - lo) * i / (n - 1) for i in range(n)])


def parse_export(text, fmt):
    """(t, r, rho, u) columns of an exported field."""
    if fmt == "json":
        doc = json.loads(text)
        return tuple(np.array(doc[k], dtype=float) for k in ("t", "r", "rho", "u"))
    lines = text.split("\n")
    if lines[0] != "t,r,rho,u" or lines[-1] != "":
        raise ValueError("CSV header or final newline missing")
    data = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
    return tuple(data.T)


def corrupt_8th_digit(text):
    """Change the 8th significant digit of one rho value of a CSV export:
    the first, from the middle row on, that has eight."""
    lines = text.split("\n")
    for k in range(len(lines) // 2, len(lines) - 1):
        cells = lines[k].split(",")
        mantissa = cells[2].split("e")[0]
        digits = [i for i, c in enumerate(mantissa) if c.isdigit()]
        lead = next((n for n, i in enumerate(digits) if mantissa[i] != "0"), None)
        if lead is None or lead + 7 >= len(digits):
            continue
        pos = digits[lead + 7]
        d = int(mantissa[pos])
        cells[2] = cells[2][:pos] + str(d + 1 if d < 9 else d - 1) + cells[2][pos + 1:]
        lines[k] = ",".join(cells)
        return "\n".join(lines)
    raise ValueError("no rho value with eight significant digits")


class FieldExport(Workload):
    """In-process ``nssol field`` on 256 x 256 grids, CSV and JSON."""

    name = "field_export"

    def __init__(self, seed, out_dir):
        super().__init__()
        os.makedirs(out_dir, exist_ok=True)
        self.jobs = {}
        for name, inst, bounds, fmt in FIELD_CONFIGS:
            t0, t1, r0, r1 = bounds
            config = {
                "model": {k: inst[k] for k in ("N", "gamma", "theta", "K", "kappa")},
                "family": {"kind": inst["kind"],
                           **{k: inst[k] for k in FAMILY_KEYS[inst["kind"]]}},
                "grid": {"t_min": t0, "t_max": t1, "n_t": FIELD_GRID_N,
                         "r_min": r0, "r_max": r1, "n_r": FIELD_GRID_N},
            }
            cfg_path = os.path.join(out_dir, f"{name}.config.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            out = os.path.join(out_dir, f"{name}.{fmt}")
            argv = ["field", "--config", cfg_path, "--out", out, "--quiet"]
            if fmt == "json":
                argv += ["--format", "json"]
            self.jobs[name] = {"inst": inst, "bounds": bounds, "fmt": fmt,
                               "argv": argv, "out": out}
        self.digests = {}
        self.firsts = {}

    def operations(self):
        return [(f"field:{name}", lambda argv=job["argv"]: cli.main(argv))
                for name, job in self.jobs.items()]

    def prepare_references(self):
        self.refs = {}
        for name, job in self.jobs.items():
            t0, t1, r0, r1 = job["bounds"]
            ts = _grid(t0, t1, FIELD_GRID_N)
            rs = _grid(r0, r1, FIELD_GRID_N)
            rho, u = ref.fields(job["inst"], ts, rs)
            self.refs[name] = (np.repeat(ts, FIELD_GRID_N),
                               np.tile(rs, FIELD_GRID_N), rho.ravel(), u.ravel())

    def check(self, kind, code, error):
        if error is not None or code != 0:
            return FAILED
        name = kind.split(":", 1)[1]
        out = self.jobs[name]["out"]
        h = hashlib.sha256()
        with open(out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digest = h.hexdigest()
        if name not in self.digests:
            # keep the first export; it is checked value by value at the end
            self.digests[name] = digest
            self.firsts[name] = out + ".first"
            shutil.copyfile(out, self.firsts[name])
            return OK
        if digest != self.digests[name]:
            return self._wrong(f"{kind}: exported bytes differ between runs "
                               "of the same config")
        return OK

    def check_text(self, name, text):
        """Compare one export with the references; returns problems."""
        try:
            t, r, rho, u = parse_export(text, self.jobs[name]["fmt"])
        except (ValueError, KeyError) as exc:
            return [f"{name}: unreadable export ({exc})"]
        t_ref, r_ref, rho_ref, u_ref = self.refs[name]
        problems = []
        if (ref.relative_error(t, t_ref) > 1e-14
                or ref.relative_error(r, r_ref) > 1e-14):
            problems.append(f"{name}: grid coordinates differ from the config")
        for label, value, expect in (("rho", rho, rho_ref), ("u", u, u_ref)):
            err = ref.relative_error(value, expect)
            self._note(err)
            if not err <= VALUE_RTOL:
                problems.append(f"{name}: {label} relative error {err:.3e}")
        ratio = (u / r).reshape(FIELD_GRID_N, FIELD_GRID_N)
        spread = np.abs(ratio - ratio[:, :1]).max() / np.abs(ratio).max()
        if not spread <= U_OVER_R_RTOL:
            problems.append(f"{name}: u/r varies across r by {spread:.3e}")
        return problems

    def finish(self):
        problems = []
        for name, path in self.firsts.items():
            with open(path, encoding="utf-8") as fh:
                problems += self.check_text(name, fh.read())
        if len(self.firsts) != len(self.jobs):
            problems.append("a config was never exported")
        self.problems += problems
        return problems

    def self_tests(self):
        """The value check must reject an 8th-significant-digit change."""
        name = next((n for n, job in self.jobs.items()
                     if job["fmt"] == "csv" and n in self.firsts), None)
        if name is None:
            return ["no CSV export to build the self-test from"]
        with open(self.firsts[name], encoding="utf-8") as fh:
            text = fh.read()
        saved = self.err_max
        problems = self.check_text(name, corrupt_8th_digit(text))
        self.err_max = saved
        if not problems:
            return ["the export check passed a CSV changed in its 8th "
                    "significant digit"]
        return []


# --- build_sweep -------------------------------------------------------------

SWEEP_T_END = 1.2
SWEEP_POINT_TIMES = (0.05, 0.15)

#: half-width of the seed's jitter around each design point, as a share
#: of the constant's range
SWEEP_JITTER = 0.1

#: the build_sweep check compares scalings at these times and shapes at
#: SWEEP_SHAPE_POINTS values of z, so that its largest error is the
#: largest over a range, not over a few points that move with the seed
SWEEP_CHECK_TIMES = tuple(0.01 * k for k in range(1, 21))
SWEEP_SHAPE_POINTS = 41

#: relative tolerance of build_sweep values: the tabulated power-law shape
#: measures up to ~2e-9, and a shape off by 1e-7 must still be refused
SWEEP_RTOL = 2e-8

#: field points of the anchors, the certify families built in every
#: round: the largest error over a seeded draw moves by 20-36% between
#: seeds, so err_max is taken over these fixed instances alone
SWEEP_ANCHOR_POINTS = [(t, r) for t in SWEEP_POINT_TIMES for r in (0.4, 0.8)]

#: steep polytropic collapses, the same in every run: the integrator's
#: step size underflows before the collapse test accepts the vanishing
STEEP_COLLAPSES = (
    instance("with_pressure_polytropic", 3, 2.0, 2.0, alpha=1.0, a0=1.0, a1=0.0),
    instance("with_pressure_polytropic", 2, 2.5, 2.5, alpha=1.0, a0=1.0, a1=-0.2),
)

#: largest gamma of a polytropic collapse that still builds, per N
POLYTROPIC_COLLAPSE_GAMMA = {1: 3.0, 2: 1.8, 3: 1.5}


def sweep_instances(seed):
    """The seeded part of a build_sweep round.

    For each N in {1, 2, 3} it holds an expanding and a collapsing
    instance of each family that has both, and one of each pressureless
    family: 24 instances.  Each constant sits at a design point of its
    range, at a different place for each N, and the seed moves it by up
    to SWEEP_JITTER of the range.  So every seed builds different
    solutions, but the same kinds in the same number, and its round
    costs the same work.
    """
    rng = random.Random(seed)
    out = []
    for i, N in enumerate((1, 2, 3)):
        qa, qb, qc = (0.2, 0.5, 0.8)[i], (0.8, 0.2, 0.5)[i], (0.5, 0.8, 0.2)[i]

        def u(lo, hi, q):
            q = min(max(q + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER), 0.0), 1.0)
            return lo + (hi - lo) * q

        common = dict(K=u(0.8, 1.25, qa), kappa=u(0.8, 1.25, qb))
        iso = dict(A=u(0.5, 2.0, qc), C=u(-0.5, 0.5, qa), a0=u(0.9, 1.1, qb),
                   **common)
        out.append(instance("with_pressure_isothermal", N, 1.0, 1.0,
                            B=u(-1.5, -0.3, qa), a1=u(-0.2, 0.5, qc), **iso))
        out.append(instance("with_pressure_isothermal", N, 1.0, 1.0,
                            B=u(0.6, 1.5, qb), a1=u(-0.2, 0.1, qa), **iso))
        g = u(1.2, 2.5, qc)
        out.append(instance("with_pressure_polytropic", N, g, g,
                            alpha=u(0.8, 1.5, qa), a0=u(0.9, 1.1, qc),
                            a1=u(0.8, 1.5, qb), **common))
        g = u(1.2, POLYTROPIC_COLLAPSE_GAMMA[N], qb)
        out.append(instance("with_pressure_polytropic", N, g, g,
                            alpha=u(0.8, 1.5, qc), a0=u(0.9, 1.1, qa),
                            a1=u(-0.3, 0.0, qc), **common))
        g = u(1.0, 2.5, qa)
        th = g / 2.0 + 0.5 - 1.0 / N
        pl = dict(n=u(0.8, 1.2, qb), sigma=u(0.8, 1.2, qc),
                  alpha=u(1.0, 2.0, qa), **common)
        out.append(instance("with_pressure_power_law", N, g, th,
                            m=u(-1.5, -0.5, qc), **pl))
        out.append(instance("with_pressure_power_law", N, g, th,
                            m=u(0.2, 1.0, qb), **pl))
        out.append(instance("pressureless_theta1", N, 1.0, 1.0,
                            lam=u(-1.0, 1.0, qa), alpha=u(-0.5, 0.5, qb),
                            a0=u(0.9, 1.1, qc), a1=u(0.2, 0.8, qa), **common))
        th = u(0.5, 0.9, qc) if N == 2 else u(1.2, 2.5, qb)
        out.append(instance("pressureless_theta_not1", N, 1.0, th,
                            lam=u(0.2, 1.0, qb), alpha=u(1.0, 2.0, qc),
                            a0=u(0.9, 1.1, qa), a1=u(0.2, 0.8, qb), **common))
        for inst in out[-8:]:
            inst["points"] = [(t, r) for t in SWEEP_POINT_TIMES
                              for r in (u(0.2, 0.6, qa), u(0.6, 1.0, qb))]
    return out


class BuildSweep(Workload):
    """validate, build_solution, vanishing_time and a few field points,
    over a seeded stream of instances of all five families."""

    name = "build_sweep"

    def __init__(self, seed, out_dir):
        super().__init__()
        anchors = [dict(inst, anchor=True, points=SWEEP_ANCHOR_POINTS)
                   for _, inst, _ in CERTIFY_FAMILIES]
        steep = [dict(inst, points=[]) for inst in STEEP_COLLAPSES]
        self.instances = anchors + sweep_instances(seed) + steep
        self.cases = [(inst, *to_nssol(inst)) for inst in self.instances]
        self.outputs = {}

    def operations(self):
        def op(params, family, points):
            outcome = nssol.validate(params, family)
            solution = nssol.build_solution(params, family, t_end=SWEEP_T_END)
            t_star = nssol.vanishing_time(solution.scaling)
            field = solution.field()
            return outcome.ok, solution, t_star, [field(t, r) for t, r in points]

        return [(f"build:{k:02d}:{inst['kind']}",
                 lambda p=params, f=family, pts=inst["points"]: op(p, f, pts))
                for k, (inst, params, family) in enumerate(self.cases)]

    def prepare_references(self):
        self.refs = []
        for inst in self.instances:
            points = inst["points"]
            times = sorted({t for t, _ in points} | set(SWEEP_CHECK_TIMES))
            states = dict(zip(times, ref.scaling_at(inst, times)))
            a = np.array([states[t] for t in SWEEP_CHECK_TIMES])
            at_points = np.array([states[t] for t, _ in points]).reshape(-1, 2)
            r = np.array([r for _, r in points])
            z = r / at_points[:, 0]
            z_dense = np.linspace(0.0, z.max(initial=0.0), SWEEP_SHAPE_POINTS)
            self.refs.append({
                "t_star": ref.vanishing_time(inst, SWEEP_T_END),
                "a": a[:, 0], "adot": a[:, 1],
                "rho": ref.shape(inst, z) / at_points[:, 0] ** inst["N"],
                "u": at_points[:, 1] / at_points[:, 0] * r,
                "z": z_dense, "shape": ref.shape(inst, z_dense),
            })

    def check(self, kind, output, error):
        if error is not None:
            return FAILED
        k = int(kind.split(":")[1])
        ok, solution, t_star, values = output
        if k not in self.outputs:
            self.outputs[k] = (solution, t_star)
        return self.check_case(k, ok, solution, t_star, values)

    def check_case(self, k, ok, solution, t_star, values, shape_scale=1.0):
        inst, expect = self.instances[k], self.refs[k]
        tag = f"build:{k:02d}:{inst['kind']}"
        note = self._note if inst.get("anchor") else (lambda err: None)
        if not ok:
            return self._wrong(f"{tag}: validate refused a valid instance")
        want = expect["t_star"]
        if (t_star is None) != (want is None):
            return self._wrong(f"{tag}: vanishing time {t_star} vs reference {want}")
        if want is not None:
            err = abs(t_star - want)
            note(err / want)
            if not err <= VANISH_ATOL:
                return self._wrong(f"{tag}: vanishing time off by {err:.3e}")
        points = inst["points"]
        if not points:
            return OK
        pairs = [solution.scaling.pair(t) for t in SWEEP_CHECK_TIMES]
        shapes = [solution.profile.evaluate(z)[0] * shape_scale
                  for z in expect["z"]]
        # a' and u pass through zero on some trajectories, so their error
        # is relative to their largest size
        for label, value, per_point in (
                ("a", [p[0] for p in pairs], True),
                ("adot", [p[1] for p in pairs], False),
                ("shape", shapes, True),
                ("rho", [v[0] for v in values], True),
                ("u", [v[1] for v in values], False)):
            err = ref.relative_error(value, expect[label], per_point)
            note(err)
            if not err <= SWEEP_RTOL:
                return self._wrong(f"{tag}: {label} relative error {err:.3e}")
        ratios = [v[1] / r for v, (_, r) in zip(values, points)]
        for i in range(0, len(ratios), 2):
            if abs(ratios[i] - ratios[i + 1]) > U_OVER_R_RTOL * abs(ratios[i]):
                return self._wrong(f"{tag}: u/r differs across r at one time")
        return OK

    def self_tests(self):
        """The checks must reject a vanishing time off by 1e-6 and a
        shape value off by 1e-7 relative."""
        failures = []
        saved = (self.err_max, list(self.problems))
        vanishing = [k for k, (_, t) in self.outputs.items()
                     if t is not None and self.instances[k]["points"]]
        if not vanishing:
            failures.append("no vanishing instance to build the self-test from")
        else:
            k = vanishing[0]
            solution, t_star = self.outputs[k]
            values = [solution.field()(t, r) for t, r in self.instances[k]["points"]]
            if self.check_case(k, True, solution, t_star, values) != OK:
                failures.append("the self-test's base case does not pass")
            if self.check_case(k, True, solution, t_star + 1e-6, values) != WRONG:
                failures.append("the check passed a vanishing time off by 1e-6")
            if self.check_case(k, True, solution, t_star, values,
                               shape_scale=1.0 + 1e-7) != WRONG:
                failures.append("the check passed a shape off by 1e-7 relative")
        self.err_max, self.problems = saved
        return failures


WORKLOADS = {w.name: w for w in (Certify, FieldExport, BuildSweep)}
