"""Drift check: the same runs of ``nssol`` on two source trees.

    python -m tests.drift OLD_SRC NEW_SRC

run from the repository root, with OLD_SRC and NEW_SRC two ``src``
directories (say, of a ``git archive`` of the parent commit and of the
working tree).  One child interpreter per tree imports ``nssol`` from
its tree and runs all six subcommands, in csv and in json, on each
instance of ``tests/cases.py``, as given and with theta + 0.5, and on
seven more: four collapses near t = 0 and at a large t (a = 1 - t,
which ends where the step in t falls below 10 ulp(t), the steep
polytropic collapse at K = kappa = 1 and at 1e-6, and a pressureless
one at e = 1.4, whose tails are integrated in a to a = 0 at t ~ 0.33,
644 and 0.56), a fast pressureless expansion at theta = 100, where
a**(-e) underflows to 0 with e = 299, a pressureless collapse at
theta = 100 that a thin braking layer stops at a ~ 0.1, which long
steps must not jump, and a damped relaxation toward a ~ 1e-9 that the
stepper refuses as stiff.  Each instance also runs verify_window on a
plain lambda over its solution's field, the black-box path that the
CLI never takes, at its config's two resolutions and again with a third,
each h halved once more.  Each run's stdout is one JSON document: the
report's to_dict(), or null where it was refused, the count of (t, r)
calls the lambda saw and a SHA-256 digest of them in order, so a change
of the verifier's call order or count shows as a differing run.  Every
run whose exit code, stdout, stderr or payload differs
between the trees is printed: a payload or stdout that differs only in
its numbers, with the same text and structure around them, as the count
of differing values and their largest distance in ulps per column (a
CSV header's name, or a JSON document's key path, list indices left
out), anything else as its first differing lines.  Every
run of NEW_SRC whose JSON payload (each of describe, verify and blowup,
and the json format of the others) or stdout summary line does not
parse as strict JSON, NaN and Infinity refused, is printed with the
reason.  Every instance of NEW_SRC whose blowup states a collapse law
a ~ C*(T - t)**(1/e) is checked against its scaling: a(T - d) must
meet C*d**(1/e) to LAW_RTOL at one of the gaps d = 1e-3 ... 1e-9 times
max(1, T) that it serves, where the law's own error, which falls with
d, is not yet swamped by the tail's tolerance on t, about 1e-12*T.  The
exit status is 1 if any run differs, is not strict JSON or misses its
law.

This is no golden test, and pytest does not collect it: numpy's exp and
power can differ by an ulp between CPUs, so only two trees run on one
machine are compared.
"""

import argparse
import contextlib
import csv
import difflib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("describe", "profile", "scale", "field", "verify", "blowup")
FORMATS = ("csv", "json")
FIELDS = ("exit", "stdout", "stderr", "payload")
#: subcommands whose payload is JSON in either format
JSON_COMMANDS = ("describe", "verify", "blowup")
#: the relative error a collapse law must meet at one of its gaps
LAW_RTOL = 1e-2


def _configs():
    """Run name -> config document of each instance and its theta + 0.5."""
    from nssol import (
        ModelParams,
        PressurelessTheta1,
        PressurelessThetaNot1,
        WithPressurePolytropic,
    )
    from nssol.residuals import Window

    from tests import cases

    instances = [(make.__name__, *make()) for make in (
        cases.isothermal_stated, cases.isothermal_gaussian, cases.polytropic_n1,
        cases.powerlaw_blowup, cases.pressureless_theta1, cases.pressureless_theta2)]
    instances += [
        ("linear_collapse", ModelParams(N=1, gamma=1.0, theta=1.0, delta=0),
         PressurelessTheta1(lam=0.0, alpha=0.0, a0=1.0, a1=-1.0),
         Window(0.1, 2.0, 0.1, 2.0)),
        ("steep_collapse", ModelParams(N=3, gamma=2.0, theta=2.0),
         WithPressurePolytropic(alpha=1.0, a0=1.0, a1=0.0),
         Window(0.05, 1.2, 0.1, 2.0)),
        ("slow_collapse", ModelParams(N=3, gamma=2.0, theta=2.0, K=1e-6, kappa=1e-6),
         WithPressurePolytropic(alpha=1.0, a0=1.0, a1=0.0),
         Window(0.05, 1000.0, 0.1, 2.0)),
        ("gentle_collapse", ModelParams(N=3, gamma=1.0, theta=0.8, delta=0),
         PressurelessThetaNot1(lam=-1.0, alpha=1.0, a0=1.0, a1=-1.0),
         Window(0.1, 1.0, 0.1, 2.0)),
        ("fast_expansion", ModelParams(N=3, gamma=1.0, theta=100.0, delta=0),
         PressurelessThetaNot1(lam=1.0, alpha=1.0, a0=1.0, a1=20.0),
         Window(0.1, 1.0, 0.1, 2.0)),
        ("braking_layer", ModelParams(N=3, gamma=1.0, theta=100.0, delta=0),
         PressurelessThetaNot1(lam=1e-295, alpha=1.0, a0=1.0, a1=-1.0),
         Window(0.1, 2.0, 0.1, 2.0)),
        ("stiff_relaxation", ModelParams(N=1, gamma=1.0, theta=1.0, delta=0),
         PressurelessTheta1(lam=-1e-9, alpha=0.0, a0=1.0, a1=-1.0),
         Window(0.1, 2.0, 0.1, 2.0)),
    ]
    docs = {}
    for name, params, family, window in instances:
        for suffix, dtheta in (("", 0.0), (" theta+0.5", 0.5)):
            docs[name + suffix] = {
                "model": {**asdict(params), "theta": params.theta + dtheta},
                "family": {"kind": family.tag, **asdict(family)},
                "grid": {**asdict(window), "n_t": 7, "n_r": 9},
                "verify": {"window": asdict(window),
                           "resolutions": [list(h) for h in cases.RESOLUTIONS],
                           "lattice": 9},
            }
    return docs


def _law_error(doc, law):
    """The smallest relative error of the collapse law that the blowup
    record law states, over the gaps d that the scaling of the config doc
    serves, and that d."""
    from nssol import build_solution
    from nssol.cli import RunConfig

    config = RunConfig(doc)
    scaling = build_solution(config.params, config.family,
                             t_end=config.grid["t_max"]).scaling
    T, C, p = law["vanishing_time"], law["collapse_constant"], law["collapse_exponent"]
    errors = []
    for k in range(3, 10):
        t = T - 10.0 ** -k * max(1.0, T)
        if t <= scaling.t_end:
            errors.append((abs(scaling.pair(t)[0] / (C * (T - t) ** p) - 1.0), T - t))
    return min(errors, default=(math.inf, math.nan))


def _black_box(doc, resolutions):
    """The exit and stdout of verify_window at resolutions on a plain
    lambda over the field of the config doc's solution, built as far as
    verify_family builds it: the report's JSON, or null where it was
    refused, with the count and digest of the lambda's (t, r) calls."""
    from nssol import build_solution, verify_window
    from nssol.cli import RunConfig

    config = RunConfig(doc)
    window = config.verify["window"]
    t_end = window.t_max + 2.0 * max(h_t for h_t, _ in resolutions)
    field = build_solution(config.params, config.family, t_end=t_end).field()
    calls = []

    def black_box(t, r):
        calls.append(struct.pack("<2d", t, r))
        return field(t, r)

    try:
        code, report = 0, verify_window(black_box, config.params, window, resolutions,
                                        lattice=config.verify["lattice"]).to_dict()
    except Exception as exc:  # a refusal is compared as a crash is
        code, report = f"raised {type(exc).__name__}: {exc}", None
    return code, json.dumps({"report": report, "calls": len(calls),
                             "digest": hashlib.sha256(b"".join(calls)).hexdigest()})


def _child(src):
    """Every run on the nssol of src, and each collapse law's error, as
    JSON on stdout."""
    sys.path.insert(0, os.path.abspath(src))
    import nssol
    from nssol.cli import main

    if not Path(nssol.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"nssol was imported from {nssol.__file__}, not from {src}")
    # each run reports its own warnings, without the tree's path
    warnings.simplefilter("always")
    warnings.formatwarning = lambda msg, cat, *_, **__: f"{cat.__name__}: {msg}\n"
    configs = _configs()
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, doc in configs.items():
            Path("config.json").write_text(json.dumps(doc))
            for command in COMMANDS:
                for fmt in FORMATS:
                    Path("payload").unlink(missing_ok=True)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = main([command, "--config", "config.json",
                                         "--format", fmt, "--out", "payload"])
                        except Exception as exc:  # a crash is a difference too
                            code = f"raised {type(exc).__name__}: {exc}"
                    payload = Path("payload")
                    records[f"{name} {command} {fmt}"] = {
                        "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "payload": payload.read_text() if payload.exists() else None}
            resolutions = doc["verify"]["resolutions"]
            finer = [h / 2.0 for h in resolutions[-1]]
            for kind, steps in (("black-box", resolutions),
                                ("black-box-3", [*resolutions, finer])):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        code, out = _black_box(doc, steps)
                    except Exception as exc:  # a failed build is compared as a crash is
                        code, out = f"raised {type(exc).__name__}: {exc}", ""
                records[f"{name} verify_window {kind}"] = {
                    "exit": code, "stdout": out, "stderr": err.getvalue(), "payload": None}
        os.chdir(ROOT)
    laws = {}
    for name, doc in configs.items():
        blowup = records[f"{name} blowup json"]
        law = json.loads(blowup["payload"]) if blowup["exit"] == 0 else {}
        if "collapse_exponent" in law:
            laws[name] = _law_error(doc, law)
    json.dump({"runs": records, "laws": laws}, sys.stdout)


def _runs(src):
    proc = subprocess.run([sys.executable, "-m", "tests.drift", "--child", src],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the child on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _json_cells(value, path=()):
    """(column, leaf) of each leaf of a JSON value in document order,
    column its key path, list indices left out."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_cells(item, (*path, key))
    elif isinstance(value, list):
        for item in value:
            yield from _json_cells(item, path)
    else:
        yield ".".join(path), value


def _cells(text, table):
    """(column, value) of each cell of a run's text: a CSV table's cells
    under their header's names, or the leaves of its JSON lines, or of
    the one JSON document it is.  Raises ValueError where it is neither."""
    if table:
        header, *rows = csv.reader(io.StringIO(text))
        return [(name, _read(cell)) for row in rows
                for name, cell in zip(header, row, strict=True)]
    try:
        docs = [json.loads(text)]
    except ValueError:
        docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [cell for doc in docs for cell in _json_cells(doc)]


def _read(cell):
    """A CSV cell as the float it writes, or as its text."""
    try:
        return float(cell)
    except ValueError:
        return cell


def _ordinal(x):
    """x's place among the floats in order: adjacent floats differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _number_drift(old, new, table):
    """{column: (count, ulps)} of the numbers that differ between two
    texts whose other values and structure agree, with the largest
    distance among them in ulps; None where anything else differs, or
    no number does."""
    try:
        pairs = list(zip(_cells(old, table), _cells(new, table), strict=True))
    except ValueError:  # a text that is neither, or cells that do not pair up
        return None
    drift = {}
    for (column, x), (other, y) in pairs:
        if column != other:
            return None
        if type(x) is type(y) and (x == y or x != x and y != y):
            continue
        if not {type(x), type(y)} <= {int, float}:  # text, a bool or a null
            return None
        ulps = abs(_ordinal(float(x)) - _ordinal(float(y))) if x == x and y == y else math.inf
        count, most = drift.get(column, (0, 0))
        drift[column] = (count + 1, max(most, ulps))
    return drift or None


def _reject(literal):
    raise ValueError(f"holds the non-finite number {literal}")


def _not_strict_json(key, record):
    """Why a run's JSON payload or a stdout line of it is not strict JSON."""
    _, command, fmt = key.rsplit(" ", 2)
    texts = [("stdout", line) for line in record["stdout"].splitlines()]
    if record["payload"] is not None and (fmt == "json" or command in JSON_COMMANDS):
        texts.append(("payload", record["payload"]))
    reasons = []
    for field, text in texts:
        try:
            json.loads(text, parse_constant=_reject)
        except ValueError as exc:  # JSONDecodeError too
            reasons.append(f"{field}: {exc}")
    return reasons


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return _child(argv[1])
    parser = argparse.ArgumentParser(prog="python -m tests.drift",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    old, new_tree = _runs(args.old_src)["runs"], _runs(args.new_src)
    new, laws = new_tree["runs"], new_tree["laws"]
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, {}), new.get(key, {})
        bad = [f for f in FIELDS if a.get(f) != b.get(f)]
        if not bad:
            continue
        differ += 1
        print(f"{key}: {', '.join(bad)} differ")
        _, command, fmt = key.rsplit(" ", 2)
        table = fmt == "csv" and command not in JSON_COMMANDS
        for f in bad:
            old_text, new_text = str(a.get(f)), str(b.get(f))
            drift = (_number_drift(old_text, new_text, table and f == "payload")
                     if f in ("stdout", "payload") else None)
            if drift is not None:
                for column, (count, ulps) in drift.items():
                    print(f"    {f} {column}: {count} values differ, by at most {ulps} ulps")
                continue
            lines = difflib.unified_diff(old_text.splitlines(), new_text.splitlines(),
                                         f"old {f}", f"new {f}", n=0, lineterm="")
            for line in list(lines)[2:8]:
                print(f"    {line}")
    loose = 0
    for key in sorted(new):
        reasons = _not_strict_json(key, new[key])
        if reasons:
            loose += 1
            print(f"{key}: not strict JSON")
            for reason in reasons:
                print(f"    {reason}")
    missed = 0
    for name, (error, gap) in sorted(laws.items()):
        missed += not error <= LAW_RTOL
        print(f"{name}: collapse law within {error:.1e} at T - t = {gap:.1e}"
              + ("" if error <= LAW_RTOL else f", not {LAW_RTOL:g}"))
    print(f"{len(old.keys() | new.keys())} runs, {differ} differ, "
          f"{loose} not strict JSON, {missed} of {len(laws)} collapse laws missed")
    return 1 if differ or loose or missed else 0


if __name__ == "__main__":
    sys.exit(main())
