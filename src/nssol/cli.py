"""Command-line interface: configuration parsing, runs, and data export.

Subcommands: describe, profile, scale, field, verify, blowup.  All read
a JSON configuration document (strict schema: unknown keys are rejected)
and write CSV or JSON payloads.  Exit codes: 0 success, 2 configuration
or validation failure, 3 runtime numeric failure; failures also emit a
machine-readable JSON record on stderr.

CSV payloads have a single header row, LF line endings, and numbers
printed with 17 significant digits so binary64 values round-trip.
"""

import argparse
import copy
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .errors import NonFiniteFieldError, NssolError, refuse
from .fields import eval_grid
from .model import FAMILY_TAGS, ModelParams, validate
from .profiles import DEFAULT_Z_MAX
from .residuals import DEFAULT_LATTICE, Window, verify_family
from .solutions import build_solution


class ConfigError(Exception):
    """Configuration document violates the schema."""


def _number(where, value):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(where, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _string(where, value):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _window(where, value):
    return _section(where, value, dict.fromkeys(
        ("t_min", "t_max", "r_min", "r_max"), _number), {})


def _resolutions(where, value):
    if (not isinstance(value, list) or not value
            or not all(isinstance(p, list) and len(p) == 2 for p in value)):
        raise ConfigError(f"{where} must be a non-empty list of [h_t, h_r] pairs")
    pairs = [[_number(where, h) for h in pair] for pair in value]
    if not all(h > 0.0 for pair in pairs for h in pair):
        raise ConfigError(f"{where} entries must be > 0, got {value!r}")
    return pairs


#: section -> (required keys, optional keys), each key mapped to the
#: parser of its value; the family section's keys are the fields of the
#: family class that family.kind names
_SCHEMA = {
    "model": ({"N": _integer, "gamma": _number, "theta": _number},
              {"K": _number, "kappa": _number, "delta": _integer}),
    "grid": ({"t_min": _number, "t_max": _number, "n_t": _integer,
              "r_min": _number, "r_max": _number, "n_r": _integer}, {}),
    "verify": ({"window": _window, "resolutions": _resolutions},
               {"lattice": _integer}),
    "output": ({}, {"format": _string, "path": _string}),
    "numerics": ({}, {"z_max": _number}),
}


def _section(name, data, required, optional):
    """Parsed copy of one section: its keys checked against the schema,
    each value by its parser."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise ConfigError(f"missing key(s) in {name!r}: {', '.join(missing)}")
    parsers = {**required, **optional}
    return {k: parsers[k](f"{name}.{k}", v) for k, v in data.items()}


class RunConfig:
    """Validated run configuration; reserializes losslessly."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a JSON object")
        unknown = sorted(set(raw) - set(_SCHEMA) - {"family"})
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
        for key in ("model", "family"):
            if key not in raw:
                raise ConfigError(f"missing required section {key!r}")

        kind = raw["family"].get("kind") if isinstance(raw["family"], dict) else None
        if not isinstance(kind, str) or kind not in FAMILY_TAGS:
            raise ConfigError(
                f"family.kind must be one of {sorted(FAMILY_TAGS)}, got {kind!r}")
        family_cls = FAMILY_TAGS[kind]
        constants = {f.name: _number for f in fields(family_cls)}
        doc = {"family": _section("family", raw["family"],
                                  {"kind": _string, **constants}, {})}
        for name, (required, optional) in _SCHEMA.items():
            if name in raw:
                doc[name] = _section(name, raw[name], required, optional)
        self._doc = doc

        self.family = family_cls(**{k: doc["family"][k] for k in constants})
        self.params = ModelParams(**{"delta": self.family.delta, **doc["model"]})

        self.grid = doc.get("grid")
        if self.grid is not None:
            if self.grid["r_min"] <= 0.0:
                raise ConfigError("grid.r_min must be > 0")
            if not self.grid["t_min"] < self.grid["t_max"]:
                raise ConfigError("grid needs t_min < t_max")
            if not self.grid["r_min"] < self.grid["r_max"]:
                raise ConfigError("grid needs r_min < r_max")
            if self.grid["n_t"] < 1 or self.grid["n_r"] < 1:
                raise ConfigError("grid needs n_t >= 1 and n_r >= 1")

        self.verify = None
        if "verify" in doc:
            ver = doc["verify"]
            try:
                window = Window(**ver["window"])
            except ValueError as exc:
                raise ConfigError(f"verify.window: {exc}") from exc
            lattice = ver.get("lattice", DEFAULT_LATTICE)
            if lattice < 2:
                raise ConfigError(f"verify.lattice must be an integer >= 2, got {lattice!r}")
            self.verify = {"window": window,
                           "resolutions": [tuple(p) for p in ver["resolutions"]],
                           "lattice": lattice}

        out = doc.get("output", {})
        self.output_format = out.get("format", "csv")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(
                f"output.format must be 'csv' or 'json', got {self.output_format!r}")
        self.output_path = out.get("path")

        self.z_max = doc.get("numerics", {}).get("z_max", DEFAULT_Z_MAX)
        if self.z_max <= 0.0:
            raise ConfigError("numerics.z_max must be > 0")

    @classmethod
    def from_file(cls, path):
        def reject(literal):
            raise ConfigError(f"config {path!r} holds the non-finite number {literal}")

        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh, parse_constant=reject)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        return cls(raw)

    def to_dict(self):
        """Reconstruct the configuration document (round-trip lossless)."""
        return copy.deepcopy(self._doc)


def _json_doc(obj):
    return json.dumps(obj, indent=2) + "\n"


def _table(header, keys, values, fmt, **extra):
    """Table over the product grid of the 1-d arrays keys, values having
    that grid's shape: CSV at 17 significant digits, or JSON columns then
    extra, byte for byte json.dumps(..., indent=2) but with the columns
    from json's C encoder (indent selects the slow one).  Each distinct
    key is formatted once and its text repeated over the grid.  A value
    that is not finite raises NonFiniteFieldError: no payload carries
    inf or NaN."""
    names = header[:len(keys)]
    at = ", ".join(f"{k}={{{k}!r}}" for k in names)
    for name, column in zip(header[len(keys):], values):
        refuse(NonFiniteFieldError, ~np.isfinite(column),
               f"{name} at ({at}) is not finite: {{value!r}}",
               value=column, **dict(zip(names, np.ix_(*keys))))
    if fmt == "json":
        sep = ",\n    "
        # key d's text at each grid point: each of its values repeated over
        # the keys after it, that block repeated over the keys before it
        sizes = [len(k) for k in keys]
        columns = []
        for d, k in enumerate(keys):
            inner, outer = math.prod(sizes[d + 1:]), math.prod(sizes[:d])
            block = sep.join(sep.join([x] * inner)
                             for x in json.dumps(k.tolist())[1:-1].split(", "))
            columns.append(sep.join([block] * outer))
        columns += [json.dumps(v.ravel().tolist(), separators=(sep, ": "))[1:-1]
                    for v in values]
        parts = ["{\n"]
        for k, text in zip(header, columns):
            parts += [f"  {json.dumps(k)}: [\n    ", text, "\n  ],\n"]
        parts += [f"  {json.dumps(k)}: " + json.dumps(v, indent=2).replace("\n", "\n  ")
                  + ",\n" for k, v in extra.items()]
        parts[-1] = parts[-1][:-2] + "\n}\n"
        return "".join(parts)
    prefixes = [""]
    for key in keys:
        strings = [f"{x:.17g}," for x in key.tolist()]
        prefixes = [p + x for p in prefixes for x in strings]
    row = ",".join(["%.17g"] * len(values)) + "\n"
    rows = zip(*(v.ravel().tolist() for v in values))
    return ",".join(header) + "\n" + "".join([p + row % v for p, v in zip(prefixes, rows)])


def _build(config, t_end):
    return build_solution(config.params, config.family, t_end=t_end,
                          z_max=config.z_max)


def _require_grid(config):
    if config.grid is None:
        raise ConfigError("this command needs a 'grid' section in the config")
    return config.grid


def cmd_describe(config, fmt):
    outcome = validate(config.params, config.family)
    doc = {
        "family": config.family.tag,
        "ok": outcome.ok,
        "violations": list(outcome.violations),
        "model": asdict(config.params),
    }
    if outcome.derived is not None:
        doc["s"] = outcome.derived.s
        doc["theta_required"] = outcome.derived.theta_required
    if outcome.ok:
        doc.update(config.family.describe(config.params))
    return _json_doc(doc), {"ok": outcome.ok, "violations": outcome.violations}


def cmd_profile(config, fmt):
    grid = _require_grid(config)
    profile = _build(config, t_end=max(grid["t_max"], 1e-3)).profile
    zs = np.linspace(0.0, min(grid["r_max"], profile.z_max), grid["n_r"])
    return (_table(("z", "y", "dy"), [zs], profile.evaluate(zs), fmt),
            {"ok": True, "points": zs.size})


def cmd_scale(config, fmt):
    grid = _require_grid(config)
    scaling = _build(config, t_end=grid["t_max"]).scaling
    status = {"status": scaling.status, "vanishing_time": scaling.vanishing_time}
    ts = np.linspace(grid["t_min"], min(grid["t_max"], scaling.t_end), grid["n_t"])
    return (_table(("t", "a", "adot"), [ts], scaling.pair(ts), fmt, status=status),
            {"ok": True, **status})


def cmd_field(config, fmt):
    grid = _require_grid(config)
    solution = _build(config, t_end=grid["t_max"])
    ts = np.linspace(grid["t_min"], grid["t_max"], grid["n_t"])
    rs = np.linspace(grid["r_min"], grid["r_max"], grid["n_r"])
    fg = eval_grid(solution.profile, solution.scaling, config.params.N, ts, rs)
    return (_table(("t", "r", "rho", "u"), [fg.t_values, fg.r_values],
                   [fg.rho, fg.u], fmt),
            {"ok": True, "points": fg.rho.size})


def cmd_verify(config, fmt):
    if config.verify is None:
        raise ConfigError("this command needs a 'verify' section in the config")
    report = verify_family(config.params, config.family,
                           config.verify["window"], config.verify["resolutions"],
                           lattice=config.verify["lattice"], z_max=config.z_max)
    return (_json_doc(report.to_dict()),
            {"ok": True, "mass_linf": report.finest.mass_linf,
             "mom_linf": report.finest.mom_linf})


def cmd_blowup(config, fmt):
    t_end = config.grid["t_max"] if config.grid is not None else 10.0
    doc = _build(config, t_end=t_end).scaling.blowup()
    return _json_doc(doc), {"ok": True, **doc}


#: subcommand -> command(config, fmt) giving its payload text and its
#: summary record; main writes both, then any "violations" of the summary
#: go to stderr and fail the run
_COMMANDS = {
    "describe": cmd_describe,
    "profile": cmd_profile,
    "scale": cmd_scale,
    "field": cmd_field,
    "verify": cmd_verify,
    "blowup": cmd_blowup,
}


def _error_record(exc):
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nssol",
        description=("Construct exact self-similar solutions of the radial "
                     "compressible Navier-Stokes system with density-dependent "
                     "viscosity and verify them by finite-difference residuals."))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("describe", "validate the configuration and summarize the family"),
            ("profile", "emit the density shape as CSV (z,y,dy)"),
            ("scale", "emit the scaling trajectory as CSV (t,a,adot)"),
            ("field", "emit the assembled fields as CSV (t,r,rho,u)"),
            ("verify", "run the finite-difference residual verifier"),
            ("blowup", "report the vanishing time of the scaling, if any")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration path")
        p.add_argument("--out", default=None, help="output payload path")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="payload format (default: from config, else csv)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the stdout summary record")
    args = parser.parse_args(argv)

    try:
        config = RunConfig.from_file(args.config)
        out_path = args.out if args.out is not None else config.output_path
        fmt = args.format if args.format is not None else config.output_format
        text, summary = _COMMANDS[args.command](config, fmt)
        violations = summary.pop("violations", ())
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            if not args.quiet:
                print(json.dumps({**summary, "path": out_path}))
        if not args.quiet:
            for line in violations:
                print(f"violation: {line}", file=sys.stderr)
        if violations:
            raise ConfigError("validation failed: " + "; ".join(violations))
    except (ConfigError, ValueError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except NssolError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
