"""Command-line interface: configuration parsing, runs, and data export.

Subcommands: describe, profile, scale, field, verify, blowup.  All read
a JSON configuration document (strict schema: unknown keys are rejected)
and write CSV or JSON payloads.  Exit codes: 0 success, 2 configuration
or validation failure, or an output that cannot be written (such as an
``--out`` in a missing directory, or naming a directory), 3 runtime
numeric failure; failures also emit a machine-readable JSON record on
stderr.  A run that fails after it has begun to write a regular
``--out`` file removes that file.

CSV payloads have a single header row, LF line endings, and numbers
printed with 17 significant digits, exactly as ``'%.17g' % x``, so
binary64 values round-trip.  JSON payloads are byte for byte
``json.dumps(doc, indent=2)``, every number its shortest round-trip
``repr``.  ``_text`` writes every byte of the CSV and JSON tables of
profile, scale and field, and a command writes each block of its
payload as soon as it is formatted; the other payloads are small
documents, which ``_json_doc`` writes.
"""

import argparse
import contextlib
import json
import os
import stat
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from ._interp import BLOCK
from ._text import csv_table, json_table
from .errors import NonFiniteFieldError, NssolError, refuse
from .fields import eval_grid
from .model import FAMILY_TAGS, ModelParams, derived_s, finite, theta_required, validate
from .residuals import DEFAULT_LATTICE, Window, verify_family
from .solutions import build_shape, build_solution


class ConfigError(Exception):
    """Configuration document violates the schema."""


def _number(where, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not finite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(where, value):
    if isinstance(value, bool) or not isinstance(value, int) or not finite(value):
        raise ConfigError(f"{where} must be an integer in the float range, got {value!r}")
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
    """Validated run configuration."""

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
        except ValueError as exc:  # int() past its digit limit, or bytes not UTF-8
            raise ConfigError(f"config {path!r} cannot be read: {exc}") from exc
        return cls(raw)


def _json_doc(obj):
    return (json.dumps(obj, indent=2) + "\n").encode()


def _table(header, keys, values, fmt, **extra):
    """Table over the product grid of the 1-d arrays keys, values having
    that grid's shape: CSV, or JSON columns then extra, as ``_text``
    writes them.  A value that is not finite raises NonFiniteFieldError
    here, before any text is made: no payload carries inf or NaN.
    Returns an iterator over the payload's bytes, a block at a time."""
    names = header[:len(keys)]
    at = ", ".join(f"{k}={{{k}!r}}" for k in names)
    for name, column in zip(header[len(keys):], values):
        refuse(NonFiniteFieldError, ~np.isfinite(column),
               f"{name} at ({at}) is not finite: {{value!r}}",
               value=column, **dict(zip(names, np.ix_(*keys))))
    if fmt == "json":
        return json_table(header, keys, values, extra)
    return csv_table(header, keys, values)


def _require_grid(config):
    if config.grid is None:
        raise ConfigError("this command needs a 'grid' section in the config")
    return config.grid


def cmd_describe(config, fmt, write):
    outcome = validate(config.params, config.family)
    doc = {
        "family": config.family.tag,
        "ok": outcome.ok,
        "violations": list(outcome.violations),
        "model": asdict(config.params),
    }
    if outcome.ok:  # then gamma*N - N + 2 >= 2: s is defined
        doc["s"] = derived_s(config.params)
        doc["theta_required"] = theta_required(config.params)
        doc.update(config.family.describe(config.params))
    write([_json_doc(doc)])
    return {"ok": outcome.ok, "violations": outcome.violations}


def cmd_profile(config, fmt, write):
    grid = _require_grid(config)
    profile = build_shape(config.params, config.family)
    zs = np.linspace(0.0, grid["r_max"], grid["n_r"])
    y, dy = np.empty_like(zs), np.empty_like(zs)
    for i in range(0, zs.size, BLOCK):  # blocks bound the shape's temporaries
        y[i:i + BLOCK], dy[i:i + BLOCK] = profile.evaluate(zs[i:i + BLOCK])
    write(_table(("z", "y", "dy"), [zs], [y, dy], fmt))
    return {"ok": True, "points": zs.size}


def cmd_scale(config, fmt, write):
    grid = _require_grid(config)
    scaling = build_solution(config.params, config.family, t_end=grid["t_max"]).scaling
    status = {"status": scaling.status, "vanishing_time": scaling.vanishing_time}
    ts = np.linspace(grid["t_min"], min(grid["t_max"], scaling.t_end), grid["n_t"])
    write(_table(("t", "a", "adot"), [ts], scaling.pair(ts), fmt, status=status))
    return {"ok": True, **status}


def cmd_field(config, fmt, write):
    grid = _require_grid(config)
    solution = build_solution(config.params, config.family, t_end=grid["t_max"])
    ts = np.linspace(grid["t_min"], grid["t_max"], grid["n_t"])
    rs = np.linspace(grid["r_min"], grid["r_max"], grid["n_r"])
    rho, u = eval_grid(solution.profile, solution.scaling, config.params.N, ts, rs)
    write(_table(("t", "r", "rho", "u"), [ts, rs], [rho, u], fmt))
    return {"ok": True, "points": rho.size}


def cmd_verify(config, fmt, write):
    if config.verify is None:
        raise ConfigError("this command needs a 'verify' section in the config")
    report = verify_family(config.params, config.family,
                           config.verify["window"], config.verify["resolutions"],
                           lattice=config.verify["lattice"])
    write([_json_doc(report.to_dict())])
    return {"ok": True, "mass_linf": report.finest.mass_linf,
            "mom_linf": report.finest.mom_linf}


def cmd_blowup(config, fmt, write):
    t_end = config.grid["t_max"] if config.grid is not None else 10.0
    doc = build_solution(config.params, config.family, t_end=t_end).scaling.blowup()
    write([_json_doc(doc)])
    return {"ok": True, **doc}


#: subcommand -> command(config, fmt, write), which passes write its
#: payload, an iterable of bytes made a block at a time, and returns its
#: summary record; main writes the summary, then any "violations" of it
#: go to stderr and fail the run
_COMMANDS = {
    "describe": cmd_describe,
    "profile": cmd_profile,
    "scale": cmd_scale,
    "field": cmd_field,
    "verify": cmd_verify,
    "blowup": cmd_blowup,
}


class _Sink:
    """Where a payload goes, each chunk as soon as it is made: the file at
    path, opened "wb" at the first chunk, so a run refused before it
    leaves no file and an existing one untouched; or, without a path,
    stdout, each chunk decoded.  A run that fails once the file is open
    calls discard, which removes a regular file, since it holds part of
    a payload, and leaves a device, a FIFO or a terminal in place."""

    def __init__(self, path):
        self.path = path
        self.file = None
        self.regular = False

    def write(self, chunks):
        for chunk in chunks:
            if self.path is None:
                sys.stdout.write(chunk.decode())
                continue
            if self.file is None:
                self.file = open(self.path, "wb")
                self.regular = stat.S_ISREG(os.fstat(self.file.fileno()).st_mode)
            self.file.write(chunk)

    def close(self):
        if self.file is not None:
            self.file.close()
            self.file = None

    def discard(self):
        """Close the file this sink opened, if it did, and remove it if
        it is a regular file."""
        if self.file is not None:
            with contextlib.suppress(OSError):  # the run is already failing
                self.file.close()
            if self.regular:
                with contextlib.suppress(OSError):
                    os.remove(self.path)
            self.file = None


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
        sink = _Sink(out_path)
        try:
            summary = _COMMANDS[args.command](config, fmt, sink.write)
            sink.close()
        except BaseException:
            sink.discard()
            raise
        violations = summary.pop("violations", ())
        if out_path is not None and not args.quiet:
            print(json.dumps({**summary, "path": out_path}))
        if not args.quiet:
            for line in violations:
                print(f"violation: {line}", file=sys.stderr)
        if violations:
            raise ConfigError("validation failed: " + "; ".join(violations))
    except (ConfigError, ValueError, OSError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except NssolError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
