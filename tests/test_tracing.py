"""The benchmark's tracer (bench/tracing.py) binds nssol's functions by
name: it must find every one of them, count calls through them, and put
every binding back when it is uninstalled."""

import importlib.util
import pathlib
import sys

import numpy as np

import nssol
import nssol.cli  # noqa: F401  (the tracer wraps CLI functions too)
from tests.cases import isothermal_gaussian

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in nssol's modules, in their classes and in their
    module-level dicts, mapped to the object it is bound to."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "nssol" and not name.startswith("nssol."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update({(name, attr, k): v for k, v in vars(value).items()})
            elif isinstance(value, dict):
                out.update({(name, attr, k): v for k, v in value.items()})
    return out


def test_tracer_finds_every_target_and_restores_nssol():
    tracing = _load_tracing()
    targets = tracing._targets()
    assert {layer for layer, _, _ in targets} == set(tracing.LAYERS)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer, owner, attr in targets:
            wrapped = vars(owner)[attr]
            wrapped = getattr(wrapped, "__func__", wrapped)
            assert hasattr(wrapped, "__wrapped__"), (layer, owner, attr)
        params, family, window = isothermal_gaussian()
        tracer.op = "smoke"
        solution = nssol.build_solution(params, family, t_end=window.t_max)
        nssol.eval_grid(solution.profile, solution.scaling, params.N,
                        np.linspace(0.1, 0.2, 3), np.linspace(0.5, 1.0, 4))
        tracer.op = None
        for layer in ("model.validate", "solutions.build", "scaling.integrate",
                      "fields.eval_grid", "fields.point", "scaling.pair",
                      "profiles.evaluate", "interp.hermite"):
            assert tracer.totals[layer][0] > 0, layer
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
