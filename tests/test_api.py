"""Public names: ``nssol.__all__`` is the pinned list below, every entry
resolves, and so does every name the benchmark (bench/*.py) reads off the
package, which it binds by name and cannot follow a rename."""

import ast
import importlib
import pathlib

import pytest

import nssol

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _resolves(name):
    try:
        importlib.import_module(f"nssol.{name}")  # a submodule
    except ImportError:
        return hasattr(nssol, name)
    return True


def test_all_names_resolve():
    assert [name for name in nssol.__all__ if not hasattr(nssol, name)] == []


#: types nssol returns and objects its families build, which callers
#: import from their modules, not from the package
MODULE_ONLY = {
    "model": ("Family", "ValidationOutcome"),
    "solutions": ("Solution",),
    "residuals": ("ResidualReport", "ResolutionNorms"),
    "profiles": ("ExpQuadratic", "PowerRoot", "ImplicitProfile"),
    "scaling": ("PowerLawScaling",),
}


def test_public_surface_is_pinned():
    assert sorted(nssol.__all__) == [
        "DomainError", "ModelParams", "NonFiniteFieldError", "NssolError",
        "OutOfRangeError", "PressurelessTheta1", "PressurelessThetaNot1",
        "Profile", "ScalingFn", "SolutionField", "StencilOutOfDomainError",
        "StepFailureError", "Window", "WithPressureIsothermal",
        "WithPressurePolytropic", "WithPressurePowerLaw", "__version__",
        "build_solution", "derived_s", "eval_grid", "theta_required", "validate",
        "vanishing_time", "verify_family", "verify_window",
    ]
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert isinstance(getattr(importlib.import_module(f"nssol.{module}"), name),
                              type), name
            assert not hasattr(nssol, name), name


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_reads_existing_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "nssol"}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "nssol"
              for alias in node.names}
    assert sorted(name for name in names if not _resolves(name)) == []

