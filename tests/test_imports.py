"""The import contract, each case in a fresh interpreter: ``import novikov``
loads no submodule, a cold ``nova`` loads only what its command runs, and
every exported name still resolves to the object its home module defines.
Also the package's option inventory: every parameter with a default, pinned."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

# the package's exports, by home module
EXPORTS = {
    "algebra": [
        "Algebra", "BimodNov", "Bimodule", "abnova_residual", "bimodule_residual", "dual_bimodule",
        "dual_context", "novikov_residual", "regular", "regular_bimodule", "semidirect", "star", "star_algebra",
    ],
    "fields": ["Field", "GF", "PrimeField", "QQ", "Rationals"],
    "linalg": ["Matrix", "kernel_basis"],
    "operators": [
        "LinMap", "MassParams", "balanced_residual", "bimodule_hom_residual", "circ_t", "diamond_product",
        "equivalent_residual", "ext_o_residual", "invariant_residual", "pm_products", "rota_baxter_residual",
        "star_product",
    ],
    "postnov": [
        "CommTrialgebra", "PostNov", "associated", "lr_bimodule", "post_from_nybe", "post_from_o",
        "post_from_rb", "post_from_trialgebra", "post_on_image", "post_residual",
    ],
    "tensors": ["Tensor2", "Tensor3", "flip", "tensor3_combine"],
    "ybe": [
        "BilForm", "RTensor", "bilform_invariance", "enybe_residual", "invariance_residual", "nybe_residual",
        "o_nybe_residual",
    ],
    "lift": ["circ_delta", "delta_r", "double", "generalized_o_residual", "gnybe_residuals", "lift_map"],
    "properties": ["PROPERTY_IDS", "run_property"],
    "solver": ["SearchSpec", "enumerate_search"],
}

# every parameter with a default in the package outside ``_kernels/``, as
# module.qualname.parameter; a new option shows up here as an edit
OPTIONS = {
    "novikov.algebra.dual_bimodule.validate",
    "novikov.algebra.regular.validate",
    "novikov.cli._Doc.__init__.convert",
    "novikov.cli.build_parser.<locals>.command.table",
    "novikov.cli.main.argv",
    "novikov.fixtures.example_algebra.field",
    "novikov.fixtures.example_beta.field",
    "novikov.fixtures.example_t.field",
    "novikov.lift.circ_delta.cross_validate",
    "novikov.lift.double.validate",
    "novikov.postnov.post_from_o.validate",
    "novikov.properties.PropertyRun.count.checks",
    "novikov.properties.PropertyRun.count.hits",
    "novikov.properties.PropertyRun.expect.hit",
    "novikov.properties._enumerated_pool.limit",
    "novikov.properties.run_property.field",
    "novikov.properties.run_property.seed",
    "novikov.properties.run_property.trials",
    "novikov.serialize.bundle_document.field",
    "novikov.solver._residual_coords.ring",
    "novikov.solver.enumerate_search.jobs",
    "novikov.solver.solution_to_object.field",
    "novikov.ybe.invariance_residual.cross_check",
}


def _python(*args: str) -> subprocess.CompletedProcess:
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env, capture_output=True, text=True, timeout=120)


def _loaded_after(statement: str) -> set:
    """The ``novikov.*`` submodules a fresh interpreter holds after ``statement``."""
    report = "print(json.dumps([m for m in sys.modules if m.startswith('novikov.')]))"
    proc = _python("-c", f"import json, sys\n{statement}\n{report}")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_novikov_loads_no_submodule():
    assert _loaded_after("import novikov") == set()


def test_import_cli_loads_no_search_or_property_engine():
    loaded = _loaded_after("import novikov.cli")
    assert "novikov.cli" in loaded
    assert loaded.isdisjoint({"novikov.properties", "novikov.solver", "novikov._kernels"})


def test_every_export_is_its_home_modules_object():
    script = f"""
import importlib, json, novikov
exports = {json.dumps(EXPORTS)}
same = {{name: getattr(novikov, name) is getattr(importlib.import_module("novikov." + home), name)
        for home, names in exports.items() for name in names}}
star = {{}}
exec("from novikov import *", star)
print(json.dumps({{"same": same, "all": sorted(novikov.__all__), "star": sorted(n for n in star if n != "__builtins__")}}))
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == 63
    assert sorted(got["same"]) == got["all"] == got["star"] == names
    assert [name for name, same in got["same"].items() if not same] == []


def test_unknown_name_is_an_attribute_error_and_submodules_still_import():
    script = """
import novikov
try:
    novikov.nope
except AttributeError as exc:
    print("AttributeError:", exc)
from novikov import solver, _kernels
print(solver.__name__, _kernels.__name__)
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "AttributeError: module 'novikov' has no attribute 'nope'",
        "novikov.solver novikov._kernels",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["prop", "P-ASSOC", "--trials", "1"],
        ["solve", "novikov", "--dim", "1", "--field", "F2", "--count-only"],
    ],
    ids=["prop", "solve"],
)
def test_cold_prop_and_solve_import_their_engines(argv):
    proc = _python("-m", "novikov.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)


def _defaulted(node: ast.AST, prefix: str):
    """module.qualname.parameter of each parameter with a default under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{prefix}{child.name}.{a.arg}" for a in with_default)
            yield from _defaulted(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defaulted(child, f"{prefix}{child.name}.")
        else:
            yield from _defaulted(child, prefix)


def test_option_inventory_is_pinned():
    package = REPO / "src" / "novikov"
    options, environ = set(), []
    for path in sorted(package.rglob("*.py")):
        if "_kernels" in path.parts:
            continue
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        options.update(_defaulted(tree, f"{module}."))
        environ += [module for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "environ"]
    assert options == OPTIONS
    assert environ == []
