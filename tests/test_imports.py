"""The import contract, each case in a fresh interpreter: ``import novikov``
loads no submodule, a cold ``nova`` loads only what its command runs, and
every exported name still resolves to the object its home module defines."""

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
    "solver": ["SearchSpec", "enumerate_search", "random_instance"],
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
    assert len(names) == 64
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
