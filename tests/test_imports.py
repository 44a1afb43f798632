"""The import contract, each case in a fresh interpreter: ``import novikov``
loads no submodule, a cold ``nova`` loads only what its command runs, and
every exported name still resolves to the object its home module defines.
Also the package's option inventory: every parameter with a default, pinned,
and no module that imports a name it never reads."""

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


# the benchmark's cold commands (perfbench/wl_cli.py) and the novikov.*
# modules each loads: verify and check/derive load the modules their row
# calls, solve the search engine
_BASE = {"algebra", "errors", "fields", "linalg", "residual", "serialize"}
COLD_COMMANDS = {
    "verify-algebra": (["verify", "algebra", "fixtures/a2.json"], _BASE),
    "check-ext-o": (
        ["check", "ext-o", "--weight", "1", "--kappa", "-2", "--mu", "0",
         "fixtures/a2.json", "regular", "fixtures/t2.json", "fixtures/beta2.json"],
        _BASE | {"operators"},
    ),
    "derive-circ-t": (
        ["derive", "circ-t", "--weight", "1", "fixtures/a2.json", "fixtures/t2.json"], _BASE | {"operators"}
    ),
    "check-gnybe": (
        ["check", "gnybe", "fixtures/a2.json", "fixtures/r_skew.json"], _BASE | {"operators", "tensors", "lift"}
    ),
    "solve-nybe": (
        ["solve", "nybe", "fixtures/a2_f3.json", "--field", "F3", "--count-only"],
        _BASE | {"operators", "tensors", "ybe", "solver"},
    ),
}


def _cold_nova(*argv: str) -> tuple:
    """A cold ``nova`` run and the ``novikov.*`` modules it imported."""
    proc = _python("-X", "importtime", "-m", "novikov.cli", *argv)
    imported = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:"))
    return proc, {name for name in imported if name.startswith("novikov.")}


@pytest.mark.parametrize("command", COLD_COMMANDS)
def test_cold_command_loads_only_what_its_row_calls(command):
    argv, modules = COLD_COMMANDS[command]
    proc, imported = _cold_nova(*argv)
    assert proc.returncode in (0, 1), proc.stderr
    assert imported == {f"novikov.{m}" for m in modules}


def test_every_row_resolves_to_a_callable():
    script = """
import json
from novikov import cli
print(json.dumps({f"{command} {kind}": callable(row.resolve()) for command, table in cli.TABLES.items()
                  for kind, row in table.items()}))
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    resolved = json.loads(proc.stdout)
    assert len(resolved) == 6 + 15 + 18
    assert [row for row, ok in resolved.items() if not ok] == []


def _doc(kind: str, payload: dict) -> dict:
    return {"format": 1, "kind": kind, "field": {"kind": "rational"}, "payload": payload}


_A2 = {"dim": 2, "mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]}
_ACTIONS = {
    "l": [{"rows": 1, "cols": 1, "entries": [["1"]]}] * 2,
    "r": [{"rows": 1, "cols": 1, "entries": [["0"]]}] * 2,
}
_GRID1 = [[["2"]]]

# one document of each kind, as ``to_document`` writes it
DOCUMENTS = {
    "algebra": _doc("algebra", {**_A2, "labels": ["e1", "e2"]}),
    "bimodule": _doc("bimodule", {"algebra": _A2, "mdim": 1, **_ACTIONS}),
    "bimodnov": _doc("bimodnov", {"algebra": _A2, "mdim": 1, **_ACTIONS, "mul": _GRID1}),
    "linmap": {**_doc("linmap", {"rows": 2, "cols": 1, "entries": [[1], [2]]}), "field": {"kind": "prime", "p": 3}},
    "tensor2": _doc("tensor2", {"dim": 2, "entries": [["1/2", "0"], ["3", "-2"]]}),
    "postnov": _doc("postnov", {"dim": 1, "circ": _GRID1, "tri_l": [[["0"]]], "tri_r": [[["-1"]]]}),
    "bilform": _doc("bilform", {"dim": 2, "entries": [["1", "0"], ["0", "1"]]}),
    "doc-bundle": _doc(
        "doc-bundle",
        {"documents": {"algebra": _doc("algebra", _A2), "form": _doc("bilform", {"dim": 1, "entries": [["1"]]})}},
    ),
}


def test_every_kind_round_trips_with_only_serialize_imported():
    """Each decoder imports its own class: an algebra loads none of the
    other classes' modules, and encoding an algebra, a map or a matrix
    loads no tensors, postnov or ybe."""
    script = f"""
import json, sys
from novikov.serialize import KINDS, from_document, to_document
docs = {json.dumps(DOCUMENTS)}

def loaded():
    return sorted(m for m in sys.modules if m.startswith("novikov."))

out = {{"kinds": list(KINDS), "imported": loaded(), "same": {{}}, "loaded": {{}}}}
for kind, doc in docs.items():
    obj = from_document(doc)
    out["same"][kind] = to_document(obj) == doc
    if kind == "linmap":
        out["same"]["matrix"] = to_document(obj.mat) == doc
    out["loaded"][kind] = loaded()
print(json.dumps(out))
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert sorted(got["kinds"]) == sorted(DOCUMENTS)
    assert got["imported"] == ["novikov.algebra", "novikov.errors", "novikov.fields", "novikov.linalg",
                               "novikov.residual", "novikov.serialize"]
    assert [kind for kind, same in got["same"].items() if not same] == []
    assert set(got["loaded"]["bimodnov"]) == set(got["imported"])
    assert set(got["loaded"]["linmap"]) == set(got["imported"]) | {"novikov.operators"}


def test_a_document_of_another_kind_is_refused_before_it_is_decoded(tmp_path):
    path = tmp_path / "postnov.json"
    path.write_text(json.dumps(DOCUMENTS["postnov"]))
    proc, imported = _cold_nova("verify", "algebra", str(path))
    assert proc.returncode == 2
    assert "algebra: expected a document of kind algebra, got postnov" in proc.stderr
    assert imported.isdisjoint({"novikov.postnov", "novikov.operators"})


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


def _unused_imports(tree: ast.Module) -> list:
    """The names an import binds that the module never reads; ``from
    __future__`` imports bind none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # the kernel package re-exports its backend's functions
    reexports = REPO / "src" / "novikov" / "_kernels" / "__init__.py"
    paths = sorted([*(REPO / "tests").rglob("*.py"), *(REPO / "src" / "novikov").rglob("*.py")])
    unused = {}
    for path in paths:
        if path != reexports:
            names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
            if names:
                unused[str(path.relative_to(REPO))] = names
    assert unused == {}
