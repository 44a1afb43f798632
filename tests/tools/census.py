"""Line census of tier-1: the ``raise`` statements and the functions of the
package that the test suite never runs.

    PYTHONPATH=src python tests/tools/census.py [pytest arguments]

It runs pytest in this process (on ``tests/`` unless arguments are given)
under a ``sys.settrace`` plugin that records every line run in a module of
``src/novikov`` outside ``_kernels/``.  It then reads each such module's
syntax tree and prints, as ``path:line``,

- every ``raise`` statement in a function body that never ran, and
- every function or method that was never entered,

and exits with pytest's exit code.  It uses the standard library and
pytest only, and pytest does not collect it (its name does not start with
``test_``).

What it cannot see:

- Subprocess children are not traced: the cold ``nova`` runs of
  ``test_cli.py`` and ``test_imports.py``.  Code reached only there is
  listed as unreached; that is why the package's ``__getattr__`` and
  ``__dir__``, which only a cold import calls, are on the list.
- Only ``raise`` statements inside functions are judged.  Module-level
  code runs under the tracer (it starts before ``conftest.py`` imports the
  package), so a function called only at import counts as entered.

Under the tracer the suite runs about three times slower than without it
(313 s against 90-110 s on a 2-core host).
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "novikov"
SKIPPED = PACKAGE / "_kernels"


def _in_scope(path: pathlib.Path) -> bool:
    return path.suffix == ".py" and PACKAGE in path.parents and SKIPPED not in path.parents


class LineTracer:
    """A pytest plugin: from conftest loading to session finish, the numbers of
    the lines run in each in-scope file are kept in ``lines[path]``, and the
    first line of each code object entered there in ``entered[path]``
    (paths resolved)."""

    def __init__(self):
        self.lines: dict = {}
        self.entered: dict = {}
        self._files: dict = {}  # co_filename -> (entered set, line tracer), or None when out of scope

    def _watch(self, filename: str):
        path = pathlib.Path(os.path.realpath(filename))
        if not _in_scope(path):
            return None
        run = self.lines.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                run.add(frame.f_lineno)
            return on_line

        return self.entered.setdefault(path, set()), on_line

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        try:
            watched = self._files[code.co_filename]
        except KeyError:
            watched = self._files[code.co_filename] = self._watch(code.co_filename)
        if watched is None:
            return None
        watched[0].add(code.co_firstlineno)
        return watched[1]

    @pytest.hookimpl(tryfirst=True)
    def pytest_load_initial_conftests(self, early_config, parser, args):
        # before ``conftest.py`` imports the package, so import-time calls count
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _functions(tree: ast.Module):
    """Every function in the module with its dotted name, nested ones too."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            stack.extend((child, name + ".") for child in node.body)
        else:
            stack.extend((child, prefix) for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))


def _own_raises(fn):
    """The ``raise`` statements of fn's body outside its nested functions
    and classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            yield node
        stack.extend(child for child in ast.iter_child_nodes(node) if not isinstance(child, _SCOPES))


def unreached(tracer: LineTracer) -> tuple[list, list]:
    """The (path, line, function, source) of each unreached ``raise`` in a
    function body, and the (path, line, function) of each function never
    entered, in file and line order."""
    raises, functions = [], []
    for path in sorted(p for p in PACKAGE.rglob("*.py") if _in_scope(p)):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        rel = path.relative_to(ROOT)
        for name, fn in _functions(ast.parse(source)):
            first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
            if first not in tracer.entered.get(path, ()):
                functions.append((rel, fn.lineno, name))
            for node in _own_raises(fn):
                if node.lineno not in tracer.lines.get(path, ()):
                    raises.append((rel, node.lineno, name, lines[node.lineno - 1].strip()))
    return sorted(raises), sorted(functions)


TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]


def main(argv: list) -> int:
    tracer = LineTracer()
    code = pytest.main(argv or TIER1, plugins=[tracer])
    raises, functions = unreached(tracer)
    print(f"\nunreached raise statements: {len(raises)}")
    for rel, line, name, text in raises:
        print(f"  {rel}:{line}  {name}: {text}")
    print(f"\nfunctions never entered: {len(functions)}")
    for rel, line, name in functions:
        print(f"  {rel}:{line}  {name}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
