"""Nodes of one search: the number of nodes ``solver._search`` visits for a
spec given as ``nova solve`` options, with its solution count, its
``check_hash`` and its seconds.

    PYTHONPATH=src python tests/tools/nodes.py novikov --dim 3 --field F2

prints one JSON line such as

    {"hash": "6c551ce4...", "kind": "novikov-algebra", "nodes": 225777, "seconds": 1.9, "solutions": 3984}

A node is one call of ``_search``'s nested ``visit``.  They are counted by
a ``sys.setprofile`` hook (``count_nodes``, which the node-pin test of
``tests/test_solver.py`` uses too), so the library holds no counter and
costs nothing when no hook is set.  The hook slows the search about three
to four times, so ``seconds`` is the hooked time.  A spec that ``nova
solve`` refuses exits 2 with its one-line input error.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from novikov import cli, solver


def count_nodes(call, *args) -> tuple[int, object]:
    """(the number of calls of ``_search``'s nested ``visit`` made while
    ``call(*args)`` runs, its result)."""
    nodes = 0

    def hook(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "visit" and frame.f_code.co_filename == solver.__file__:
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call(*args)
    finally:
        sys.setprofile(previous)
    return nodes, result


def main(argv: list) -> int:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        nodes, code = count_nodes(cli.main, ["solve", *argv, "--count-only"])
    seconds = time.perf_counter() - start
    if code:
        sys.stderr.write(err.getvalue())
        return code
    line = json.loads(out.getvalue())
    record = {"kind": line["kind"], "nodes": nodes, "solutions": line["count"], "hash": line["hash"]}
    print(json.dumps({**record, "seconds": round(seconds, 3)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
