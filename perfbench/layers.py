"""Per-layer metrics of the traced run, and the probes for layers too
fine-grained to trace.

Each metric names the workload and end-to-end metric it should move.  The
traced run computes every one of them whichever workload it was asked for:
it runs one traced pass of every workload's job list, so the numbers of a
layer always come from the workload that exercises it.
"""

from __future__ import annotations

import json
import os
import random
import statistics

from harness import Op

from novikov.properties import PROPERTY_IDS

PREDICATES = (
    "novikov_ok", "nybe_ok", "o_nybe_ok", "enybe_ok", "ext_o_regular_ok",
    "rb_ok", "hkappa_ok", "invariant_symmetric_ok", "bilform_invariant_ok",
)
# Predicates the enumerate searches call, so they move enumerate.wall_s too.
SEARCH_PREDICATES = ("novikov_ok", "nybe_ok", "enybe_ok", "rb_ok", "ext_o_regular_ok")
OBJECT_MODULES = ("algebra", "operators", "ybe", "lift", "postnov", "tensors")
HOT_CALLS = (
    "ybe.o_nybe_residual", "ybe.nybe_residual", "algebra.dual_context",
    "algebra.regular_bimodule", "tensors.tensor3_combine",
)
KERNEL_SHAPES = ((8, 3), (24, 4), (27, 6), (243, 9))
CLI_COMMANDS = ("verify_algebra", "check_ext-o", "check_gnybe", "derive_circ-t", "solve_nybe")


def catalogue() -> list:
    """(name, unit, better, [(workload, end-to-end metric) it should move])."""
    rc, en, pr, cl = "random-checks", "enumerate", "properties", "cli"
    rows = []
    for fn in PREDICATES:
        moves = [(rc, "wall_s")] + ([(en, "wall_s")] if fn in SEARCH_PREDICATES else [])
        rows.append((f"_kernels.{fn}.ns_per_call", "ns", "lower", moves))
    rows += [
        ("_kernels.calls", "count", "lower", [(rc, "wall_s")]),
        ("_kernels.accept_ratio", "ratio", "higher", [(rc, "wall_s")]),
        ("_kernels.enumerate_novikov_dim2.s", "s", "lower", [(en, "wall_s")]),
        ("solver.candidates", "count", "lower", [(en, "wall_s")]),
        ("solver.solutions", "count", "higher", [(en, "wall_s")]),
        ("solver.useful_ratio", "ratio", "higher", [(en, "wall_s")]),
        ("solver.scan_self_s", "s", "lower", [(en, "wall_s")]),
        ("solver.shard_ratio", "ratio", "lower", [(en, "wall_s")]),
        ("solver.reverify.us_per_solution", "us", "lower", [(en, "wall_s")]),
    ]
    rows += [(f"properties.{pid}.s", "s", "lower", [(pr, "wall_s")]) for pid in PROPERTY_IDS]
    rows += [
        ("properties.checked", "count", "higher", [(pr, "wall_s")]),
        ("properties.hypothesis_hits", "count", "higher", [(pr, "wall_s")]),
    ]
    for mod in OBJECT_MODULES:
        rows.append((f"{mod}.self_s", "s", "lower", [(pr, "wall_s")]))
        rows.append((f"{mod}.calls", "count", "lower", [(pr, "wall_s")]))
    rows += [(f"{call}.us_per_call", "us", "lower", [(pr, "wall_s")]) for call in HOT_CALLS]
    for fld in ("QQ", "GF5"):
        rows += [(f"fields.{fld}.{op}.ns", "ns", "lower", [(pr, "wall_s")]) for op in ("add", "mul", "coerce")]
    rows += [(f"linalg.{op}.ns_per_entry", "ns", "lower", [(pr, "wall_s")])
             for op in ("matrix_new", "matrix_add", "apply")]
    rows += [(f"linalg.kernel_basis.{r}x{c}.us", "us", "lower", [(pr, "wall_s")]) for r, c in KERNEL_SHAPES]
    rows += [
        ("cli.import_ms", "ms", "lower", [(cl, "p50_ms")]),
        ("serialize.from_document.us", "us", "lower", [(cl, "p50_ms")]),
    ]
    rows += [(f"cli.main.{cmd}.ms", "ms", "lower", [(cl, "p50_ms")]) for cmd in CLI_COMMANDS]
    rows += [
        ("trace.overhead_ratio", "ratio", "lower", [("the traced workload", "all")]),
        ("host.steal_ticks", "count", "lower", [("every workload", "all")]),
    ]
    return rows


# ---------------------------------------------------------------------------
# metrics from spans


def _by_name(tracer, lo, hi):
    """name -> list of (index, duration_ns, parent) over spans in [lo, hi)."""
    out = {}
    for i, name, dur, par in tracer.spans(lo, hi):
        out.setdefault(name, []).append((i, dur, par))
    return out


def kernel_metrics(tracer, lo, hi, verdicts) -> dict:
    """Top-level kernel calls of the traced random-checks pass (a predicate
    calling another, as rb_ok calls ext_o_regular_ok, is not counted twice)."""
    names = tracer.names
    kernel_ids = {k for k, n in enumerate(names) if n.startswith("_kernels.")}
    top = {}
    for i in range(lo, hi):
        nid = tracer.name_id[i]
        par = tracer.parent[i]
        if nid in kernel_ids and (par < 0 or tracer.name_id[par] not in kernel_ids):
            top.setdefault(names[nid], []).append(tracer.end[i] - tracer.start[i])
    out = {}
    for fn in PREDICATES:
        durs = top.get(f"_kernels.{fn}", [])
        out[f"_kernels.{fn}.ns_per_call"] = sum(durs) / len(durs) if durs else 0.0
    out["_kernels.calls"] = sum(len(v) for v in top.values())
    out["_kernels.accept_ratio"] = sum(bool(v) for v in verdicts) / max(1, len(verdicts))
    return out


def solver_metrics(tracer, ranges, results) -> dict:
    """From the traced enumerate pass.  ``ranges`` maps op name to its span
    range and ``results`` to its SearchResult."""
    out = {"_kernels.enumerate_novikov_dim2.s": 0.0}
    scan_self = 0
    search_ns = {}
    reverify_ns, reverify_calls = 0, 0
    for op, (lo, hi) in ranges.items():
        spans = _by_name(tracer, lo, hi)
        kernel_child = {}
        for _i, dur, par in (s for name, ss in spans.items() if name.startswith("_kernels.") for s in ss):
            kernel_child[par] = kernel_child.get(par, 0) + dur
        for i, dur, _par in spans.get("solver.enumerate_search", []):
            search_ns[op] = search_ns.get(op, 0) + dur
            scan_self += dur - kernel_child.get(i, 0)
        for _i, dur, _par in spans.get("_kernels.enumerate_novikov_dim2", []):
            out["_kernels.enumerate_novikov_dim2.s"] += dur / 1e9
        for _i, dur, _par in spans.get("solver.reverify", []):
            reverify_ns += dur
            reverify_calls += 1
    candidates = sum(r.candidate_count for r in results.values())
    solutions = sum(len(r.solutions) for r in results.values())
    whole = "novikov-algebra/dim2/F5"
    shards = [n for n in search_ns if n.startswith(whole + "/shard")]
    out.update({
        "solver.candidates": candidates,
        "solver.solutions": solutions,
        "solver.useful_ratio": solutions / candidates,
        "solver.scan_self_s": scan_self / 1e9,
        "solver.shard_ratio": sum(search_ns[n] for n in shards) / search_ns[whole],
        "solver.reverify.us_per_solution": reverify_ns / 1e3 / max(1, reverify_calls),
    })
    return out


def object_path_metrics(tracer, lo, hi, op_seconds, runs) -> dict:
    """From the traced properties pass: per-property seconds (QQ + F3),
    module self time and calls, and the hot boundaries."""
    out = {}
    for pid in PROPERTY_IDS:
        out[f"properties.{pid}.s"] = sum(t for name, t in op_seconds.items() if name.split("/")[0] == pid)
    out["properties.checked"] = sum(r.checked for r in runs.values())
    out["properties.hypothesis_hits"] = sum(r.hypothesis_hits for r in runs.values())
    own = tracer.self_ns(lo, hi)
    self_ns = {m: 0 for m in OBJECT_MODULES}
    calls = {m: 0 for m in OBJECT_MODULES}
    hot = {c: [0, 0] for c in HOT_CALLS}
    for i, name, dur, _par in tracer.spans(lo, hi):
        mod = name.split(".")[0]
        if mod in self_ns:
            self_ns[mod] += own[i]
            calls[mod] += 1
        if name in hot:
            hot[name][0] += dur
            hot[name][1] += 1
    for mod in OBJECT_MODULES:
        out[f"{mod}.self_s"] = self_ns[mod] / 1e9
        out[f"{mod}.calls"] = calls[mod]
    for call, (ns, n) in hot.items():
        out[f"{call}.us_per_call"] = ns / 1e3 / n if n else 0.0
    return out


# ---------------------------------------------------------------------------
# probes


def _median_time(clock, fn, repeats=5) -> float:
    """Median scaled seconds of ``fn()`` over ``repeats`` runs."""
    op = Op("probe", fn)
    times = []
    for _ in range(repeats):
        _out, raw, scale = clock.run(op)
        times.append(raw * scale)
    return statistics.median(times)


def field_probes(seed: int, clock) -> dict:
    from novikov.fields import GF, QQ

    rng = random.Random(seed)
    out = {}
    count = 20000
    for label, f in (("QQ", QQ), ("GF5", GF(5))):
        xs = [f.sample(rng) for _ in range(count)]
        ys = [f.sample(rng) for _ in range(count)]
        pairs = list(zip(xs, ys))
        add, mul, coerce = f.add, f.mul, f.coerce
        out[f"fields.{label}.add.ns"] = _median_time(clock, lambda: [add(a, b) for a, b in pairs]) / count * 1e9
        out[f"fields.{label}.mul.ns"] = _median_time(clock, lambda: [mul(a, b) for a, b in pairs]) / count * 1e9
        out[f"fields.{label}.coerce.ns"] = _median_time(clock, lambda: [coerce(a) for a in xs]) / count * 1e9
    return out


def linalg_probes(seed: int, clock) -> dict:
    from novikov import linalg
    from novikov.fields import GF

    f = GF(3)
    rng = random.Random(seed)
    n, reps = 9, 400
    entries = [tuple(rng.randrange(3) for _ in range(n * n)) for _ in range(reps)]
    mats = [linalg.Matrix(f, n, n, e) for e in entries]
    vec = tuple(rng.randrange(3) for _ in range(n))
    per_entry = 1e9 / (reps * n * n)
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    out = {
        "linalg.matrix_new.ns_per_entry": _median_time(clock, lambda: [linalg.Matrix(f, n, n, e) for e in entries]),
        "linalg.matrix_add.ns_per_entry": _median_time(clock, lambda: [a + b for a, b in pairs]),
        "linalg.apply.ns_per_entry": _median_time(clock, lambda: [m.apply(vec) for m in mats]),
    }
    out = {name: seconds * per_entry for name, seconds in out.items()}
    for rows, cols in KERNEL_SHAPES:
        m = linalg.Matrix(f, rows, cols, tuple(rng.randrange(3) for _ in range(rows * cols)))
        out[f"linalg.kernel_basis.{rows}x{cols}.us"] = _median_time(clock, lambda: linalg.kernel_basis(m), 9) * 1e6
    return out


def serialize_probe(root: str, clock) -> float:
    """Microseconds per ``from_document`` over the bundled fixtures."""
    from novikov import serialize

    docs = []
    for name in sorted(os.listdir(os.path.join(root, "fixtures"))):
        with open(os.path.join(root, "fixtures", name), "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return _median_time(clock, lambda: [serialize.from_document(d) for d in docs]) / len(docs) * 1e6


def cli_main_ms(ops, clock, repeats=3) -> dict:
    """In-process ``cli.main`` per command, after import."""
    out = {}
    for op in ops:
        out[f"cli.main.{op.name}.ms"] = _median_time(clock, op.run, repeats) * 1e3
    return out
