"""The novikov benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
and the kernel backend is whichever ``novikov._kernels`` selects on import
(``NOVIKOV_KERNELS`` is left as found).  Workloads: ``enumerate``,
``random-checks``, ``properties``, ``cli`` (see the ``wl_*.py`` modules for
what each runs and why).

``--trace 0`` measures the workload for about S seconds, untraced, and
reports the end-to-end metrics:

- ``wall_s``: the job list once, as the sum of each op's fastest execution
  (see ``harness`` for why the fastest);
- ``p50_ms`` / ``tail_ms``: latency of one op (a search, a predicate call, a
  property run, a ``nova`` invocation), over each op's fastest execution
  (for ``cli``, over every invocation of the complete passes); the tail is
  the highest percentile with at least ten samples beyond it (see
  ``harness.latency``);
- ``peak_rss_mb``: peak RSS of the process (for ``cli``, of its children);
- ``setup_s``: interpreter start to the first timed call (imports, fixture
  load, seeded inputs), the median of five fresh interpreters; for ``cli``
  a cold ``import novikov.cli``.

``--trace 1`` runs one traced pass of every workload's job list (after a few
untraced seconds of the named workload, for ``trace.overhead_ratio``) and
reports the per-layer metrics of ``layers.catalogue()``.  All times are
scaled to the host's reference speed (see ``harness``).

Every output is checked.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a run record with
the backend, Python version, git SHA, nproc, seed and steal ticks goes to
``.perfbench_out/`` in the checkout and to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys

import harness
from wl_cli import child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enumerate", "random-checks", "properties", "cli")
END_TO_END = (("wall_s", "s"), ("p50_ms", "ms"), ("tail_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_REPEATS = 5
BASELINE_SECONDS = 3.0
OUT = os.path.join(ROOT, ".perfbench_out")


def load_json(*parts):
    with open(os.path.join(*parts), "r", encoding="utf-8") as fh:
        return json.load(fh)


def build(name: str, seed: int):
    """Import the workload's modules and make its seeded inputs."""
    pins = load_json(HERE, "pins.json")
    goldens = load_json(ROOT, "goldens", "counts.json")
    if name == "enumerate":
        from wl_enumerate import Enumerate as cls
    elif name == "random-checks":
        from wl_random_checks import RandomChecks as cls
    elif name == "properties":
        from wl_properties import Properties as cls
    else:
        from wl_cli import Cli as cls
    return cls(ROOT, seed, pins, goldens)


def setup_seconds(name: str, seed: int, clock) -> float:
    """Median time of fresh interpreters that only set up."""
    if name == "cli":
        cmd = [sys.executable, "-c", "import novikov.cli"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    env = child_env(ROOT)
    child = harness.Op("setup", lambda: subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120),
                       in_child=True)
    times = []
    for _ in range(SETUP_REPEATS):
        _out, raw, scale = clock.run(child)
        times.append(raw * scale)
    return statistics.median(times)


def differential_note(wl) -> dict:
    """Whether the pure-vs-compiled kernel check ran (random-checks only)."""
    note = getattr(wl, "differential", None)
    if note is None:
        return {}
    return {"compiled_differential": note if isinstance(note, str) else "ran"}


def run_untraced(args, tally, clock) -> tuple:
    wl = build(args.workload, args.seed)
    samples = harness.measure(wl, args.seconds, random.Random(args.seed), tally, clock)
    for outcome in wl.finish():
        tally.add(outcome)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    lat = harness.latency(wl.latency_samples(samples))
    metrics = {
        "wall_s": harness.wall_s(samples.times),
        "p50_ms": lat["p50"] * 1e3,
        "tail_ms": lat["tail"] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_seconds(args.workload, args.seed, clock),
    }
    detail = {
        "raw_wall_s": harness.wall_s(samples.raw),
        "passes": samples.passes,
        "latency": {"samples": lat["samples"], "tail_percentile": lat["tail_percentile"]},
        "op_median_s": {name: statistics.median(ts) for name, ts in samples.times.items()},
        "op_samples": {name: len(ts) for name, ts in samples.times.items()},
        **differential_note(wl),
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, detail


def one_pass(wl, ops, tally, clock, tracer) -> tuple:
    """Each op once, in list order: scaled op seconds and span ranges."""
    seconds, ranges = {}, {}
    for op in ops:
        lo = tracer.mark()
        out, raw, scale = clock.run(op)
        seconds[op.name] = raw * scale
        ranges[op.name] = (lo, tracer.mark())
        tracer.rescale(lo, tracer.mark(), scale)
        tally.add(wl.check(op, out, scale))
    return seconds, ranges


def run_traced(args, tally, clock) -> tuple:
    import layers
    from spans import Tracer

    wls = {name: build(name, args.seed) for name in WORKLOADS}

    def job_list(name):
        return wls[name].inprocess_ops if name == "cli" else wls[name].ops

    # Untraced baseline for trace.overhead_ratio: as many passes as fit in a
    # few seconds (at least one), so cheap job lists are not timed cold.
    base = harness.measure(wls[args.workload], BASELINE_SECONDS, random.Random(args.seed), tally, clock,
                           job_list(args.workload))
    tracer = Tracer()
    tracer.install()
    try:
        traced = {name: one_pass(wls[name], job_list(name), tally, clock, tracer) for name in WORKLOADS}
    finally:
        tracer.uninstall()
    for wl in wls.values():
        for outcome in wl.finish():
            tally.add(outcome)

    rc, en, pr = wls["random-checks"], wls["enumerate"], wls["properties"]
    metrics = {}
    rc_ranges = traced["random-checks"][1].values()
    rc_lo, rc_hi = min(r[0] for r in rc_ranges), max(r[1] for r in rc_ranges)
    verdicts = [v for name in layers.PREDICATES for v in rc.reference[name]]
    metrics.update(layers.kernel_metrics(tracer, rc_lo, rc_hi, verdicts))
    metrics.update(layers.solver_metrics(tracer, traced["enumerate"][1], en.last))
    pr_ranges = traced["properties"][1].values()
    metrics.update(layers.object_path_metrics(
        tracer, min(r[0] for r in pr_ranges), max(r[1] for r in pr_ranges), traced["properties"][0], pr.last))
    metrics.update(layers.field_probes(args.seed, clock))
    metrics.update(layers.linalg_probes(args.seed, clock))
    metrics["cli.import_ms"] = setup_seconds("cli", args.seed, clock) * 1e3
    metrics["serialize.from_document.us"] = layers.serialize_probe(ROOT, clock)
    metrics.update(layers.cli_main_ms(wls["cli"].inprocess_ops, clock))
    metrics["trace.overhead_ratio"] = sum(traced[args.workload][0].values()) / harness.wall_s(base.times)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl.gz"))
    units = {name: unit for name, unit, _better, _moves in layers.catalogue()}
    detail = {
        "spans": tracer.mark(),
        "moves": {name: moves for name, _u, _b, moves in layers.catalogue()},
        **differential_note(rc),
    }
    return {name: (metrics[name], units[name]) for name in units if name != "host.steal_ticks"}, detail


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference loop
    of ``harness.HostClock`` runs where the timed work runs.  The host's
    CPUs change speed independently of each other."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up the workload and exit (times setup_s)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "novikov", "__init__.py")):
        print(f"perfbench: no novikov sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        build(args.workload, args.seed)
        return 0

    pin_to_one_cpu()
    steal0 = harness.steal_ticks()
    tally = harness.Tally()
    with harness.HostClock() as clock:
        if args.trace:
            metrics, detail = run_traced(args, tally, clock)
        else:
            metrics, detail = run_untraced(args, tally, clock)
    steal = harness.steal_ticks() - steal0
    if args.trace:
        metrics["host.steal_ticks"] = (steal, "count")

    from novikov import _kernels

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "git_sha": harness.git_sha(ROOT),
        "nproc": os.cpu_count(),
        "host.steal_ticks": steal,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **detail,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: record[k] for k in ("workload", "backend", "seed", "host.steal_ticks",
                                              "error_rate", "failures")}), file=sys.stderr)
    print(f"{args.workload} [{_kernels.BACKEND} kernels, seed {args.seed}, trace {args.trace}]")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if "latency" in detail:
        lat = detail["latency"]
        print(f"  (tail_ms is the p{lat['tail_percentile']:g} of {lat['samples']} samples)")
    print(f"  {'error_rate':42s} {record['error_rate']:14.6g} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
