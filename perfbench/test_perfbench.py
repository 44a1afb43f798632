"""Self-test of the benchmark: every workload at a tiny size, and the
output gate firing on a patched kernel.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from novikov import _kernels  # noqa: E402
from wl_cli import Cli  # noqa: E402
from wl_enumerate import Enumerate  # noqa: E402
from wl_properties import Properties  # noqa: E402
from wl_random_checks import RandomChecks  # noqa: E402

TINY_FAMILIES = ((5, 2, 3), (3, 3, 2))
CHEAP_SEARCHES = ("rota-baxter/trunc3/F3", "invariant-symmetric-tensor/trunc3/F3", "quadratic-form/trunc3/F3")


def _pins():
    return run.load_json(HERE, "pins.json")


def _goldens():
    return run.load_json(ROOT, "goldens", "counts.json")


def _tally(wl, ops=None, finish=True):
    tally = harness.Tally()
    samples = harness.measure(wl, 0.0, random.Random(0), tally, harness.HostClock(), ops)
    if finish:
        for outcome in wl.finish():
            tally.add(outcome)
    return tally, samples


def _enumerate(seed=5):
    wl = Enumerate(ROOT, seed, _pins(), _goldens())
    return wl, [op for op in wl.ops if op.name in CHEAP_SEARCHES]


def test_enumerate_tiny():
    wl, ops = _enumerate()
    tally, samples = _tally(wl, ops, finish=False)
    assert tally.attempted == len(ops) and tally.failed == 0, tally.reasons
    assert samples.passes == 1


def test_random_checks_tiny():
    wl = RandomChecks(ROOT, 5, {}, _goldens(), TINY_FAMILIES)
    tally, samples = _tally(wl)
    assert tally.attempted > 0 and tally.failed == 0, tally.reasons
    lat = harness.latency(wl.latency_samples(samples))
    assert lat["samples"] == sum(len(p) for p in wl.points.values())


def test_properties_tiny():
    wl = Properties(ROOT, 5, _pins(), _goldens(), ids=("P-SEMI", "P-HOM"))
    tally, _ = _tally(wl)
    assert tally.attempted == 4 and tally.failed == 0, tally.reasons


def test_cli_tiny():
    wl = Cli(ROOT, 5, _pins(), _goldens())
    tally, _ = _tally(wl, wl.ops[:2] + wl.inprocess_ops[:2])
    assert tally.attempted == 4 and tally.failed == 0, tally.reasons


def _flip_once(monkeypatch, name, target):
    """Patch one kernel so that its verdict on ``target`` arguments flips."""
    original = getattr(_kernels, name)

    def flipped(*args):
        verdict = original(*args)
        return (not verdict) if args == target else verdict

    monkeypatch.setattr(_kernels, name, flipped)


def test_gate_fires_on_a_flipped_random_check(monkeypatch):
    wl = RandomChecks(ROOT, 5, {}, _goldens(), TINY_FAMILIES)
    zero_args = next(args for args, tag in wl.points["rb_ok"] if tag == "zero")
    _flip_once(monkeypatch, "rb_ok", zero_args)
    tally, _ = _tally(wl)
    assert tally.failed > 0
    assert tally.failed / tally.attempted > 0


def test_gate_fires_on_a_flipped_search_candidate(monkeypatch):
    wl, ops = _enumerate()
    spec = wl.specs["rota-baxter/trunc3/F3"]
    mul = tuple(int(c) for i in spec.algebra.mul for j in i for c in j)
    _flip_once(monkeypatch, "rb_ok", (mul, 3, 3, (0,) * 9, spec.field.coerce(spec.weight)))
    tally, _ = _tally(wl, ops, finish=False)
    assert tally.failed == 1, tally.reasons


def test_histogram_helpers():
    lat = harness.latency([float(i) for i in range(1, 101)])
    assert lat["tail_percentile"] == 90.0 and lat["tail"] == 90.0 and lat["p50"] == 50.0
    few = harness.latency([3.0, 1.0, 2.0])
    assert few["tail"] == few["p50"] == 2.0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in layers.catalogue()]


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_namespace_and_restores():
    from spans import Tracer

    original = _kernels.rb_ok
    wl = RandomChecks(ROOT, 5, {}, _goldens(), TINY_FAMILIES)
    tally = harness.Tally()
    tracer = Tracer()
    tracer.install()
    try:
        assert _kernels.rb_ok is not original and _kernels.pure.rb_ok is not original
        _seconds, ranges = run.one_pass(wl, wl.ops, tally, harness.HostClock(), tracer)
    finally:
        tracer.uninstall()
    assert _kernels.rb_ok is original and tally.failed == 0
    lo, hi = min(r[0] for r in ranges.values()), max(r[1] for r in ranges.values())
    verdicts = [v for name in layers.PREDICATES for v in wl.reference[name]]
    metrics = layers.kernel_metrics(tracer, lo, hi, verdicts)
    # rb_ok calls ext_o_regular_ok: nested kernel spans are not counted twice.
    assert metrics["_kernels.calls"] == len(verdicts)
    assert all(metrics[f"_kernels.{fn}.ns_per_call"] > 0 for fn in layers.PREDICATES)
