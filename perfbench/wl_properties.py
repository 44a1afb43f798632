"""Workload ``properties``: all named properties through
``properties.run_property`` at a fixed trial count, over QQ and F3.

Why: this is the object path (fields, linalg, tensors, algebra, operators,
ybe, lift, postnov); kernel and enumeration work is under 1%.  QQ
(Fraction scalars) and F3 (ints mod p) use ``fields`` in two different
ways.  An object-path speed-up shows here and a search-engine change
should not.

Every run uses the same trial count and property seed, so each property's
``checked`` / ``hypothesis_hits`` is compared with a pinned value and the
work does not depend on the workload seed, which sets the order of the
runs in each pass.
"""

from __future__ import annotations

from harness import Op, Outcome, op_medians

from novikov.fields import GF, QQ
from novikov import properties
from novikov.solver import enumerated_dim2

TRIALS = 1
PROPERTY_SEED = 7
FIELDS = (("QQ", QQ), ("F3", GF(3)))


class Properties:
    name = "properties"
    max_passes = 1000

    def __init__(self, root: str, seed: int, pins: dict, goldens: dict, ids=properties.PROPERTY_IDS):
        self.pins = pins
        # The F3 pool enumerates the dim-2 tables once per process; do it
        # here so that every timed run sees the same warm cache.
        enumerated_dim2(GF(3))
        self.ops = [Op(f"{pid}/{fname}", self._run(pid, fld)) for pid in ids for fname, fld in FIELDS]
        self.last = {}

    def _run(self, pid, fld):
        return lambda: properties.run_property(pid, trials=TRIALS, seed=PROPERTY_SEED, field=fld)

    def check(self, op: Op, out, scale: float = 1.0) -> Outcome:
        self.last[op.name] = out
        outcome = Outcome()
        if not out.passed:
            outcome.fail(f"{op.name}: property failed: {out.failures[:1]}")
            return outcome
        pin = self.pins[f"{op.name}/seed{PROPERTY_SEED}"]
        if [out.checked, out.hypothesis_hits] != pin:
            outcome.fail(f"{op.name}: checked/hits {[out.checked, out.hypothesis_hits]}, pinned {pin}")
        return outcome

    def finish(self) -> list:
        return []

    def latency_samples(self, samples) -> list:
        return op_medians(samples.times)
